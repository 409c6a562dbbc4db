import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import aggraded
from aggraded.cli import main
from aggraded.session import (MAX_EXPONENT, SessionError, execute, parse_session,
                              render_report, summarize)

SESSIONS = pathlib.Path(__file__).resolve().parent.parent / "sessions"

SEMIGROUP = (SESSIONS / "semigroup.session").read_text()
SQUARES = (SESSIONS / "squares.session").read_text()


def test_parse_semigroup_session():
    ses = parse_session(SEMIGROUP)
    assert ses.variables == ("X", "Y", "Z")
    assert ses.characteristic == 32003
    assert len(ses.ideal_strings) == 3
    assert ses.modules["M"] == ("F", "N")
    assert ("M", "purity") in ses.commands


def test_missing_vars_is_an_error():
    with pytest.raises(SessionError) as err:
        parse_session("char 5\nfree F : rank 1\n")
    assert "vars" in str(err.value)


def test_unknown_identifier_names_the_line():
    text = "vars x y\nfree F : rank 1\nmodule M = F / NOPE\n"
    with pytest.raises(SessionError) as err:
        parse_session(text)
    assert "line 3" in str(err.value)


def test_non_prime_characteristic_rejected():
    with pytest.raises(SessionError):
        parse_session("char 32004\nvars x\n")


def test_malformed_column_entry_is_a_provenance_error():
    # juxtaposition is not a product, nor a sum: no Betti table of (x + y)
    text = ("vars x y\nflavor local\nideal I :\nfree F : rank 1\n"
            "submodule N in F : [x y]\nmodule M = F / N\nanalyze M : betti\n")
    report, status = execute(parse_session(text))
    assert status == 1 and not report["results"]
    assert "'x y'" in report["provenance"]["error"]


@pytest.mark.parametrize("ideal, column, line", [("x y", "x", 3), ("x*y", "x y", 5)])
def test_malformed_polynomial_is_a_session_error_at_its_line(ideal, column, line):
    # an ideal or column entry is parsed when the session runs; its error
    # names the line it was written on
    from aggraded.session import _Workspace

    text = (f"vars x y\nflavor local\nideal I : {ideal}\nfree F : rank 1\n"
            f"submodule N in F : [{column}]\nmodule M = F / N\nanalyze M : betti\n")
    message = f"line {line}: '+' or '-' expected after a term in 'x y'"
    with pytest.raises(SessionError) as err:
        _Workspace(parse_session(text))
    assert err.value.line_no == line and str(err.value) == message
    report, status = execute(parse_session(text))
    assert status == 1 and not report["results"] and report["provenance"]["error"] == message


@pytest.mark.parametrize("column, message", [
    ("[x y], [z]", "line 4: '+' or '-' expected after a term in 'x y'"),
    ("[z]", "line 4: unknown variable 'z'"),
    ("[x, y]", "line 4: column 'x, y' has 2 entries, free rank is 1"),
])
def test_unused_submodule_is_parsed_at_its_line(column, message):
    # no module line uses B: its columns are still parsed and their widths
    # checked when the session runs
    from aggraded.session import _Workspace

    text = (f"vars x y\nflavor graded\nfree F : rank 1\nsubmodule B in F : {column}\n"
            "submodule N in F : [x]\nmodule M = F / N\nanalyze M : betti\n")
    with pytest.raises(SessionError) as err:
        _Workspace(parse_session(text))
    assert err.value.line_no == 4 and str(err.value) == message
    report, status = execute(parse_session(text))
    assert status == 1 and not report["results"] and report["provenance"]["error"] == message


def test_unit_generator_rejected_at_execution():
    text = (
        "vars x y\nflavor local\nideal I :\nfree F : rank 1\n"
        "submodule N in F : [1 + x]\nmodule M = F / N\nanalyze M : betti\n"
    )
    ses = parse_session(text)
    report, status = execute(ses)
    assert status == 1
    assert "mF required" in report["provenance"]["error"]


def test_semigroup_execution_and_rendering():
    ses = parse_session(SEMIGROUP)
    report, status = execute(ses)
    assert status == 2  # betti over A is inconclusive at the cutoff
    by_cmd = {(e["target"], e["command"]): e for e in report["results"]}
    tc = by_cmd[("ring", "tangentcone")]["result"]["generators"]
    assert sorted(tc) == sorted(["X*Z", "Y*Z", "Z^2", "Y^4"])
    hil = by_cmd[("ring", "hilbert")]["result"]
    assert hil["series"] == "(1 + 2*z + z^3)/(1-z)"
    assert hil["dim"] == 1 and hil["multiplicity"] == 4
    inv = by_cmd[("ring", "invariants")]["result"]
    assert inv["depth"] == 0 and inv["cmd"] == 1
    pur = by_cmd[("M", "purity")]["result"]
    assert pur["verdict"] == "not-pure"
    assert pur["route_a"]["witness"]["degrees"] == [1, 3]
    assert pur["route_b"]["homology_witness"]["position"] == 1
    assert not pur["route_b"]["coker_matches"]
    text = summarize(report)
    assert "NOT PURE" in text and "degrees {1, 3}" in text


def test_squares_execution_all_conclusive():
    ses = parse_session(SQUARES)
    report, status = execute(ses)
    assert status == 0
    by_cmd = {e["command"]: e for e in report["results"]}
    assert by_cmd["purity"]["result"]["verdict"] == "pure"
    assert by_cmd["purity"]["result"]["delta"] == [0, 2, 4, 6]
    hk = by_cmd["hk"]["result"]
    assert hk["conditions"]["betti_eq_hk"] is True
    assert hk["multiplicity_sides"] == ["8", "8"]


def test_report_determinism_and_roundtrip():
    ses = parse_session(SEMIGROUP)
    r1, s1 = execute(ses)
    r2, s2 = execute(parse_session(SEMIGROUP))
    assert s1 == s2
    assert render_report(r1) == render_report(r2)
    back = json.loads(render_report(r1))
    assert back["results"] == json.loads(render_report(r2))["results"]


def test_fibre_payloads_do_not_depend_on_the_command_order():
    # koszulfp resolves M to 3 and purity to 4: whichever runs first, the
    # other extends the kept resolution, and each payload is the same
    fibre = (SESSIONS / "fibre.session").read_text()
    assert "analyze M : koszulfp, purity" in fibre
    runs = [execute(parse_session(text))[0]["results"]
            for text in (fibre, fibre.replace("koszulfp, purity", "purity, koszulfp"))]
    assert [e["command"] for e in runs[1]] == ["purity", "koszulfp"]
    assert runs[0] == runs[1][::-1]


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", str(SESSIONS / "squares.session"), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "PURE of type (0, 2, 4, 6)" in captured
    data = json.loads(out.read_text())
    assert data["provenance"]["characteristic"] == 32003


@pytest.mark.parametrize("vars_, ideal, columns, verdict, summary", [
    ("x y", "", "[x], [y]", "pure", "PURE of type (0, 1, 2)"),
    ("x y z", "x*y, z^2", "[x], [y^2]", "not-pure", "NOT PURE -- witness: beta_1 degrees {1, 2}"),
])
def test_cli_graded_purity_writes_report_and_summary(tmp_path, capsys, vars_, ideal, columns,
                                                     verdict, summary):
    session = tmp_path / "graded.session"
    session.write_text(
        f"vars {vars_}\nflavor graded\nideal J : {ideal}\nfree F : rank 1\n"
        f"submodule N in F : {columns}\nmodule K = F / N\nanalyze K : purity\n"
    )
    out = tmp_path / "report.json"
    assert main(["run", str(session), "--out", str(out)]) == 0
    assert f"K : purity -> {summary}" in capsys.readouterr().out
    assert json.loads(out.read_text())["results"][0]["result"]["verdict"] == verdict


def test_cli_runs_the_bundled_graded_session(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", str(SESSIONS / "graded.session"), "--out", str(out)]) == 2
    printed = capsys.readouterr().out
    assert "P : purity -> PURE of type (0, 1)" in printed
    assert "Q : purity -> NOT PURE" in printed
    results = json.loads(out.read_text())["results"]
    assert all("error" not in e for e in results)


def test_cli_exits_1_without_a_traceback_when_its_reader_closes_early(tmp_path):
    # unbuffered, the parsed-session line is written before the session runs;
    # the reader takes it and closes the pipe, so the summary finds it closed
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(aggraded.__file__).parent.parent),
               PYTHONUNBUFFERED="1")
    out = tmp_path / "report.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "aggraded.cli", "run", str(SESSIONS / "squares.session"),
         "--char", "2", "--verbose", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"# parsed session")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == "error: standard output closed before the summary\n"
    assert json.loads(out.read_text())["results"]


def test_cli_reports_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.session"
    bad.write_text("vars x\nfree F : rank\n")
    assert main(["run", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["run", "squares.session", "--max-homdeg", "abc"], 1),
    ([], 1),
    (["--help"], 0),
])
def test_cli_usage_errors_exit_1_not_the_inconclusive_status(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert ("error: " in captured.err) == bool(code)
    assert ("usage: " in captured.out) != bool(code)


@pytest.mark.parametrize("flag, value, message", [
    ("--max-homdeg", "-1", "error: --max-homdeg must be at least 0, got -1"),
    ("--truncation", "0", "error: --truncation must be at least 1, got 0"),
    ("--char", "4294967311",
     "error: --char 4294967311 is too large: the prime field needs p < 2^31"),
])
def test_cli_bad_override_names_its_flag(capsys, flag, value, message):
    assert main(["run", str(SESSIONS / "squares.session"), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


def test_cli_session_without_vars_line(tmp_path, capsys):
    bad = tmp_path / "novars.session"
    bad.write_text("char 5\nfree F : rank 1\n")
    assert main(["run", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: session has no vars line"]


def _refuse_execute(monkeypatch):
    import aggraded.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the session ran although --out cannot be written")

    monkeypatch.setattr(cli, "execute", refuse)


def test_cli_out_in_a_missing_directory_is_an_error(tmp_path, capsys, monkeypatch):
    _refuse_execute(monkeypatch)
    out = tmp_path / "missing" / "report.json"
    assert main(["run", str(SESSIONS / "squares.session"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err
    assert not out.parent.exists()


def test_cli_out_at_a_directory_is_an_error(tmp_path, capsys, monkeypatch):
    _refuse_execute(monkeypatch)
    assert main(["run", str(SESSIONS / "squares.session"), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_session_that_is_not_utf8_is_an_error(tmp_path, capsys):
    bad = tmp_path / "latin1.session"
    bad.write_bytes("vars x\n# caf\u00e9\n".encode("latin-1"))
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err


def test_cli_char_override(tmp_path):
    out = tmp_path / "r.json"
    code = main(["run", str(SESSIONS / "squares.session"), "--char", "101", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["provenance"]["characteristic"] == 101


def test_graded_flavor_session():
    text = (
        "char 32003\nvars x y\nflavor graded\nideal J : x*y\n"
        "free F : rank 1\nsubmodule N in F : [x], [y]\nmodule K = F / N\n"
        "option max_homdeg 5\nanalyze K : betti, hilbert, purity\nanalyze ring : hilbert\n"
    )
    report, status = execute(parse_session(text))
    by = {(e["target"], e["command"]): e for e in report["results"]}
    assert by[("ring", "hilbert")]["result"]["series"] == "(1 + z)/(1-z)"
    pur = by[("K", "purity")]["result"]
    assert pur["is_pure"] and pur["verdict"] == "inconclusive-at-cutoff"
    assert status == 2


def test_graded_flavor_rejects_local_commands():
    text = (
        "vars x y\nflavor graded\nideal J : x*y\nfree F : rank 1\n"
        "submodule N in F : [x]\nmodule K = F / N\nanalyze K : fstar\n"
    )
    report, status = execute(parse_session(text))
    assert status == 1 and "local flavor" in report["results"][0]["error"]


def test_free_module_session():
    text = (
        "vars x y\nflavor local\nideal I :\nfree F : rank 2\n"
        "module M = F / 0\nanalyze M : purity, hilbert\n"
    )
    report, status = execute(parse_session(text))
    assert status == 0
    by = {e["command"]: e for e in report["results"]}
    assert by["purity"]["result"]["verdict"] == "pure"
    assert by["hilbert"]["result"]["multiplicity"] == 2


@pytest.mark.parametrize("flavor", ["local", "graded"])
def test_pure_type_of_free_and_zero_modules_agrees_across_flavors(flavor):
    # delta_0 = 0 even when F_0 = 0, but the zero module's type is empty,
    # as its Betti table is
    text = (
        f"vars x y\nflavor {flavor}\nideal I :\nfree F : rank 0\nfree G : rank 2\n"
        "module M = F / 0\nmodule L = G / 0\nanalyze M : purity, betti\nanalyze L : purity\n"
    )
    report, status = execute(parse_session(text))
    assert status == 0
    assert summarize(report).splitlines() == [
        "M : purity -> PURE of type ()", "M : betti ->", "(zero module)",
        "L : purity -> PURE of type (0,)",
    ]


def test_free_module_is_finite_at_cutoff_zero():
    text = (
        "vars x y\nflavor local\nideal I :\nfree F : rank 1\nsubmodule N in F :\n"
        "module M = F / N\noption max_homdeg 0\n"
        "analyze M : betti, invariants\nanalyze ring : betti\n"
    )
    report, status = execute(parse_session(text))
    assert status == 0
    by = {(e["target"], e["command"]): e["result"] for e in report["results"]}
    for key in (("M", "betti"), ("ring", "betti")):
        assert by[key]["complete"] is True and by[key]["pdim"] == 0
    assert by[("M", "invariants")]["pdim_status_local"] == ["finite", 0]
    assert by[("M", "invariants")]["pdim_status_graded"] == ["finite", 0]


def test_tangentcone_on_a_module_rejected_at_parse():
    text = "vars x y\nfree F : rank 1\nmodule M = F / 0\nanalyze M : tangentcone\n"
    with pytest.raises(SessionError, match="line 4: command 'tangentcone' needs the ring target"):
        parse_session(text)


NEEDS_MODULE = "line {line}: command {command!r} needs a module target"
NEEDS_RING = "line {line}: command {command!r} needs the ring target"
NEEDS_LOCAL = "command {command!r} needs the local flavor"
# target -> command -> (outcome under the local flavor, under the graded
# flavor): a parse error, an error entry, or "result"
COMMAND_OUTCOMES = {
    "ring": {
        "purity": (NEEDS_MODULE, NEEDS_MODULE), "betti": ("result", "result"),
        "hilbert": ("result", "result"), "invariants": ("result", "result"),
        "fstar": (NEEDS_MODULE, NEEDS_MODULE), "hk": (NEEDS_MODULE, NEEDS_MODULE),
        "equigen": (NEEDS_MODULE, NEEDS_MODULE), "koszulfp": (NEEDS_MODULE, NEEDS_MODULE),
        "tangentcone": ("result", NEEDS_LOCAL),
    },
    "M": {
        "purity": ("result", "result"), "betti": ("result", "result"),
        "hilbert": ("result", "result"), "invariants": ("result", "result"),
        "fstar": ("result", NEEDS_LOCAL), "hk": ("result", NEEDS_LOCAL),
        "equigen": ("result", NEEDS_LOCAL), "koszulfp": ("result", NEEDS_LOCAL),
        "tangentcone": (NEEDS_RING, NEEDS_RING),
    },
}


@pytest.mark.parametrize("command", list(COMMAND_OUTCOMES["M"]))
@pytest.mark.parametrize("target", list(COMMAND_OUTCOMES))
@pytest.mark.parametrize("position", ["before", "after"])
@pytest.mark.parametrize("flavor", ["local", "graded"])
def test_every_command_target_and_flavor(flavor, position, target, command):
    # the flavor line may follow the analyze line, so a wrong flavor is an
    # error entry at run time, while a wrong target is a parse error
    flavor_line = f"flavor {flavor}\n"
    text = ("vars x y\n" + (flavor_line if position == "before" else "")
            + "ideal I : x^2\nfree F : rank 1\nsubmodule N in F : [y]\nmodule M = F / N\n"
            + f"option max_homdeg 2\nanalyze {target} : {command}\n"
            + (flavor_line if position == "after" else ""))
    expected = COMMAND_OUTCOMES[target][command][flavor == "graded"].format(
        line=8 if position == "before" else 7, command=command)
    try:
        ses = parse_session(text)
    except SessionError as exc:
        outcome = str(exc)
    else:
        report, status = execute(ses)
        (entry,) = report["results"]
        outcome = entry.get("error", "result")
        assert status == (1 if "error" in entry else 0)
    assert outcome == expected


@pytest.mark.parametrize("text, message", [
    # a name no polynomial can spell would be a silent extra variable
    ("vars X^2 Y\n", "line 1: bad variable name 'X^2'"),
    ("vars 2 Y\n", "line 1: bad variable name '2'"),
    ("vars X X\n", "line 1: variable 'X' is declared twice"),
    ("vars x y\nfree F : rank 2\nsubmodule N in F : [x]\nmodule M = F / N\n",
     "line 4: column 'x' has 1 entries, free rank is 2"),
    # a redeclaration could change a rank or a column after the width check
    ("vars x\nfree F : rank 1\nsubmodule N in F : [x]\nmodule M = F / N\nfree F : rank 2\n",
     "line 5: 'F' is already declared"),
    ("vars x\nfree F : rank 1\nsubmodule N in F : [x]\nmodule M = F / N\n"
     "submodule N in F : [x, x]\n", "line 5: 'N' is already declared"),
    ("vars x\nfree F : rank 1\nmodule M = F / 0\nmodule M = F / 0\n",
     "line 4: 'M' is already declared"),
    # a line that sets the ring once may not silently replace it
    ("vars x y\nideal I x*y\n", "line 2: expected: ideal NAME : f, g, ..."),
    ("vars x y\nvars z\n", "line 2: a second vars line: a session has at most one"),
    ("char 5\nvars x\nchar 7\n", "line 3: a second char line: a session has at most one"),
    ("flavor local\nvars x\nflavor graded\n",
     "line 3: a second flavor line: a session has at most one"),
    ("vars x\nideal I : x^2\nideal J : x^3\n",
     "line 3: a second ideal line: a session has at most one"),
])
def test_declarations_checked_at_their_line(text, message):
    with pytest.raises(SessionError) as err:
        parse_session(text)
    assert str(err.value) == message


def test_characteristic_at_or_above_two_to_the_31_rejected():
    # 4294967311 is prime, but above the bound of the field
    with pytest.raises(SessionError, match="2\\^31"):
        parse_session("char 4294967311\nvars x\n")
    report, status = execute(parse_session(SQUARES), char_override=4294967311)
    assert status == 1 and not report["results"]
    assert "2^31" in report["provenance"]["error"]


def test_deep_semigroup_report_matches_benchmark_golden():
    # also every bundled session at its own options: their report bytes are gated
    goldens = json.loads((SESSIONS.parent / "perfbench" / "goldens.json").read_text())
    runs = [("semigroup", {"max_homdeg": 8}, goldens["deep_resolution"]["semigroup@max_homdeg=8"])]
    runs += [(name, {}, digest) for name, digest in sorted(goldens["sessions"].items())]
    for name, overrides, golden in runs:
        report, _ = execute(parse_session((SESSIONS / f"{name}.session").read_text()), **overrides)
        digest = hashlib.sha256(render_report(report).encode()).hexdigest()
        assert digest == golden, (name, overrides)


def _exponent_session(ideal, column):
    return ("vars x y\nflavor local\n"
            f"ideal I : {ideal}\nfree F : rank 1\nsubmodule N in F : [{column}]\n"
            "module M = F / N\noption max_homdeg 2\nanalyze M : betti\n")


def test_exponents_up_to_the_bound_run():
    report, status = execute(parse_session(_exponent_session("", f"x^{MAX_EXPONENT}")))
    assert status == 0 and report["results"][0]["result"]["pdim"] == 1
    report, status = execute(parse_session(_exponent_session(f"y ^ {MAX_EXPONENT}", "x")))
    assert status == 0 and "error" not in report["results"][0]


@pytest.mark.parametrize("ideal, column, line, exponent", [
    ("", f"x^{MAX_EXPONENT + 1}", 5, str(MAX_EXPONENT + 1)),
    (f"x*y^{MAX_EXPONENT + 1}", "x", 3, str(MAX_EXPONENT + 1)),
    ("y ^ 00010001", "x", 3, "10001"),
    ("", "x^99999999999999999999", 5, "99999999999999999999"),
    ("", "x^" + "9" * 5000, 5, "9" * 20 + "..."),
])
def test_an_exponent_above_the_bound_is_rejected_at_its_line(ideal, column, line, exponent):
    with pytest.raises(SessionError) as err:
        parse_session(_exponent_session(ideal, column))
    assert str(err.value) == (f"line {line}: exponent {exponent} is too large: "
                              f"exponents are at most {MAX_EXPONENT}")


@pytest.mark.parametrize("digits", ["7" * 4000, "7" * 5000, "32003" + "0" * 4996])
def test_a_long_coefficient_is_read_modulo_p(digits):
    # longer than the interpreter converts to an int at once; the last one is
    # a multiple of p, so its column is zero and M is free
    residue = 0
    for d in digits:
        residue = (residue * 10 + int(d)) % 32003
    runs = [execute(parse_session(_exponent_session("x*y", f"{c}*x")))
            for c in (digits, residue)]
    (long, status), (reduced, reduced_status) = runs
    assert status == reduced_status and status in (0, 2)
    assert long["results"] == reduced["results"] and summarize(long) == summarize(reduced)
    assert long["results"][0]["result"]["pdim"] == (0 if residue == 0 else None)


@pytest.mark.parametrize("line", ["option max_homdeg -1", "option truncation 0"])
def test_out_of_range_cutoff_rejected_at_parse(line):
    with pytest.raises(SessionError, match="line 2: option .* must be at least"):
        parse_session(f"vars x\n{line}\n")


@pytest.mark.parametrize("overrides", [{"max_homdeg": -1}, {"truncation": 0}])
def test_out_of_range_cutoff_override_rejected(overrides):
    report, status = execute(parse_session(SQUARES), **overrides)
    assert status == 1 and not report["results"]
    assert "must be at least" in report["provenance"]["error"]


def _single_command(text):
    report, status = execute(parse_session(text))
    assert status == 1 and len(report["results"]) == 1
    entry = report["results"][0]
    assert "result" not in entry
    return entry["error"]


def _squares_with(command):
    return SQUARES.replace("analyze M : purity, betti, hilbert, fstar, hk, equigen",
                           f"analyze M : {command}")


def test_zero_in_quotient_becomes_an_error_entry():
    text = "vars x y\nfree F : rank 1\nmodule M = F / 0\nanalyze M : equigen\n"
    assert "N = 0" in _single_command(text)


def test_model_size_becomes_an_error_entry():
    text = ("vars a b c d e f g\nfree F : rank 1\nsubmodule N in F : [a]\n"
            "module M = F / N\noption truncation 12\nanalyze M : equigen\n")
    assert "31824" in _single_command(text)


def test_engine_error_becomes_an_error_entry(monkeypatch):
    import aggraded.engine as engine

    monkeypatch.setattr(engine, "MAX_REDUCTION_STEPS", 0)
    text = "vars x y\nfree F : rank 1\nsubmodule N in F : [x^2]\nmodule M = F / N\nanalyze M : betti\n"
    assert "reduction step limit" in _single_command(text)


def test_bridge_error_becomes_an_internal_disagreement_entry(monkeypatch):
    import aggraded.graded as graded

    monkeypatch.setattr(graded, "pdim_over_cover", lambda gm: -1)
    error = _single_command(_squares_with("invariants"))
    assert error.startswith("internal disagreement") and "depth" in error


def test_not_a_complex_becomes_an_internal_disagreement_entry(monkeypatch):
    import aggraded.complexes as complexes

    monkeypatch.setattr(complexes.Matrix, "is_zero_mod", lambda self, nf_vector: False)
    error = _single_command(_squares_with("purity"))
    assert error.startswith("internal disagreement") and "composition" in error


def test_infinite_cover_resolution_becomes_an_internal_disagreement_entry(monkeypatch):
    import dataclasses

    import aggraded.complexes as complexes

    real = complexes.resolve_bounded
    covers = []

    def truncated(gens, layout, ctx, cutoff):
        res = real(gens, layout, ctx, cutoff)
        if ctx.order.is_local or ctx.ideal:
            return res
        covers.append(ctx)          # the polynomial cover S: no ideal, graded
        return dataclasses.replace(res, pdim=None)

    monkeypatch.setattr(complexes, "resolve_bounded", truncated)
    error = _single_command(_squares_with("hilbert"))
    assert covers
    assert error.startswith("internal disagreement") and "must be finite" in error


def test_nonpositive_hilbert_numerator_becomes_an_internal_disagreement_entry(monkeypatch):
    import aggraded.graded as graded

    # beta_{0,0} = 1 and beta_{1,0} = 2 over the cover: numerator 1 - 2z^0 = -1
    fake = graded.BettiTable({(0, 0): 1, (1, 0): 2}, 4, 1)
    monkeypatch.setattr(graded, "cover_betti_table", lambda gmod: fake)
    error = _single_command(_squares_with("hilbert"))
    assert error.startswith("internal disagreement") and "numerator" in error


def test_unit_in_the_defining_ideal_is_a_setup_error():
    report, status = execute(parse_session(SQUARES.replace("ideal I :", "ideal I : 1 + x1")))
    assert status == 1 and not report["results"]
    assert report["provenance"]["error"] == "defining ideal contains a unit"


def test_engine_error_while_setting_up_is_a_setup_error(monkeypatch):
    # the workspace certifies the ideal's standard basis and the tangent cone
    import aggraded.engine as engine

    monkeypatch.setattr(engine, "MAX_REDUCTION_STEPS", 0)
    report, status = execute(parse_session(SEMIGROUP))
    assert status == 1 and not report["results"]
    assert report["provenance"]["error"] == "reduction step limit exceeded"


def test_cli_engine_error_while_setting_up_exits_1_without_a_traceback(monkeypatch, capsys):
    import aggraded.engine as engine

    monkeypatch.setattr(engine, "MAX_REDUCTION_STEPS", 0)
    assert main(["run", str(SESSIONS / "semigroup.session")]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: reduction step limit exceeded"]
    assert captured.out == ""


def test_oracle_window_becomes_an_error_entry():
    text = _squares_with("equigen").replace("option max_homdeg 8", "option truncation 3")
    assert _single_command(text).startswith("oracle window violated")


def test_hk_on_a_module_that_is_not_pure_becomes_an_error_entry():
    text = SEMIGROUP.replace("analyze ring : tangentcone, hilbert, invariants\n", "")
    text = text.replace("analyze M : purity, betti, hilbert, fstar, equigen", "analyze M : hk")
    assert _single_command(text).endswith("does not have a pure resolution")
