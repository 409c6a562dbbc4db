"""Session files: a line-oriented declarative front end.

Grammar (``#`` comments allowed)::

    char 32003
    vars X Y Z
    flavor local                      # or: graded
    ideal I : X*Z - Y^3, Y*Z - X^4, Z^2 - X^3*Y^2
    free F : rank 1
    submodule N in F : [X]
    module M = F / N                  # or: module M = F / 0
    option truncation 12
    option max_homdeg 8
    option regbound 10
    analyze M : purity, betti, hilbert, fstar, hk, equigen
    analyze ring : hilbert, invariants, tangentcone

``char``, ``vars``, ``flavor`` and ``ideal`` each appear at most once.
``option regbound`` is only echoed into the report's ``options`` and
``provenance``; no command reads it.  An exponent written in an ``ideal`` or
``submodule`` line is at most ``MAX_EXPONENT``.  Their polynomials are parsed
when the session runs, those of every declared submodule whether a
``module`` line uses it or not, and a malformed one, or a column whose
width is not the free rank, is a ``SessionError`` naming its line.

Each command has one record in ``COMMANDS``.  ``betti``, ``hilbert`` and
``invariants`` take the ``ring`` target or a module, ``tangentcone`` only
``ring``, and ``purity``, ``fstar``, ``hk``, ``equigen`` and ``koszulfp``
only a module.  ``fstar``, ``hk``, ``equigen``, ``koszulfp`` and
``tangentcone`` need the local flavor.  A wrong target is a parse error; a
``flavor`` line may follow the ``analyze`` line, so a wrong flavor gives an
``error`` entry when the session runs.

Reports are deterministic JSON documents; identical sessions and options
produce byte-identical output.  Exit status: 0 all conclusive, 2 some
result inconclusive at its cutoff, 1 error.  A command that fails with one
of the package's errors gets an ``error`` entry in place of its result; an
engine-vs-oracle or route-vs-route disagreement, a broken internal invariant
or a differential that is not a complex is labelled an internal
disagreement, never a verdict.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable

from . import __version__
from .complexes import NotAComplexError
from .field import MAX_CHARACTERISTIC, is_prime
from .engine import EngineError
from .graded import (GradedModule, betti_analysis, hilbert_series,
                     minimal_graded_resolution, numeric_invariants, ring_as_module)
from .herzog_kuhl import PreconditionError, cmd_equivalence_report, ring_local_invariants
from .modules import (BridgeError, LocalModule, SubmoduleNotInMaximalIdeal, assoc_graded_module,
                      equigenerated_check, local_minimal_resolution)
from .oracle import ModelSizeError, OracleWindowError
from .poly import NAME, FreeLayout, PolyRing, Vector
from .purity import (INCONCLUSIVE, koszul_fibre_check, purity_verdict, route_a_verdict,
                     verify_initial_complex)
from .rings import GradedRing, LocalRing, ZeroInQuotientError

DEFAULT_OPTIONS = {"truncation": 12, "max_homdeg": 8, "regbound": 10}


class SessionError(ValueError):
    """A session that cannot run.  ``line_no`` is the line at fault, or None
    when no line is: a command-line override, or a line that is missing."""

    def __init__(self, line_no, message):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


def _check_characteristic_bound(line_no, p, name="characteristic"):
    if p >= MAX_CHARACTERISTIC:
        raise SessionError(line_no, f"{name} {p} is too large: the prime field needs p < 2^31")


# smallest accepted value of each bounded option: the oracle needs at least
# one degree, and a resolution at least zero homological steps
OPTION_MINIMUM = {"truncation": 1, "max_homdeg": 0}


def _check_option(line_no, key, value, name=None):
    low = OPTION_MINIMUM.get(key)
    if low is not None and value < low:
        name = name or f"option {key}"
        raise SessionError(line_no, f"{name} must be at least {low}, got {value}")


@dataclass
class Session:
    characteristic: int = 32003
    variables: tuple = ()
    flavor: str = "local"
    ideal_strings: tuple = ()
    ideal_line: int = None
    frees: dict = field(default_factory=dict)        # name -> rank
    submodules: dict = field(default_factory=dict)   # name -> (free, [column strings], line)
    modules: dict = field(default_factory=dict)      # name -> (free, submodule or None)
    commands: list = field(default_factory=list)     # (target, command)
    options: dict = field(default_factory=lambda: dict(DEFAULT_OPTIONS))

    def describe(self):
        return {
            "characteristic": self.characteristic,
            "variables": list(self.variables),
            "flavor": self.flavor,
            "ideal": list(self.ideal_strings),
            "frees": {k: v for k, v in sorted(self.frees.items())},
            "submodules": {k: {"free": v[0], "columns": v[1]} for k, v in sorted(self.submodules.items())},
            "modules": {k: {"free": v[0], "submodule": v[1]} for k, v in sorted(self.modules.items())},
            "commands": [{"target": t, "command": c} for t, c in self.commands],
        }


def _split_columns(text, line_no):
    """Top-level comma split of ``[a, b], [c]`` style column lists."""
    cols = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "[":
            depth += 1
            if depth == 1:
                cur = ""
                continue
        elif ch == "]":
            depth -= 1
            if depth == 0:
                cols.append(cur)
                cur = ""
                continue
            if depth < 0:
                raise SessionError(line_no, "unbalanced ']'")
        if depth >= 1:
            cur += ch
        elif ch not in ", \t":
            raise SessionError(line_no, f"unexpected {ch!r} outside '[...]'")
    if depth != 0:
        raise SessionError(line_no, "unbalanced '['")
    return cols


def _check_new_name(ses, line_no, name):
    if name in ses.frees or name in ses.submodules or name in ses.modules:
        raise SessionError(line_no, f"{name!r} is already declared")


def _check_width(line_no, colspec, rank):
    width = len(colspec.split(","))
    if width != rank:
        raise SessionError(line_no, f"column {colspec!r} has {width} entries, free rank is {rank}")


# the largest exponent an ideal or submodule line may write.  A two-variable
# session with exponents of 10,000 runs every command in seconds, and its
# Betti table has about that many degree rows; without the bound an exponent
# of 10^20 reaches BettiTable.render, which loops over every degree row
MAX_EXPONENT = 10_000
_EXPONENT = re.compile(r"\^\s*(\d+)")


def _check_exponents(line_no, text):
    for m in _EXPONENT.finditer(text):
        digits = m.group(1).lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            shown = digits if len(digits) <= 20 else digits[:20] + "..."
            raise SessionError(
                line_no, f"exponent {shown} is too large: exponents are at most {MAX_EXPONENT}")


def parse_session(text: str) -> Session:
    ses = Session()
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("char", "vars", "flavor", "ideal"):    # a second would replace the first
            if head in seen:
                raise SessionError(line_no, f"a second {head} line: a session has at most one")
            seen.add(head)
        if head == "char":
            try:
                p = int(rest)
            except ValueError:
                raise SessionError(line_no, f"bad characteristic {rest!r}")
            if not is_prime(p):
                raise SessionError(line_no, f"characteristic {p} is not prime")
            _check_characteristic_bound(line_no, p)
            ses.characteristic = p
        elif head == "vars":
            names = rest.split()
            if not names:
                raise SessionError(line_no, "vars line needs at least one name")
            for k, name in enumerate(names):
                if not NAME.fullmatch(name):
                    raise SessionError(line_no, f"bad variable name {name!r}")
                if name in names[:k]:
                    raise SessionError(line_no, f"variable {name!r} is declared twice")
            ses.variables = tuple(names)
        elif head == "flavor":
            if rest not in ("local", "graded"):
                raise SessionError(line_no, f"flavor must be local or graded, got {rest!r}")
            ses.flavor = rest
        elif head == "ideal":
            name, colon, body = rest.partition(":")
            body = body.strip()
            if not name.strip():
                raise SessionError(line_no, "ideal needs a name")
            if not colon:
                raise SessionError(line_no, "expected: ideal NAME : f, g, ...")
            _check_exponents(line_no, body)
            ses.ideal_strings = tuple(s.strip() for s in body.split(",") if s.strip()) if body else ()
            ses.ideal_line = line_no
        elif head == "free":
            name, _, body = rest.partition(":")
            name = name.strip()
            body = body.strip()
            if not name or not body.startswith("rank"):
                raise SessionError(line_no, "expected: free NAME : rank R")
            _check_new_name(ses, line_no, name)
            try:
                rank = int(body[len("rank"):].strip())
            except ValueError:
                raise SessionError(line_no, "bad rank")
            if rank < 0:
                raise SessionError(line_no, "rank must be nonnegative")
            ses.frees[name] = rank
        elif head == "submodule":
            decl, _, body = rest.partition(":")
            parts = decl.split()
            if len(parts) != 3 or parts[1] != "in":
                raise SessionError(line_no, "expected: submodule NAME in FREE : [..], [..]")
            name, free = parts[0], parts[2]
            _check_new_name(ses, line_no, name)
            if free not in ses.frees:
                raise SessionError(line_no, f"unknown free module {free!r}")
            _check_exponents(line_no, body)
            cols = _split_columns(body.strip(), line_no) if body.strip() else []
            ses.submodules[name] = (free, cols, line_no)
        elif head == "module":
            name, _, body = rest.partition("=")
            name = name.strip()
            free, _, sub = body.partition("/")
            free, sub = free.strip(), sub.strip()
            if not name or not free or not sub:
                raise SessionError(line_no, "expected: module NAME = FREE / SUBMODULE")
            _check_new_name(ses, line_no, name)
            if free not in ses.frees:
                raise SessionError(line_no, f"unknown free module {free!r}")
            if sub != "0":
                if sub not in ses.submodules:
                    raise SessionError(line_no, f"unknown submodule {sub!r}")
                if ses.submodules[sub][0] != free:
                    raise SessionError(line_no, f"submodule {sub!r} lives in a different free module")
                for colspec in ses.submodules[sub][1]:
                    _check_width(line_no, colspec, ses.frees[free])
            ses.modules[name] = (free, None if sub == "0" else sub)
        elif head == "option":
            key, _, val = rest.partition(" ")
            key = key.strip()
            if key not in DEFAULT_OPTIONS:
                raise SessionError(line_no, f"unknown option {key!r}")
            try:
                ses.options[key] = int(val.strip())
            except ValueError:
                raise SessionError(line_no, f"bad value for option {key}")
            _check_option(line_no, key, ses.options[key])
        elif head == "analyze":
            target, _, body = rest.partition(":")
            target = target.strip()
            cmds = [c.strip() for c in body.split(",") if c.strip()]
            if not cmds:
                raise SessionError(line_no, "analyze needs at least one command")
            for c in cmds:
                if c not in COMMANDS:
                    raise SessionError(line_no, f"unknown command {c!r}")
                if target == "ring" and not COMMANDS[c].on_ring:
                    raise SessionError(line_no, f"command {c!r} needs a module target")
                if target != "ring" and not COMMANDS[c].on_module:
                    raise SessionError(line_no, f"command {c!r} needs the ring target")
                ses.commands.append((target, c))
            if target != "ring" and target not in ses.modules:
                raise SessionError(line_no, f"unknown module {target!r}")
        else:
            raise SessionError(line_no, f"unknown directive {head!r}")
    if not ses.variables:
        raise SessionError(None, "session has no vars line")
    return ses


# ------------------------------------------------------------- execution


class _Workspace:
    """Resolved presentations for one session."""

    def __init__(self, ses: Session, char_override=None, truncation=None, max_homdeg=None):
        self.session = ses
        self.options = dict(ses.options)
        # the overrides come from the command line: errors name its flags
        for key, value in (("truncation", truncation), ("max_homdeg", max_homdeg)):
            if value is not None:
                _check_option(None, key, value, "--" + key.replace("_", "-"))
                self.options[key] = value
        self.cutoff = self.options["max_homdeg"]
        p = ses.characteristic
        if char_override is not None:
            _check_characteristic_bound(None, char_override, "--char")
            p = char_override
        self.characteristic = p
        self.cover = PolyRing(ses.variables, p)
        ideal = [self._poly(s, ses.ideal_line) for s in ses.ideal_strings]
        self.local = ses.flavor == "local"
        ring_cls, module_cls = ((LocalRing, LocalModule) if self.local
                                else (GradedRing, GradedModule))
        self.ring = ring_cls(self.cover, ideal)
        self.graded_ring = self.ring.graded_cover if self.local else self.ring
        # every declared submodule, used by a module line or not
        columns = {sub: self._columns(colspecs, ses.frees[free], line_no)
                   for sub, (free, colspecs, line_no) in ses.submodules.items()}
        self.modules = {}
        for name, (free, sub) in ses.modules.items():
            cols = [] if sub is None else columns[sub]
            self.modules[name] = module_cls(self.ring, FreeLayout(ses.frees[free]), cols)

    def _columns(self, colspecs, rank, line_no):
        """The columns of a ``submodule`` line, each of ``rank`` entries; a
        wrong width or a malformed entry is a ``SessionError`` at the line."""
        cols = []
        for colspec in colspecs:
            _check_width(line_no, colspec, rank)
            entries = [e.strip() or "0" for e in colspec.split(",")]
            cols.append(Vector.from_polys([self._poly(e, line_no) for e in entries]))
        return cols

    def _poly(self, text, line_no):
        """``text`` as a polynomial of the cover; a malformed one is a
        ``SessionError`` at its ``ideal`` or ``submodule`` line."""
        try:
            return self.cover.from_string(text)
        except ValueError as exc:
            raise SessionError(line_no, str(exc)) from None

    def graded_module(self, target):
        """The graded module a command reads: the ring itself, a graded
        module, or the associated graded module of a local one."""
        if target == "ring":
            return ring_as_module(self.graded_ring)
        mod = self.modules[target]
        return assoc_graded_module(mod) if self.local else mod


def _hilbert(ws, target):
    hs = hilbert_series(ws.graded_module(target))
    return {"series": hs.render(), "numerator": list(hs.numerator),
            "dim": hs.dim, "multiplicity": hs.multiplicity}, True


def _betti(ws, target):
    table = minimal_graded_resolution(ws.graded_module(target), ws.cutoff)
    return {
        "entries": [[i, j, c] for (i, j), c in sorted(table.entries.items())],
        "complete": table.complete,
        "pdim": table.pdim,
        "cutoff": table.cutoff,
        "rendered": table.render(),
    }, table.complete


def _pdim_status(pdim, cutoff):
    """A projective dimension read within the cutoff, as a payload."""
    return ["at_least", cutoff + 1] if pdim is None else ["finite", pdim]


def _invariants(ws, target):
    cutoff = ws.cutoff
    inv = numeric_invariants(ws.graded_module(target), cutoff)
    payload = {"dim": inv.dim, "depth": inv.depth, "codim": inv.codim,
               "cmd": inv.cmd, "multiplicity": inv.multiplicity}
    if target != "ring" and ws.local:
        res = local_minimal_resolution(ws.modules[target], cutoff)
        payload["pdim_status_graded"] = _pdim_status(inv.pdim, cutoff)
        payload["pdim_status_local"] = _pdim_status(res.pdim, cutoff)
        return payload, inv.pdim is not None and res.finite
    payload["pdim_status"] = _pdim_status(inv.pdim, cutoff)
    if target == "ring" and ws.local:
        dim_r, depth_r, cmd_r, e_r = ring_local_invariants(ws.ring)
        payload["local_ring"] = {"dim": dim_r, "depth": depth_r, "cmd": cmd_r, "multiplicity": e_r}
    return payload, True


def _route_b(vr):
    """The payload of a route B verdict, shared by ``purity`` and ``fstar``."""
    wb = None
    if vr.homology_witness:
        wb = {"position": vr.homology_witness[0], "class": str(vr.homology_witness[1])}
    return {"conclusion": vr.purity_conclusion, "acyclic_up_to": vr.acyclic_up_to,
            "coker_matches": vr.coker_matches, "is_minimal": vr.is_minimal,
            "homology_witness": wb}


def _purity(ws, target):
    if not ws.local:
        table = minimal_graded_resolution(ws.graded_module(target), ws.cutoff)
        rep = betti_analysis(table)
        verdict = route_a_verdict(rep)
        return {"verdict": verdict, "is_pure": rep.is_pure, "type": list(rep.delta),
                "witness": list(rep.witness) if rep.witness else None}, verdict != INCONCLUSIVE
    pv = purity_verdict(ws.modules[target], ws.cutoff)
    wa = None
    if pv.route_a.witness:
        wa = {"position": pv.route_a.witness[0], "degrees": list(pv.route_a.witness[1])}
    return {
        "verdict": pv.verdict,
        "route_a": {
            "is_pure": pv.route_a.is_pure,
            "complete": pv.route_a.complete,
            "type": list(pv.route_a.delta),
            "witness": wa,
        },
        "route_b": _route_b(pv.route_b),
        "betti_transfer": {str(k): list(v) for k, v in sorted(pv.betti_transfer.items())},
        "delta": list(pv.delta),
        "noteworthy_acyclic_without_coker": pv.route_b.acyclic_without_coker_match,
    }, pv.conclusive


def _fstar(ws, target):
    vr = verify_initial_complex(ws.modules[target], ws.cutoff)
    res = vr.resolution
    return {
        **_route_b(vr),
        "is_complex": True,           # initial_complex raises otherwise
        "delta": res.delta,
        "column_orders": [res.column_orders(i) for i in range(1, len(res.mats) + 1)],
    }, vr.purity_conclusion != INCONCLUSIVE


def _hk(ws, target):
    rep = cmd_equivalence_report(ws.modules[target], ws.cutoff)
    return {
        "conditions": {
            "cmd_module_eq_cmd_ring": rep.condition_cmd_module,
            "betti_eq_hk": rep.condition_betti,
            "cmd_graded_eq_cmd_graded_ring": rep.condition_cmd_graded,
        },
        "cmd": {"module": rep.cmd_module, "ring": rep.cmd_ring,
                "graded_module": rep.cmd_graded_module, "graded_ring": rep.cmd_graded_ring},
        "betti": list(rep.betti),
        "hk_coefficients": [str(b) for b in rep.hk.b],
        "multiplicity_identity": rep.multiplicity_identity_holds,
        "multiplicity_sides": [str(s) for s in rep.multiplicity_sides],
    }, True


def _equigen(ws, target):
    rep = equigenerated_check(ws.modules[target], ws.options["truncation"])
    return {
        "verdict": rep.verdict,
        "order": rep.order,
        "generator_degrees": list(rep.generator_degrees),
        "intersection_condition": rep.intersection_condition,
        "mu_condition": rep.mu_condition,
        "mu": {"submodule": rep.mu_n, "initial_submodule": rep.mu_nstar},
    }, True


def _koszulfp(ws, target):
    rep = koszul_fibre_check(ws.modules[target], ws.cutoff)
    return {
        "omega2_equigenerated": rep.omega2_equigenerated,
        "omega2_degrees": list(rep.omega2_degrees),
        "omega2_linear_within_cutoff": rep.omega2_linear_within_cutoff,
        "column_orders_ok": {str(k): v for k, v in sorted(rep.column_orders_ok.items())},
        "not_pure_certificate": rep.not_pure_certificate,
    }, True


def _tangentcone(ws, target):
    return {"generators": [str(g) for g in ws.ring.tangent_cone()]}, True


def _purity_summary(head, r):
    # a local payload carries both routes and delta, whose delta_0 = 0
    # even for M = 0; both flavors print the Betti table's pure type
    v = r["verdict"]
    if v == "pure":
        degrees = r["route_a"]["type"] if "route_a" in r else r["type"]
        return f"{head} -> PURE of type {tuple(degrees)}"
    if v != "not-pure":
        return f"{head} -> INCONCLUSIVE at cutoff"
    if "route_a" not in r:
        i, degrees = r["witness"]
        return f"{head} -> NOT PURE -- witness: beta_{i} degrees {set(degrees)}"
    bits = []
    if r["route_a"]["witness"]:
        w = r["route_a"]["witness"]
        bits.append(f"beta_{w['position']} degrees {set(w['degrees'])}")
    if r["route_b"]["homology_witness"]:
        wb = r["route_b"]["homology_witness"]
        bits.append(f"initial complex has homology at position {wb['position']}")
    if not r["route_b"]["coker_matches"]:
        bits.append("cokernel differs from the associated graded module")
    return f"{head} -> NOT PURE -- witness: " + "; ".join(bits)


@dataclass(frozen=True)
class Command:
    """What a session knows of one analyze command."""

    on_ring: bool           # takes the ``ring`` target
    on_module: bool         # takes a module target
    local_only: bool        # needs the local flavor
    run: Callable           # (workspace, target) -> (payload dict, conclusive flag)
    summary: Callable       # (head, payload) -> the human-readable line


# name -> Command(on_ring, on_module, local_only, run, summary)
COMMANDS = {
    "purity": Command(False, True, False, _purity, _purity_summary),
    "betti": Command(True, True, False, _betti, lambda head, r: f"{head} ->\n{r['rendered']}"),
    "hilbert": Command(True, True, False, _hilbert, lambda head, r: (
        f"{head} -> {r['series']}; dim {r['dim']}; e {r['multiplicity']}")),
    "invariants": Command(True, True, False, _invariants, lambda head, r: (
        f"{head} -> dim {r['dim']}, depth {r['depth']}, cmd {r['cmd']}, "
        f"codim {r['codim']}, e {r['multiplicity']}")),
    "fstar": Command(False, True, True, _fstar, lambda head, r: (
        f"{head} -> conclusion {r['conclusion']}; acyclic up to {r['acyclic_up_to']}; "
        f"coker matches: {r['coker_matches']}; twists {r['delta']}")),
    "hk": Command(False, True, True, _hk, lambda head, r: (
        f"{head} -> cmd(M)=cmd(R): {r['conditions']['cmd_module_eq_cmd_ring']}, "
        f"HK equations: {r['conditions']['betti_eq_hk']}, "
        f"e(M) identity: {r['multiplicity_identity']} "
        f"(sides {r['multiplicity_sides'][0]} = {r['multiplicity_sides'][1]})")),
    "equigen": Command(False, True, True, _equigen, lambda head, r: (
        f"{head} -> {'equigenerated' if r['verdict'] else 'NOT equigenerated'} "
        f"(s={r['order']}, degrees {r['generator_degrees']})")),
    "koszulfp": Command(False, True, True, _koszulfp, lambda head, r: (
        f"{head} -> omega2 linear: {r['omega2_linear_within_cutoff']} "
        f"(degrees {r['omega2_degrees']}); not-pure certificate: {r['not_pure_certificate']}")),
    "tangentcone": Command(True, False, True, _tangentcone, lambda head, r: (
        f"{head} -> <" + ", ".join(r["generators"]) + ">")),
}


def execute(ses: Session, char_override=None, truncation=None, max_homdeg=None):
    """Run all analyze commands; returns (report dict, exit_status)."""
    try:
        ws = _Workspace(ses, char_override, truncation, max_homdeg)
    except (SessionError, SubmoduleNotInMaximalIdeal, ValueError, EngineError) as exc:
        report = {"session": ses.describe(), "options": dict(ses.options),
                  "results": [], "provenance": {"error": str(exc)}}
        return report, 1
    results = []
    status = 0
    for target, command in ses.commands:
        entry = {"command": command, "target": target}
        spec = COMMANDS[command]
        try:
            if spec.local_only and not ws.local:
                raise PreconditionError(f"command {command!r} needs the local flavor")
            payload, conclusive = spec.run(ws, target)
            entry["result"] = payload
            entry["conclusive"] = conclusive
            if not conclusive and status == 0:
                status = 2
        except (BridgeError, NotAComplexError) as exc:
            entry["error"] = f"internal disagreement (a bug, not a verdict): {exc}"
            status = 1
        except (PreconditionError, OracleWindowError, ModelSizeError, ZeroInQuotientError,
                EngineError) as exc:
            entry["error"] = str(exc)
            status = 1
        results.append(entry)
    report = {
        "session": ses.describe(),
        "options": {**ws.options, "characteristic": ws.characteristic},
        "results": results,
        "provenance": {
            "characteristic": ws.characteristic,
            "truncation": ws.options["truncation"],
            "max_homdeg": ws.options["max_homdeg"],
            "regbound": ws.options["regbound"],
            "package": f"aggraded {__version__}",
        },
    }
    return report, status


def render_report(report) -> str:
    """Deterministic machine-readable form (sorted keys, no whitespace drift)."""
    return json.dumps(report, sort_keys=True, indent=1)


def summarize(report) -> str:
    """Human-readable per-command lines."""
    lines = []
    for entry in report["results"]:
        head = f"{entry['target']} : {entry['command']}"
        if "error" in entry:
            lines.append(f"{head} -> ERROR: {entry['error']}")
        else:
            lines.append(COMMANDS[entry["command"]].summary(head, entry["result"]))
    return "\n".join(lines)
