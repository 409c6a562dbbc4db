"""The oracle's stability and count guards fire, each pinned by its message.

Each test injects the fault a guard exists for by monkeypatching what feeds
it, and the error-order sessions pin which of two violated bounds a check
reports.
"""

import pytest

from aggraded import oracle
from aggraded.modules import BridgeError, LocalModule, equigenerated_check
from aggraded.poly import FreeLayout
from aggraded.purity import syzygy_filtration_check
from aggraded.session import execute, parse_session

PLANE_SESSION = """vars x y
free F : rank 1
submodule N in F : [x], [y]
module M = F / N
option truncation 8
analyze M : equigen
"""


def _maximal_ideal(plane):
    return LocalModule(plane, FreeLayout(1), [plane.cover.from_string(v) for v in ("x", "y")])


def _empty_at(monkeypatch, t):
    """Make ``filtration_intersection`` answer the zero space on the t-model."""
    real = oracle.filtration_intersection

    def answer(model, gens, i):
        if model.t == t:
            return oracle.Subspace(model.n, model.p, {})
        return real(model, gens, i)

    monkeypatch.setattr(oracle, "filtration_intersection", answer)


def test_equigeneration_guard_unstable_answer(plane, monkeypatch):
    _empty_at(monkeypatch, 9)
    with pytest.raises(oracle.OracleWindowError, match=r"^oracle answers unstable under t -> t\+1$"):
        equigenerated_check(_maximal_ideal(plane), truncation=8)


def test_equigeneration_guard_unstable_answer_in_a_session(monkeypatch):
    _empty_at(monkeypatch, 9)
    report, status = execute(parse_session(PLANE_SESSION))
    assert status == 1
    assert report["results"] == [{"command": "equigen", "target": "M",
                                  "error": "oracle answers unstable under t -> t+1"}]


def test_equigeneration_guard_generator_count(plane, monkeypatch):
    real = oracle.submodule_layer_data

    def one_more(model, gens, jmax):
        dims, mus = real(model, gens, jmax)
        return dims, {**mus, 0: mus[0] + 1}

    monkeypatch.setattr(oracle, "submodule_layer_data", one_more)
    with pytest.raises(BridgeError, match="^oracle counts 3 minimal initial generators, engine 2$"):
        equigenerated_check(_maximal_ideal(plane), truncation=8)


def test_syzygy_filtration_guard_unstable_answer(semigroup_module, monkeypatch):
    _empty_at(monkeypatch, 13)
    with pytest.raises(oracle.OracleWindowError,
                       match=r"^filtration answer unstable under t -> t\+1$"):
        syzygy_filtration_check(semigroup_module, 1, range(1, 5), truncation=12)


@pytest.mark.parametrize("generator, truncation, error", [
    # window and size bound both violated: the window error comes first
    ("x1^12", 14, "oracle window violated: need t >= 28, have 14"),
    # the 13-model fits (18564 coordinates), its 14-model does not
    ("x1", 13, "model needs 27132 coordinates (bound 20000)"),
    # neither fits: the t-model's size error comes first
    ("x1", 14, "model needs 27132 coordinates (bound 20000)"),
])
def test_equigeneration_error_order(generator, truncation, error):
    text = (f"vars x1 x2 x3 x4 x5 x6\nideal I :\nfree F : rank 1\n"
            f"submodule N in F : [{generator}]\nmodule M = F / N\n"
            f"option truncation {truncation}\nanalyze M : equigen\n")
    report, status = execute(parse_session(text))
    assert status == 1
    assert report["results"] == [{"command": "equigen", "target": "M", "error": error}]
