"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single pass line with the measured values; runtime
bounds are asserted where stated.  Run with ``pytest -v tests/test_acceptance.py``.
"""

import time
from fractions import Fraction
from math import comb

import pytest

from aggraded import oracle
from aggraded.graded import hilbert_series, numeric_invariants, ring_as_module
from aggraded.herzog_kuhl import cmd_equivalence_report, hk_coefficients
from aggraded.modules import (LocalModule, equigenerated_check,
                              local_minimal_resolution, submodule_initial)
from aggraded.poly import FreeLayout, PolyRing, Vector
from aggraded.purity import (NOT_PURE, PURE, fiber_product, initial_complex,
                             koszul_fibre_check, purity_verdict,
                             syzygy_filtration_check, verify_initial_complex)
from aggraded.randomized import run_agreement_suite
from aggraded.rings import LocalRing, ideals_equal

P = 32003


def _clock(bound):
    start = time.monotonic()

    def stop():
        elapsed = time.monotonic() - start
        assert elapsed < bound, f"runtime {elapsed:.2f}s exceeds {bound}s"
        return elapsed

    return stop


def test_criterion_01_tangent_cone(semigroup_ring):
    stop = _clock(1.0)
    cone = semigroup_ring.tangent_cone()
    expected = [semigroup_ring.cover.from_string(s) for s in ("X*Z", "Y*Z", "Z^2", "Y^4")]
    assert ideals_equal(cone, expected)
    t = stop()
    print(f"criterion 1 PASS: in(I) = <xz, yz, z^2, y^4> by mutual normal forms ({t:.2f}s)")


def test_criterion_02_initial_submodule_structure(semigroup_ring):
    stop = _clock(1.0)
    mod = LocalModule(semigroup_ring, FreeLayout(1), [semigroup_ring.cover.from_string("X")])
    data = submodule_initial(mod)
    assert data.generator_degrees == (1, 3)
    assert data.input_is_standard_basis is False
    fm = oracle.FreeModel(semigroup_ring, 1, 12)
    _, mus = oracle.submodule_layer_data(fm, mod.gens, 4)
    assert {j: c for j, c in mus.items() if c} == {1: 1, 3: 1}
    t = stop()
    print(f"criterion 2 PASS: degrees {{1,3}}, standard-basis flag false, oracle agrees ({t:.2f}s)")


def test_criterion_03_purity_negative_semigroup(semigroup_module):
    stop = _clock(5.0)
    res = local_minimal_resolution(semigroup_module, 8)
    assert res.finite and res.pdim == 1 and res.ranks == [1, 1]
    initial_complex(semigroup_module, res)  # checks the complex property on build
    assert res.delta == [0, 1]
    vr = verify_initial_complex(semigroup_module, 8)
    assert vr.homology_witness is not None and vr.homology_witness[0] == 1
    assert vr.coker_matches is False
    pv = purity_verdict(semigroup_module, 6)
    assert pv.verdict == NOT_PURE
    assert pv.route_a.witness == (1, (1, 3))
    assert pv.route_b.purity_conclusion == NOT_PURE
    t = stop()
    print(f"criterion 3 PASS: NOT PURE via both routes, homology witness at 1 ({t:.2f}s)")


def test_criterion_04_purity_positive_squares(squares_module):
    stop = _clock(10.0)
    pv = purity_verdict(squares_module, 8)
    assert pv.verdict == PURE
    assert pv.delta == (0, 2, 4, 6)
    assert pv.betti_transfer == {0: (1, 1), 1: (3, 3), 2: (3, 3), 3: (1, 1)}
    rep = cmd_equivalence_report(squares_module, 8)
    assert rep.hk.b == (Fraction(3), Fraction(3), Fraction(1))
    assert rep.condition_cmd_module and rep.condition_betti and rep.condition_cmd_graded
    assert rep.multiplicity_sides == (8, Fraction(8))
    t = stop()
    print(f"criterion 4 PASS: PURE (0,2,4,6), beta transfer exact, e(M)=8 both ways ({t:.2f}s)")


@pytest.fixture(scope="module")
def fibre_module():
    r1 = LocalRing(PolyRing(["x1", "x2", "x3"], P), [])
    r2 = LocalRing(PolyRing(["y1", "y2", "y3"], P), [])
    ring = fiber_product(r1, r2)
    gens = [ring.cover.from_string(s) for s in ("x1^2", "x2^2", "x3^2", "y1", "y2", "y3")]
    return LocalModule(ring, FreeLayout(1), gens)


def test_criterion_05_fibre_product_negative(fibre_module):
    stop = _clock(60.0)
    rep = koszul_fibre_check(fibre_module, 3)
    assert not rep.omega2_linear_within_cutoff
    assert rep.not_pure_certificate
    pv = purity_verdict(fibre_module, 3)
    assert pv.verdict == NOT_PURE
    t = stop()
    print(f"criterion 5 PASS: omega_2 non-linear at cutoff 3, purity agrees NOT PURE ({t:.2f}s)")


def test_criterion_06_hilbert_invariants(semigroup_ring):
    A = ring_as_module(semigroup_ring.graded_cover)
    hs = hilbert_series(A)
    assert hs.numerator == (1, 2, 0, 1) and hs.offset == 0
    assert hs.dim == 1 and hs.multiplicity == 4
    inv = numeric_invariants(A, cutoff=6)
    assert (inv.dim, inv.depth, inv.cmd, inv.multiplicity) == (1, 0, 1, 4)
    print("criterion 6 PASS: H_A=(1+2z+z^3)/(1-z), dim 1, e 4, depth 0, cmd 1")


def test_criterion_07_hk_binomial_identity():
    for p in range(1, 9):
        hk = hk_coefficients(tuple(range(p + 1)))
        assert list(hk.b) == [comb(p, i) for i in range(1, p + 1)]
    print("criterion 7 PASS: hk_coefficients(0..p) = C(p,i) exactly for p <= 8")


def test_criterion_08_randomized_equigeneration_suite():
    stats = run_agreement_suite(100)
    assert stats.checked >= 100
    print(
        f"criterion 8 PASS: {stats.checked} randomized cases, both routes and the "
        f"oracle agree, zero discrepancies ({stats.skipped_window} window skips)"
    )


def test_criterion_09_composition_invariant(semigroup_module, squares_module, fibre_module, plane):
    mods = [
        semigroup_module,
        squares_module,
        fibre_module,
        LocalModule(plane, FreeLayout(1), [plane.cover.from_string("x"), plane.cover.from_string("y")]),
    ]
    checked = 0
    for mod in mods:
        res = local_minimal_resolution(mod, 4 if mod is not fibre_module else 3)
        mats = initial_complex(mod, res)  # checks the complex property on build
        A = mod.ring.graded_cover
        for a, b in zip(mats, mats[1:]):
            assert a.compose(b).is_zero_mod(A.nf_vector)
            checked += 1
    print(f"criterion 9 PASS: initial matrices compose to zero symbolically ({checked} pairs)")


def test_criterion_10_route_agreement(semigroup_module, squares_module, fibre_module, plane):
    cover = plane.cover
    mods = [
        semigroup_module,
        squares_module,
        fibre_module,
        LocalModule(plane, FreeLayout(1), [cover.from_string("x"), cover.from_string("y")]),
        LocalModule(plane, FreeLayout(1), [cover.from_string("x^2"), cover.from_string("x*y")]),
        LocalModule(plane, FreeLayout(2), [Vector.from_polys([cover.from_string("x"), cover.from_string("y")])]),
    ]
    agreements = 0
    for mod in mods:
        cutoff = 3 if mod is fibre_module else 4
        pv = purity_verdict(mod, cutoff)  # internal BridgeError would fail the build
        if pv.conclusive:
            assert (pv.verdict == PURE) == (pv.route_b.purity_conclusion == PURE)
            agreements += 1
    assert agreements >= 4
    print(f"criterion 10 PASS: routes agree on all conclusive inputs ({agreements} conclusive)")


def test_criterion_11_oracle_stability(semigroup_ring, semigroup_module, plane):
    reports = [equigenerated_check(semigroup_module, truncation=t) for t in (12, 13)]
    assert all(
        (r.verdict, r.generator_degrees, r.intersection_condition, r.mu_condition)
        == (reports[0].verdict, reports[0].generator_degrees,
            reports[0].intersection_condition, reports[0].mu_condition)
        for r in reports
    )
    f1 = syzygy_filtration_check(semigroup_module, 1, range(1, 5), truncation=12)
    f2 = syzygy_filtration_check(semigroup_module, 1, range(1, 5), truncation=13)
    assert f1 == f2
    print("criterion 11 PASS: oracle verdicts identical at t and t+1")
