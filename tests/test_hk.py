from fractions import Fraction
from math import comb

import pytest

from aggraded.herzog_kuhl import (CMPurityReport, FinitePdimReport, HKReport,
                                  PreconditionError, cm_purity_report,
                                  cmd_equivalence_report, finite_pdim_consequences,
                                  hk_coefficients, ring_local_invariants)
from aggraded.modules import LocalModule
from aggraded.poly import FreeLayout, PolyRing
from aggraded.rings import LocalRing

P = 32003


def _mod(ring, *gens, rank=1):
    return LocalModule(ring, FreeLayout(rank), [ring.cover.from_string(g) for g in gens])


def test_hk_coefficients_type_0246():
    hk = hk_coefficients((0, 2, 4, 6))
    assert hk.b == (Fraction(3), Fraction(3), Fraction(1))


def test_hk_coefficients_binomials_up_to_8():
    for p in range(1, 9):
        hk = hk_coefficients(tuple(range(p + 1)))
        assert list(hk.b) == [comb(p, i) for i in range(1, p + 1)]


def test_hk_coefficients_edge_and_errors():
    assert hk_coefficients((0, 5)).b == (Fraction(1),)
    assert hk_coefficients((0,)).b == ()          # p = 0: a free module
    with pytest.raises(ValueError):
        hk_coefficients((0, 2, 2))
    with pytest.raises(ValueError):
        hk_coefficients((1, 2))


def test_cmd_equivalence_positive(squares_module):
    rep = cmd_equivalence_report(squares_module, 8)
    assert rep.condition_cmd_module and rep.condition_betti and rep.condition_cmd_graded
    assert rep.multiplicity_identity_holds
    assert rep.multiplicity_sides == (8, Fraction(8))
    assert rep.hk.b == (Fraction(3), Fraction(3), Fraction(1))


def test_cmd_equivalence_all_conditions_fail_together(plane):
    # S/(x^2, xy): pure of type (0,2,3), beta=(1,2,1); HK wants b=(3,2)
    m = _mod(plane, "x^2", "x*y")
    rep = cmd_equivalence_report(m, 8)
    assert rep.betti == (1, 2, 1)
    assert rep.hk.delta == (0, 2, 3)
    assert rep.hk.b == (Fraction(3), Fraction(2))
    assert not rep.condition_betti
    assert rep.cmd_module == 1 and rep.cmd_ring == 0
    assert not rep.condition_cmd_module and not rep.condition_cmd_graded


def test_cmd_equivalence_requires_purity(semigroup_module):
    with pytest.raises(PreconditionError, match="does not have a pure resolution"):
        cmd_equivalence_report(semigroup_module, 6)


NOT_PURE = "associated graded module does not have a pure resolution"
NOT_FINITE = "pdim not finite within cutoff 3"


@pytest.mark.parametrize("name, cmd, cm_purity, finite_pdim", [
    ("free", "free module: the degree type is empty", None, None),
    ("semigroup R/(X)", NOT_PURE, None, None),
    ("semigroup residue field", NOT_PURE, NOT_FINITE, NOT_FINITE),
    ("node modulo (x)", "purity inconclusive at this cutoff", NOT_FINITE, NOT_FINITE),
])
def test_theorem_preconditions_fail_in_their_order(plane, semigroup_ring, name, cmd, cm_purity,
                                                   finite_pdim):
    """Each theorem's first unmet precondition, by message, at cutoff 3;
    None: the theorem returns a report."""
    cover = PolyRing(["x", "y"], P)
    node = LocalRing(cover, [cover.from_string("x*y")])
    mod = {
        "free": lambda: LocalModule(plane, FreeLayout(1), []),
        "semigroup R/(X)": lambda: _mod(semigroup_ring, "X"),
        "semigroup residue field": lambda: _mod(semigroup_ring, "X", "Y", "Z"),
        "node modulo (x)": lambda: _mod(node, "x"),
    }[name]()
    for theorem, message, report in ((cmd_equivalence_report, cmd, HKReport),
                                     (cm_purity_report, cm_purity, CMPurityReport),
                                     (finite_pdim_consequences, finite_pdim, FinitePdimReport)):
        if message is None:
            assert isinstance(theorem(mod, 3), report)
        else:
            with pytest.raises(PreconditionError) as err:
                theorem(mod, 3)
            assert str(err.value) == message


def test_cm_purity_positive(squares_module):
    rep = cm_purity_report(squares_module, 8)
    assert rep.condition_i and rep.condition_ii and rep.condition_iii
    assert rep.detail["acyclic"] and rep.detail["hk_equations"]


def test_cm_purity_pure_but_not_cm(plane):
    m = _mod(plane, "x^2", "x*y")
    rep = cm_purity_report(m, 8)
    assert rep.condition_i is False
    assert rep.condition_ii is False
    assert rep.condition_iii is False
    assert rep.detail["pure"] == "pure" and not rep.detail["graded_module_cm"]


def test_cm_purity_semigroup_acyclicity_fails(semigroup_module):
    rep = cm_purity_report(semigroup_module, 6)
    assert rep.detail["acyclic"] is False
    assert rep.condition_ii is False


def test_cm_purity_of_free_modules(plane, semigroup_ring):
    # p = 0: no b_i, and the multiplicity identity reads e(M) = e(R) * beta_0
    free = LocalModule(plane, FreeLayout(1), [])
    rep = cm_purity_report(free, 4)
    assert (rep.condition_i, rep.condition_ii, rep.condition_iii) == (True, True, True)
    assert rep.detail == {
        "pure": "pure", "graded_module_cm": True, "graded_ring_cm": True, "module_cm": True,
        "acyclic": True, "hk_equations": True, "multiplicity_identity": True,
    }
    # rank 2 over k[[t^4, t^5, t^11]]: CM module, but the tangent cone is not CM
    free2 = LocalModule(semigroup_ring, FreeLayout(2), [])
    rep2 = cm_purity_report(free2, 4)
    assert (rep2.condition_i, rep2.condition_ii, rep2.condition_iii) == (False, False, False)
    assert rep2.detail == {
        "pure": "pure", "graded_module_cm": False, "graded_ring_cm": False, "module_cm": True,
        "acyclic": True, "hk_equations": True, "multiplicity_identity": True,
    }


def test_finite_pdim_positive(squares_module):
    rep = finite_pdim_consequences(squares_module, 8)
    assert rep.hypothesis and rep.pdim_local == 3 and rep.pdim_graded == 3
    assert rep.codim == 3 and rep.codim_le_pdim
    assert rep.module_cm and rep.ring_cm_verdict


def test_finite_pdim_unresolved_within_cutoff(semigroup_module):
    rep = finite_pdim_consequences(semigroup_module, 6)
    assert rep.hypothesis is None
    assert rep.pdim_local == 1 and rep.pdim_graded is None


def test_finite_pdim_free_module(plane):
    free = LocalModule(plane, FreeLayout(1), [])
    rep = finite_pdim_consequences(free, 4)
    assert rep.hypothesis and rep.pdim_local == 0
    assert rep.codim == 0 and rep.codim_le_pdim


def test_ring_local_invariants(semigroup_ring, plane):
    dim, depth, cmd, e = ring_local_invariants(semigroup_ring)
    assert (dim, depth, cmd, e) == (1, 1, 0, 4)   # a 1-dim domain: CM of multiplicity 4
    dim2, depth2, cmd2, e2 = ring_local_invariants(plane)
    assert (dim2, depth2, cmd2, e2) == (2, 2, 0, 1)
