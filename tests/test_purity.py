import pytest

from aggraded.engine import standard_basis
from aggraded.modules import (LocalModule, local_minimal_resolution,
                              submodule_initial)
from aggraded.orders import GREVLEX
from aggraded.poly import FreeLayout, PolyRing
from aggraded.purity import (INCONCLUSIVE, NOT_PURE, PURE, fiber_product,
                             initial_complex, koszul_fibre_check, purity_verdict,
                             syzygy_filtration_check, verify_initial_complex)
from aggraded.rings import LocalRing, ideals_equal

P = 32003


def _mod(ring, *gens, rank=1):
    cover = ring.cover
    return LocalModule(ring, FreeLayout(rank), [cover.from_string(g) for g in gens])


# ------------------------------------------------------------ build / verify


def test_build_semigroup_case(semigroup_module):
    res = local_minimal_resolution(semigroup_module, 6)
    mats = initial_complex(semigroup_module, res)
    assert res.delta == [0, 1]
    assert mats[0].columns[0].component(0) == semigroup_module.ring.cover.from_string("X")
    assert mats[0].source.twists == (1,)


def test_build_koszul_case(squares_module):
    res = local_minimal_resolution(squares_module, 6)
    mats = initial_complex(squares_module, res)
    assert res.delta == [0, 2, 4, 6]
    for built, src in zip(mats, res.mats):
        assert [c.terms for c in built.columns] == [c.terms for c in src.columns]


def test_build_free_module(plane):
    free = LocalModule(plane, FreeLayout(2), [])
    res = local_minimal_resolution(free, 6)
    mats = initial_complex(free, res)
    assert mats == [] and res.layout.rank == 2


def test_verify_semigroup_case(semigroup_module):
    vr = verify_initial_complex(semigroup_module, 6)
    assert vr.is_minimal          # the complex property: initial_complex raises otherwise
    assert vr.homology_witness is not None
    pos, cls = vr.homology_witness
    assert pos == 1
    # the witness class is the zerodivisor z (up to scalar)
    assert set(e for (_, e) in cls.terms) == {(0, 0, 1)}
    assert not vr.coker_matches       # y^3 is not in <x> inside A
    assert vr.purity_conclusion == NOT_PURE


def test_verify_koszul_case(squares_module):
    vr = verify_initial_complex(squares_module, 8)
    assert vr.homology_witness is None and vr.acyclic_up_to == 3
    # fully checked: the resolution is finite and every position was checked
    assert vr.resolution.finite and vr.acyclic_up_to == vr.resolution.pdim
    assert vr.coker_matches and vr.is_minimal
    assert vr.purity_conclusion == PURE


def test_verify_free_module(plane):
    free = LocalModule(plane, FreeLayout(1), [])
    vr = verify_initial_complex(free, 4)
    assert vr.purity_conclusion == PURE and vr.coker_matches


def test_image_of_first_differential_inside_initial_submodule(semigroup_module, squares_module):
    # epsilon after the first initial matrix vanishes: columns reduce into the initial submodule
    for mod in (semigroup_module, squares_module):
        A = mod.ring.graded_cover
        res = local_minimal_resolution(mod, 6)
        mats = initial_complex(mod, res)
        init = submodule_initial(mod)
        basis = standard_basis(init.generators, GREVLEX, mod.layout, modulus=A.ideal_sb)
        for col in mats[0].columns:
            if col:
                assert basis.contains(col)


# ------------------------------------------------------------------ verdicts


def test_purity_negative_semigroup(semigroup_module):
    pv = purity_verdict(semigroup_module, 6)
    assert pv.verdict == NOT_PURE
    assert pv.route_a.witness == (1, (1, 3))
    assert pv.route_b.purity_conclusion == NOT_PURE


def test_purity_positive_squares(squares_module):
    pv = purity_verdict(squares_module, 8)
    assert pv.verdict == PURE
    assert pv.route_a.delta == (0, 2, 4, 6)
    assert pv.betti_transfer == {0: (1, 1), 1: (3, 3), 2: (3, 3), 3: (1, 1)}


def test_purity_inconclusive_at_tiny_cutoff(plane):
    # k over k[x,y]/(xy): pure of infinite pdim; any cutoff stays inconclusive
    cover = PolyRing(["x", "y"], P)
    ring = LocalRing(cover, [cover.from_string("x*y")])
    k = _mod(ring, "x", "y")
    pv = purity_verdict(k, 4)
    assert pv.verdict == INCONCLUSIVE
    assert pv.route_a.is_pure and not pv.route_a.complete


def test_route_agreement_on_regression_modules(semigroup_ring, plane, squares_module):
    mods = [
        _mod(plane, "x", "y"),
        _mod(plane, "x^2", "x*y"),
        _mod(plane, "x^2", "y^3"),
        _mod(semigroup_ring, "X"),
        _mod(semigroup_ring, "Y"),
        squares_module,
    ]
    for mod in mods:
        pv = purity_verdict(mod, 5)  # BridgeError inside would fail the test
        assert pv.verdict in (PURE, NOT_PURE, INCONCLUSIVE)


# ------------------------------------------------------- filtration checks


def test_filtration_check_semigroup(semigroup_module):
    out = syzygy_filtration_check(semigroup_module, 1, range(1, 5), truncation=12)
    assert out[1] and out[2]
    assert not out[3]          # Y^3 lies in N | m^3 F but not in m^2 N


def test_filtration_check_maximal_ideal(plane):
    m = _mod(plane, "x", "y")
    out = syzygy_filtration_check(m, 1, range(1, 5), truncation=10)
    assert all(out.values())


def test_filtration_check_at_s_is_trivial(squares_module):
    out = syzygy_filtration_check(squares_module, 1, [2], truncation=10)
    assert out[2]


# --------------------------------------------------------- fibre products


def test_fiber_product_one_variable_each():
    r1 = LocalRing(PolyRing(["x"], P), [])
    r2 = LocalRing(PolyRing(["y"], P), [])
    r = fiber_product(r1, r2)
    assert r.cover.names == ("x", "y")
    assert ideals_equal(r.ideal, [r.cover.from_string("x*y")])
    assert ideals_equal(r.tangent_cone(), [r.cover.from_string("x*y")])


def test_fiber_product_renames_clashes():
    r1 = LocalRing(PolyRing(["x"], P), [])
    r2 = LocalRing(PolyRing(["x"], P), [])
    r = fiber_product(r1, r2)
    assert r.cover.names == ("x", "x'")


def test_fiber_product_3_plus_3(regular3):
    r2 = LocalRing(PolyRing(["y1", "y2", "y3"], P), [])
    r = fiber_product(regular3, r2)
    assert len(r.cover.names) == 6
    assert len(r.ideal) == 9
    assert all(g.is_homogeneous() and g.order() == 2 for g in r.ideal)


@pytest.fixture(scope="module")
def fibre_module(regular3):
    r2 = LocalRing(PolyRing(["y1", "y2", "y3"], P), [])
    ring = fiber_product(regular3, r2)
    return _mod(ring, "x1^2", "x2^2", "x3^2", "y1", "y2", "y3")


def test_koszul_fp_negative(fibre_module):
    rep = koszul_fibre_check(fibre_module, 3)
    assert not rep.omega2_equigenerated
    assert not rep.omega2_linear_within_cutoff
    assert rep.not_pure_certificate


def test_koszul_fp_agrees_with_purity(fibre_module):
    pv = purity_verdict(fibre_module, 3)
    assert pv.verdict == NOT_PURE


def test_koszul_fp_positive_residue_field():
    cover = PolyRing(["x", "y"], P)
    ring = LocalRing(cover, [cover.from_string("x*y")])
    k = _mod(ring, "x", "y")
    rep = koszul_fibre_check(k, 4)
    assert rep.omega2_equigenerated and rep.omega2_linear_within_cutoff
    assert not rep.not_pure_certificate
    assert all(rep.column_orders_ok.values())


def test_koszul_fp_free_module(regular3):
    r2 = LocalRing(PolyRing(["y1", "y2", "y3"], P), [])
    ring = fiber_product(regular3, r2)
    free = LocalModule(ring, FreeLayout(1), [])
    rep = koszul_fibre_check(free, 3)
    assert rep.omega2_linear_within_cutoff and not rep.not_pure_certificate


def test_fiber_product_of_quotients():
    P1 = PolyRing(["x"], P)
    P2 = PolyRing(["y"], P)
    r1 = LocalRing(P1, [P1.from_string("x^2 - x^3")])
    r2 = LocalRing(P2, [P2.from_string("y^3")])
    r = fiber_product(r1, r2)  # tangent-cone assertion runs inside
    assert ideals_equal(
        r.tangent_cone(),
        [r.cover.from_string(s) for s in ("x^2", "y^3", "x*y")],
    )
    # y^3 is a cubic relation, so the second factor is not Koszul and the
    # residue field genuinely fails the omega_2 condition
    k = _mod(r, "x", "y")
    assert not koszul_fibre_check(k, 3).omega2_equigenerated
    # with both factors Koszul the condition holds for the residue field
    r2k = LocalRing(PolyRing(["y"], P), [PolyRing(["y"], P).from_string("y^2")])
    rk = fiber_product(r1, r2k)
    kk = _mod(rk, "x", "y")
    rep = koszul_fibre_check(kk, 4)
    assert rep.omega2_equigenerated and rep.omega2_linear_within_cutoff


def test_purity_verdict_on_free_module(plane):
    free = LocalModule(plane, FreeLayout(3), [])
    pv = purity_verdict(free, 3)
    assert pv.verdict == PURE and pv.betti_transfer == {0: (3, 3)}
