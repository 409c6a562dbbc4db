import pathlib

import pytest

from aggraded import oracle
from aggraded.complexes import min_gens_with_syz
from aggraded.engine import _make_keys
from aggraded.graded import hilbert_series
from aggraded.modules import (LocalModule, SubmoduleNotInMaximalIdeal,
                              assoc_graded_module, equigenerated_check,
                              initial_matrix, local_minimal_resolution,
                              submodule_initial)
from aggraded.orders import GREVLEX
from aggraded.poly import FreeLayout, PolyRing, Vector
from aggraded.randomized import ring_pool
from aggraded.rings import (LocalRing, UnitIdealError, ZeroInQuotientError,
                            ideals_equal)
from aggraded.session import _Workspace, parse_session

P = 32003


def test_tangent_cone_examples(semigroup_ring):
    cone = semigroup_ring.tangent_cone()
    cover = semigroup_ring.cover
    expected = [cover.from_string(s) for s in ("X*Z", "Y*Z", "Z^2", "Y^4")]
    assert ideals_equal(cone, expected)

    P2 = PolyRing(["x", "y"], P)
    assert ideals_equal(LocalRing(P2, [P2.from_string("x^2 - y^3")]).tangent_cone(),
                        [P2.from_string("x^2")])
    assert ideals_equal(LocalRing(P2, [P2.from_string("x - y^2")]).tangent_cone(),
                        [P2.from_string("x")])


def _local_rings():
    """(name, ring) of each bundled local session and of ``randomized.ring_pool``."""
    sessions = pathlib.Path(__file__).resolve().parent.parent / "sessions"
    for path in sorted(sessions.glob("*.session")):
        ring = _Workspace(parse_session(path.read_text())).ring
        if isinstance(ring, LocalRing):
            yield path.stem, ring
    for k, (ring, _) in enumerate(ring_pool()):
        yield f"ring_pool[{k}]", ring


def test_tangent_cone_generators_come_with_their_grevlex_leads_ascending():
    # the engine's key: a larger monomial has a smaller key
    key, _ = _make_keys(GREVLEX, (0,))
    sizes = {}
    for name, ring in _local_rings():
        cone = ring.tangent_cone()
        keys = [min(key((0, e)) for e in g.terms) for g in cone]
        assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys), name
        sizes[name] = len(cone)
    assert sizes == {"fibre": 9, "semigroup": 4, "squares": 0, "ring_pool[0]": 0,
                     "ring_pool[1]": 1, "ring_pool[2]": 1, "ring_pool[3]": 0, "ring_pool[4]": 4}


def test_tangent_cone_rejects_units():
    P2 = PolyRing(["x", "y"], P)
    with pytest.raises(UnitIdealError):
        LocalRing(P2, [P2.from_string("1 + x")])


def test_tangent_cone_hilbert_matches_oracle(semigroup_ring):
    # layer dims of R/m^t equal the Hilbert function of the graded cover
    from aggraded.graded import ring_as_module

    model = oracle.build_model(semigroup_ring, 7)
    hs = hilbert_series(ring_as_module(semigroup_ring.graded_cover))
    assert model.layer_dims == hs.series(6)


def test_order_in_quotient_examples(semigroup_ring):
    # the order of a class is that of its Mora normal form, and its initial
    # form is read in the graded cover
    cover, A = semigroup_ring.cover, semigroup_ring.graded_cover
    for f, nu, init in (("X", 1, "X"), ("X*Z", 3, "Y^3"), ("1 + X", 0, "1")):
        h = semigroup_ring.nf(cover.from_string(f))
        assert (h.order(), A.nf(h.initial_form())) == (nu, cover.from_string(init))
    assert semigroup_ring.nf(cover.from_string("X*Z - Y^3")).is_zero()


def test_order_in_quotient_matches_oracle(semigroup_ring):
    cover = semigroup_ring.cover
    model = oracle.FreeModel(semigroup_ring, 1, 9)
    for s in ("X", "Y", "Z", "X*Z", "Y*Z", "X^2", "X*Y - Z", "Y^4", "X^2*Y"):
        f = cover.from_string(s)
        nu = semigroup_ring.nf(f).order()
        assert nu == oracle.element_order(model, Vector.from_polys([f]))


def test_submodule_initial_examples(semigroup_ring, plane):
    data = submodule_initial(_mod(semigroup_ring, "X"))
    assert data.order == 1
    assert data.generator_degrees == (1, 3)
    assert not data.input_is_standard_basis

    d2 = submodule_initial(_mod(plane, "x", "y"))
    assert d2.generator_degrees == (1, 1) and d2.input_is_standard_basis

    d3 = submodule_initial(_mod(plane, "x + x^2", "y"))
    assert d3.generator_degrees == (1, 1) and d3.input_is_standard_basis


def _mod(ring, *gens, rank=1):
    cover = ring.cover
    cols = [cover.from_string(g) if isinstance(g, str) else g for g in gens]
    return LocalModule(ring, FreeLayout(rank), cols)


def test_submodule_rejects_units(plane):
    with pytest.raises(SubmoduleNotInMaximalIdeal):
        _mod(plane, "1 + x")


def test_submodule_initial_of_zero_is_error(plane):
    with pytest.raises(ZeroInQuotientError):
        submodule_initial(LocalModule(plane, FreeLayout(1), []))


def test_assoc_graded_module(semigroup_ring, plane):
    gm = assoc_graded_module(_mod(semigroup_ring, "X"))
    degs = sorted(v.degree_in(gm.layout) for v in gm.gens)
    assert degs == [1, 3]
    free = LocalModule(plane, FreeLayout(2), [])
    gfree = assoc_graded_module(free)
    assert gfree.gens == [] and gfree.layout.rank == 2
    k = assoc_graded_module(_mod(plane, "x", "y"))
    assert hilbert_series(k).series(3) == [1, 0, 0, 0]


def test_assoc_graded_hilbert_matches_oracle(semigroup_ring):
    mod = _mod(semigroup_ring, "X")
    gm = assoc_graded_module(mod)
    model = oracle.build_model(mod, 8)
    assert hilbert_series(gm).series(7) == model.layer_dims


def test_equigenerated_check_examples(semigroup_ring, plane):
    rep = equigenerated_check(_mod(semigroup_ring, "X"), truncation=12)
    assert not rep.verdict
    assert rep.generator_degrees == (1, 3)
    assert rep.intersection_condition          # N | m^2 F does equal mN here
    assert not rep.mu_condition                # but mu(N*) = 2 != 1 = mu(N)

    rep2 = equigenerated_check(_mod(plane, "x", "y"), truncation=8)
    assert rep2.verdict and rep2.order == 1

    rep3 = equigenerated_check(_mod(plane, "x^2", "x*y"), truncation=8)
    assert rep3.verdict and rep3.order == 2
    assert rep3.generator_degrees == (2, 2)


def test_equigen_window_error(plane):
    with pytest.raises(oracle.OracleWindowError):
        equigenerated_check(_mod(plane, "x^2", "x*y"), truncation=4)


def test_filtration_lemma_when_equigenerated(plane):
    # N | m^i F = m^{i-s} N for all i >= s, within the oracle window
    mod = _mod(plane, "x^2", "x*y")
    s = 2
    for t in (9, 10):
        fm = oracle.FreeModel(plane, 1, t)
        for i in range(s, 6):
            inter = oracle.filtration_intersection(fm, mod.gens, i)
            power = fm.submodule(mod.gens, min_mult_deg=i - s)
            assert inter == power, (t, i)


def test_local_minimal_resolution_examples(semigroup_ring, squares_module, plane):
    res = local_minimal_resolution(_mod(semigroup_ring, "X"), 8)
    assert res.finite and res.pdim == 1
    assert res.ranks == [1, 1] and res.s == [1]

    res2 = local_minimal_resolution(squares_module, 8)
    assert res2.ranks == [1, 3, 3, 1]
    assert res2.s == [2, 2, 2] and res2.delta == [0, 2, 4, 6]

    res3 = local_minimal_resolution(_mod(plane, "x", "y"), 8)
    assert res3.ranks == [1, 2, 1]


def test_resolution_minimality_and_complexity(squares_module):
    res = local_minimal_resolution(squares_module, 8)
    ring = squares_module.ring
    for mat in res.mats:
        assert all(ring.unit_component(v) is None for v in mat.columns)
    for a, b in zip(res.mats, res.mats[1:]):
        prod = a.compose(b)
        assert prod.is_zero_mod(ring.nf_vector)


def test_initial_matrix_examples(semigroup_ring, plane, squares_module):
    cover = semigroup_ring.cover
    from aggraded.complexes import Matrix

    m = Matrix(FreeLayout(1), FreeLayout(1), [Vector.from_polys([cover.from_string("X")])])
    s, cols = initial_matrix(m, semigroup_ring)
    assert s == 1 and cols[0].component(0) == cover.from_string("X")

    pc = plane.cover
    m2 = Matrix(
        FreeLayout(2), FreeLayout(2),
        [Vector.from_polys([pc.from_string("x"), pc.from_string("y")]),
         Vector.from_polys([pc.from_string("y^2"), pc.from_string("x^2")])],
    )
    s2, cols2 = initial_matrix(m2, plane)
    assert s2 == 1
    assert cols2[0] == Vector.from_polys([pc.from_string("x"), pc.from_string("y")])
    assert cols2[1].is_zero()

    res = local_minimal_resolution(squares_module, 8)
    for mat in res.mats:
        s3, cols3 = initial_matrix(mat, squares_module.ring)
        assert s3 == 2
        assert [c.terms for c in cols3] == [c.terms for c in mat.columns]


def test_initial_matrix_of_zero_matrix(plane):
    from aggraded.complexes import Matrix

    m = Matrix(FreeLayout(1), FreeLayout(1), [Vector(plane.cover, 1, {})])
    with pytest.raises(ZeroInQuotientError):
        initial_matrix(m, plane)


def test_minimal_generators_nakayama(plane):
    mod = _mod(plane, "x", "x + x^2")
    cols, _ = min_gens_with_syz(mod.gens, mod.layout, mod.ring)
    assert len(cols) == 1
