import pytest

from aggraded.complexes import check_complex, resolve_bounded
from aggraded.graded import (GradedModule, betti_analysis, hilbert_series,
                             minimal_graded_resolution, numeric_invariants, ring_as_module)
from aggraded.modules import assoc_graded_module
from aggraded.poly import FreeLayout, PolyRing, Vector
from aggraded.rings import GradedRing
from reference_checks import poincare_from_hilbert

P = 32003
P1 = PolyRing(["x"], P)
P2 = PolyRing(["x", "y"], P)
P3 = PolyRing(["x1", "x2", "x3"], P)
S1, S2, S3 = GradedRing(P1, []), GradedRing(P2, []), GradedRing(P3, [])


def gmod(ring, rels, rank=1, twists=None):
    cover = ring.cover
    cols = [cover.from_string(r) if isinstance(r, str) else r for r in rels]
    return GradedModule(ring, FreeLayout(rank, twists or ()), cols)


def squares_gmod():
    return gmod(S3, ["x1^2", "x2^2", "x3^2"])


def test_resolution_of_k_over_one_variable():
    table = minimal_graded_resolution(gmod(S1, ["x"]), 5)
    assert table.entries == {(0, 0): 1, (1, 1): 1}
    assert table.complete and table.pdim == 1


def test_resolution_of_squares_is_pure_024_6():
    gm = squares_gmod()
    table = minimal_graded_resolution(gm, 6)
    assert table.entries == {(0, 0): 1, (1, 2): 3, (2, 4): 3, (3, 6): 1}
    assert table.complete and table.pdim == 3
    res = resolve_bounded(gm.gens, gm.layout, S3, 6)
    check_complex(res.mats, S3.nf_vector)


def test_resolution_over_quotient_ring(semigroup_ring):
    A = semigroup_ring.graded_cover
    cover = A.cover
    m = gmod(GradedRing(cover, A.ideal), ["X", "Y^3"])
    table = minimal_graded_resolution(m, 4)
    assert table.degrees(1) == [1, 3]
    assert not table.complete


def test_non_homogeneous_relations_rejected():
    with pytest.raises(ValueError):
        gmod(S2, ["x + x^2"])


def test_hilbert_series_examples(semigroup_ring):
    free = GradedModule(S2, FreeLayout(1), [])
    hs = hilbert_series(free)
    assert hs.numerator == (1,) and hs.dim == 2
    assert hs.render() == "(1)/(1-z)^2"

    A = semigroup_ring.graded_cover
    hsa = hilbert_series(ring_as_module(A))
    assert hsa.numerator == (1, 2, 0, 1) and hsa.dim == 1
    assert hsa.multiplicity == 4

    hsq = hilbert_series(squares_gmod())
    assert hsq.numerator == (1, 3, 3, 1) and hsq.dim == 0
    assert hsq.multiplicity == 8


def test_hilbert_series_with_a_negative_offset_starts_at_degree_zero():
    # A = k[x,y]/(xy): A(1) lives in degrees >= -1, and its series from degree
    # 0 on is that of A shifted down by one, not wrapped around from the end
    A = GradedRing(P2, [P2.from_string("x*y")])
    hs = hilbert_series(GradedModule(A, FreeLayout(1, (-1,)), []))
    assert hs.offset < 0
    assert hs.series(4) == hilbert_series(ring_as_module(A)).series(5)[1:] == [2, 2, 2, 2, 2]


def test_hilbert_zero_module():
    z = GradedModule(S2, FreeLayout(0), [])
    hs = hilbert_series(z)
    assert hs.is_zero and hs.dim == -1


def test_alternating_sum_identity():
    # sum_i (-1)^i sum_j beta_{i,j} z^j / (1-z)^n equals the cancelled series
    from aggraded.graded import cover_betti_table, zpoly_trim

    for gm in (squares_gmod(), gmod(S2, ["x^2", "x*y"])):
        entries = cover_betti_table(gm).entries
        numer = [0] * (max(j for (_, j) in entries) + 1)
        for (i, j), c in entries.items():
            numer[j] += (-1) ** i * c
        hs = hilbert_series(gm)
        # re-multiply the cancelled numerator by (1-z)^(n-dim)
        poly = list(hs.numerator) + [0] * (gm.ring.nvars - hs.dim)
        for _ in range(gm.ring.nvars - hs.dim):
            poly = [a - b for a, b in zip(poly, [0] + poly)]
        assert zpoly_trim(poly) == zpoly_trim(numer)


def test_numeric_invariants_examples(semigroup_ring):
    A = semigroup_ring.graded_cover
    inv = numeric_invariants(ring_as_module(A), cutoff=6)
    assert (inv.dim, inv.depth, inv.cmd, inv.multiplicity) == (1, 0, 1, 4)

    inv2 = numeric_invariants(squares_gmod(), cutoff=6)
    assert (inv2.dim, inv2.depth, inv2.cmd, inv2.multiplicity) == (0, 0, 0, 8)
    assert inv2.codim == 3 and inv2.pdim == 3

    free = GradedModule(S3, FreeLayout(2), [])
    inv3 = numeric_invariants(free, cutoff=6)
    assert inv3.cmd == 0 and inv3.multiplicity == 2 and inv3.codim == 0
    assert numeric_invariants(ring_as_module(S3), cutoff=4).multiplicity == 1


def test_graded_nakayama_agreement(semigroup_ring):
    # beta_{0,j} and beta_{1,j} of the associated graded module match oracle counts
    from aggraded import oracle
    from aggraded.modules import LocalModule
    from aggraded.poly import FreeLayout as FL

    mod = LocalModule(semigroup_ring, FL(1), [semigroup_ring.cover.from_string("X")])
    gm = assoc_graded_module(mod)
    table = minimal_graded_resolution(gm, 3)
    fm = oracle.FreeModel(semigroup_ring, 1, 12)
    _, mus = oracle.submodule_layer_data(fm, mod.gens, 4)
    for j in range(5):
        assert table.entries.get((1, j), 0) == mus.get(j, 0)


def test_betti_analysis_examples(semigroup_ring):
    table = minimal_graded_resolution(squares_gmod(), 6)
    rep = betti_analysis(table)
    assert rep.is_pure and rep.delta == (0, 2, 4, 6)
    assert not rep.is_linear and rep.regularity_within_cutoff == 3
    assert rep.complete

    A = semigroup_ring.graded_cover
    m = GradedModule(A, FreeLayout(1), [A.cover.from_string("X"), A.cover.from_string("Y^3")])
    t2 = minimal_graded_resolution(m, 4)
    rep2 = betti_analysis(t2)
    assert not rep2.is_pure and rep2.witness == (1, (1, 3))

    t3 = minimal_graded_resolution(gmod(S2, ["x", "y"]), 4)
    rep3 = betti_analysis(t3)
    assert rep3.is_pure and rep3.is_linear and rep3.delta == (0, 1, 2)


def test_poincare_examples():
    Ax = GradedRing(P1, [P1.from_string("x^2")])
    k1 = gmod(Ax, ["x"])
    assert poincare_from_hilbert(k1, 6).coefficients == (1,) * 7

    k2 = gmod(S2, ["x", "y"])
    assert poincare_from_hilbert(k2, 5).coefficients == (1, 2, 1, 0, 0, 0)

    Axy = GradedRing(P2, [P2.from_string("x*y")])
    k3 = gmod(Axy, ["x", "y"])
    assert poincare_from_hilbert(k3, 6).coefficients == (1, 2, 2, 2, 2, 2, 2)


def test_poincare_requires_linear():
    with pytest.raises(ValueError):
        poincare_from_hilbert(squares_gmod(), 5)


def test_additivity_consequence():
    # 0 -> K -> C -> Q -> 0 with dim C = dim Q and e(C) = e(Q) forces dim K < dim C
    x = P2.from_string("x")
    C = GradedModule(S2, FreeLayout(2), [Vector.from_polys([x, P2.poly({})])])
    Q = GradedModule(S2, FreeLayout(1), [])
    K = GradedModule(S2, FreeLayout(1), [x])
    hc, hq, hk = hilbert_series(C), hilbert_series(Q), hilbert_series(K)
    assert hc.dim == hq.dim and hc.multiplicity == hq.multiplicity
    assert hk.dim < hc.dim
    # additivity of the series itself
    upto = 6
    assert hc.series(upto) == [a + b for a, b in zip(hq.series(upto), hk.series(upto))]


def test_betti_render_shape():
    table = minimal_graded_resolution(squares_gmod(), 6)
    text = table.render()
    lines = text.splitlines()
    assert lines[0].split() == ["0", "1", "2", "3"]
    assert "." in text and "3" in text


def test_numeric_invariants_raise_when_depth_exceeds_dimension(monkeypatch):
    import aggraded.graded as graded
    from aggraded.modules import BridgeError

    monkeypatch.setattr(graded, "pdim_over_cover", lambda gm: -1)
    with pytest.raises(BridgeError, match="depth"):
        numeric_invariants(squares_gmod(), cutoff=4)
