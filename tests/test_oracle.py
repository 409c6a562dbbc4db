import numpy as np
import pytest

from aggraded import oracle
from aggraded.oracle import (FreeModel, OracleWindowError, Subspace, build_model,
                             filtration_intersection, submodule_layer_data)
from aggraded.poly import PolyRing, Vector
from aggraded.rings import LocalRing

P = 32003


def test_rref_and_subspace_algebra():
    rows = [[1, 2, 0], [2, 4, 1], [1, 2, 1]]
    U = Subspace(3, P, rows)
    assert U.rank == 2
    assert U.contains([3, 6, 1])
    assert not U.contains([0, 1, 0])
    V = Subspace(3, P, [[0, 1, 0]])
    assert (U + V).rank == 3
    W = U.intersect(Subspace(3, P, [[1, 2, 0], [0, 0, 5]]))
    assert W.rank == 2


def test_build_model_examples(semigroup_ring):
    m = build_model(LocalRing(PolyRing(["x"], P), []), 3)
    assert m.layer_dims == [1, 1, 1] and m.dim == 3
    assert [e for (_, e) in m.basis] == [(0,), (1,), (2,)]

    m5 = build_model(semigroup_ring, 5)
    assert m5.layer_dims == [1, 3, 3, 4, 4]
    assert m5.dim == 15

    m1 = build_model(semigroup_ring, 1)
    assert m1.dim == 1


def test_model_size_bound(semigroup_ring):
    with pytest.raises(oracle.ModelSizeError):
        build_model(semigroup_ring, 5, size_bound=10)


def test_variable_maps_raise_layer(semigroup_ring):
    m = build_model(semigroup_ring, 5)
    for v, M in enumerate(m.variable_maps):
        for j, (_, e) in enumerate(m.basis):
            img = M[:, j]
            for i in np.nonzero(img)[0]:
                assert sum(m.basis[int(i)][1]) >= sum(e) + 1


def test_filtration_intersection_examples(semigroup_ring):
    cover = semigroup_ring.cover
    fm = FreeModel(semigroup_ring, 1, 12)
    xcol = Vector.from_polys([cover.from_string("X")])
    inter3 = filtration_intersection(fm, [xcol], 3)
    y3 = fm.row_of(Vector.from_polys([cover.from_string("Y^3")]))
    assert inter3.contains(y3)
    m2n = fm.submodule([xcol], min_mult_deg=2)
    assert not m2n.contains(y3)
    assert inter3.rank > m2n.rank

    # i <= nu(N): the intersection is the image of N itself
    inter1 = filtration_intersection(fm, [xcol], 1)
    assert inter1 == fm.submodule([xcol])

    # N = mF: intersection with m^2 F is m^2 F layerwise
    plane = LocalRing(PolyRing(["x", "y"], P), [])
    fm2 = FreeModel(plane, 1, 8)
    mf = [Vector.from_polys([plane.cover.gen(0)]), Vector.from_polys([plane.cover.gen(1)])]
    assert filtration_intersection(fm2, mf, 2) == fm2.degree_part(2)


def test_window_violation_raises(semigroup_ring):
    fm = FreeModel(semigroup_ring, 1, 5)
    xcol = Vector.from_polys([semigroup_ring.cover.from_string("X")])
    with pytest.raises(OracleWindowError):
        filtration_intersection(fm, [xcol], 4)


def test_submodule_layer_data_matches_paper(semigroup_ring):
    fm = FreeModel(semigroup_ring, 1, 12)
    xcol = Vector.from_polys([semigroup_ring.cover.from_string("X")])
    dims, mus = submodule_layer_data(fm, [xcol], 4)
    assert {j: c for j, c in mus.items() if c} == {1: 1, 3: 1}


def test_layer_dims_of_quotients(semigroup_ring, squares_module):
    model = build_model(semigroup_ring, 6)
    assert model.layer_dims[:5] == [1, 3, 3, 4, 4]
    # free module of rank 3 in 2 variables: 3 * (d + 1) in degree d
    free3 = oracle.TruncatedModel(LocalRing(PolyRing(["u", "v"], P), []), 3, [], 4)
    assert free3.layer_dims[:3] == [3, 6, 9]
    # finite length quotient: Hilbert function (1,3,3,1)
    sq = build_model(squares_module, 6)
    assert sq.layer_dims[:5] == [1, 3, 3, 1, 0]


def test_stability_under_t_increase(semigroup_ring):
    cover = semigroup_ring.cover
    xcol = Vector.from_polys([cover.from_string("X")])
    answers = []
    for t in (10, 11):
        fm = FreeModel(semigroup_ring, 1, t)
        dims, mus = submodule_layer_data(fm, [xcol], 4)
        answers.append((dims, mus))
    assert answers[0] == answers[1]


def test_element_order(semigroup_ring):
    cover = semigroup_ring.cover
    fm = FreeModel(semigroup_ring, 1, 9)
    assert oracle.element_order(fm, Vector.from_polys([cover.from_string("X*Z")])) == 3
    assert oracle.element_order(fm, Vector.from_polys([cover.from_string("X")])) == 1
    assert oracle.element_order(fm, Vector.from_polys([cover.from_string("1+X")])) == 0
