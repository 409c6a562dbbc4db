import gc
import pathlib
import weakref

import numpy as np
import pytest

from aggraded import oracle, randomized
from aggraded.oracle import (FreeModel, OracleWindowError, build_model,
                             filtration_intersection, rref_modp, submodule_layer_data)
from aggraded.poly import PolyRing, Vector
from aggraded.rings import LocalRing
from aggraded.session import execute, parse_session
from reference_checks import (agreement_modules, dense, dense_rref_modp, eliminated_space,
                              rref_dense, sparse_rows, variable_maps)

P = 32003
SESSIONS = pathlib.Path(__file__).resolve().parent.parent / "sessions"


def degree_part(model, i):
    """relations + span of the unit rows of degree >= i."""
    units = np.eye(model.n, dtype=np.int64)[np.array(model.coord_degs) >= i]
    return rref_dense(np.vstack([dense(model.relations), units]), model.p)[0]


def zassenhaus(U, V):
    """U | V as the rows with vanishing left half of rref([U U; V 0])."""
    n = U.n
    top = np.hstack([dense(U), dense(U)])
    bot = np.hstack([dense(V), np.zeros_like(dense(V))])
    R = dense(rref_dense(np.vstack([top, bot]), U.p)[0])
    return rref_dense(R[~R[:, :n].any(axis=1), n:], U.p)[0]


def times_variables(model, rows):
    """The rows x * row for every variable x, truncated at degree t."""
    # coordinates are sorted by degree: the first ``low`` have degree < t - 1
    low = int(np.searchsorted(model.coord_degs, model.t - 1))
    blocks = []
    for v in range(model.ring.cover.nvars):
        dst = [model.index[(c, e[:v] + (e[v] + 1,) + e[v + 1:])] for c, e in model.coords[:low]]
        block = np.zeros_like(rows)
        block[:, dst] = rows[:, :low]
        blocks.append(block)
    return np.vstack(blocks)


def full_width_mus(model, gens, jmax):
    """Generator counts from relations + x * (rows of W with pivot degree
    >= j - 1), eliminated across every coordinate."""
    rel = model.relations
    space = model.submodule(gens)
    rel_counts = np.array(model.pivot_counts(rel))
    layer = np.array(model.pivot_counts(space)) - rel_counts
    row_degs = np.array(model.coord_degs)[space.pivots]
    mus = {0: int(layer[0])}
    for j in range(1, jmax + 1):
        shifted = times_variables(model, dense(space)[row_degs >= j - 1])
        below = model.pivot_counts(rref_dense(np.vstack([dense(rel), shifted]), model.p)[0])
        mus[j] = int(layer[j]) - int(below[j] - rel_counts[j])
    return mus


def test_rref_and_subspace_algebra():
    rows = [[1, 2, 0], [2, 4, 1], [1, 2, 1]]
    U = rref_dense(rows, P)[0]
    assert U.rank == 2 and U.shape == (2, 3) and U.pivots == [0, 2]
    assert U.contains({0: 3, 1: 6, 2: 1})
    assert not U.contains({1: 1})
    assert U == rref_dense(rows[::-1], P)[0]
    assert U != rref_dense(rows[:1], P)[0]


def _sparse_matrices(p, seed):
    """Random sparse matrices over GF(p), with the shapes an elimination must
    get right: zero and duplicate rows, one row, no nonzero entry, full rank."""
    rng = np.random.default_rng(seed)

    def sparse(m, n, density):
        vals = rng.integers(1, p, size=(m, n), dtype=np.int64)
        return np.where(rng.random((m, n)) < density, vals, 0)

    out = [sparse(m, n, d) for m, n, d in ((40, 60, 0.05), (120, 90, 0.02), (30, 30, 0.3))]
    with_zero_and_duplicate = sparse(25, 40, 0.1)
    with_zero_and_duplicate[[3, 11]] = 0
    with_zero_and_duplicate[[7, 19]] = with_zero_and_duplicate[5]
    out.append(with_zero_and_duplicate)
    out.append(sparse(1, 50, 0.1))
    out.append(np.zeros((6, 20), dtype=np.int64))
    square = sparse(12, 12, 0.2)
    square[np.arange(12), np.arange(12)[::-1]] = rng.integers(1, p, size=12)
    out.append(square)                       # full rank, pivots read off an antidiagonal
    return out


def _assert_same_echelon(got, want):
    (space, pivots), (ref, ref_pivots) = got, want
    assert pivots == space.pivots == ref_pivots
    mat = dense(space)
    assert mat.shape == ref.shape
    assert (mat == ref).all()


@pytest.mark.parametrize("p", [P, 2147483647])
def test_sparse_rref_matches_dense_reference(p):
    for seed in range(3):
        for A in _sparse_matrices(p, seed):
            want = dense_rref_modp(A, p)
            # the rows in sparse form, and split into ready pivot rows (an
            # echelon form of the first half) plus the rest
            sparse = sparse_rows(A)
            _assert_same_echelon(rref_modp(sparse, p, A.shape[1]), want)
            top, top_pivots = dense_rref_modp(A[: len(A) // 2], p)
            ready = dict(zip(top_pivots, sparse_rows(top)))
            kept = {c: dict(row) for c, row in ready.items()}
            _assert_same_echelon(rref_modp(sparse[len(A) // 2:], p, A.shape[1], ready), want)
            assert ready == kept
    assert (dense(rref_dense([[1, 2, 0], [2, 4, 1]], p)[0]) == [[1, 2, 0], [0, 0, 1]]).all()


def test_every_agreement_elimination_matches_dense_reference(monkeypatch):
    calls = []
    real = oracle.rref_modp

    def capture(rows, p, n, pivot_rows=None):
        out = real(rows, p, n, pivot_rows)
        dense = np.zeros((len(pivot_rows or ()) + len(rows), n), dtype=np.int64)
        for i, row in enumerate(list((pivot_rows or {}).values()) + rows):
            dense[i, list(row)] = list(row.values())
        calls.append((dense, p, out))
        return out

    monkeypatch.setattr(oracle, "rref_modp", capture)
    # enough modules for more than 50 eliminations
    for mod, t in agreement_modules(14):
        try:
            randomized.run_agreement_case(mod, t)
        except OracleWindowError:
            continue
    assert len(calls) > 50
    assert any(len(dense) > 100 for dense, _, _ in calls)
    for dense, p, out in calls:
        _assert_same_echelon(out, dense_rref_modp(dense, p))


def test_agreement_at_the_largest_characteristic():
    # p = 2^31 - 1: every product of residues in the oracle's elimination is
    # exact, and the engine agrees with it
    for mod, t in agreement_modules(12, p=2147483647):
        randomized.run_agreement_case(mod, t)


def test_build_model_examples(semigroup_ring):
    m = build_model(LocalRing(PolyRing(["x"], P), []), 3)
    assert m.layer_dims == [1, 1, 1] and m.dim == 3
    assert [e for (_, e) in m.basis] == [(0,), (1,), (2,)]

    m5 = build_model(semigroup_ring, 5)
    assert m5.layer_dims == [1, 3, 3, 4, 4]
    assert m5.dim == 15

    m1 = build_model(semigroup_ring, 1)
    assert m1.dim == 1


def test_model_size_bound(semigroup_ring, monkeypatch):
    monkeypatch.setattr(oracle, "SIZE_BOUND", 10)
    with pytest.raises(oracle.ModelSizeError):
        build_model(semigroup_ring, 5)


def test_variable_maps_raise_layer(semigroup_ring):
    m = build_model(semigroup_ring, 5)
    for v, M in enumerate(variable_maps(m)):
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
    mf = [Vector.from_polys([plane.cover.from_string(v)]) for v in ("x", "y")]
    units = np.eye(fm2.n, dtype=np.int64)[np.array(fm2.coord_degs) >= 2]
    assert filtration_intersection(fm2, mf, 2) == rref_dense(units, P)[0]


def test_filtration_intersection_matches_zassenhaus():
    for mod, t in agreement_modules(10):
        fm = FreeModel(mod.ring, mod.layout.rank, t)
        maxdeg = max(sum(e) for g in mod.gens for (_, e) in g.terms)
        span = fm.submodule(mod.gens)
        for i in range(t - maxdeg - oracle.WINDOW_SLACK + 1):
            expected = zassenhaus(span, degree_part(fm, i))
            assert filtration_intersection(fm, mod.gens, i) == expected


def test_block_generator_counts_match_full_width_stack(semigroup_module):
    cases = agreement_modules(10) + [(semigroup_module, 12)]
    for mod, t in cases:
        fm = FreeModel(mod.ring, mod.layout.rank, t)
        maxdeg = max(sum(e) for g in mod.gens for (_, e) in g.terms)
        jmax = t - maxdeg - oracle.WINDOW_SLACK - 1
        _, mus = submodule_layer_data(fm, mod.gens, jmax)
        assert mus == full_width_mus(fm, mod.gens, jmax)


@pytest.mark.parametrize("seed", [randomized.DEFAULT_SEED, 2])
def test_cut_and_extended_spaces_match_direct_elimination(seed, monkeypatch):
    def no_elimination(*args):
        raise AssertionError("a space the (t+1)-model holds was eliminated again")

    powers = range(4)
    for mod, t in agreement_modules(20, seed=seed):
        ring, rank, gens = mod.ring, mod.layout.rank, mod.gens
        below = oracle.stability_pair(ring, rank, t)
        above = below.above
        # at t + 1 the deepest power comes first; each shallower one extends it
        extended = {k: above.submodule(gens, k) for k in reversed(powers)}
        with monkeypatch.context() as m:
            m.setattr(oracle, "rref_modp", no_elimination)
            cut = {k: below.submodule(gens, k) for k in powers}
            cut_relations = below.relations
        assert above.relations == eliminated_space(above)
        assert cut_relations == eliminated_space(below)
        for k in powers:
            assert extended[k] == eliminated_space(above, gens, k)
            assert cut[k] == eliminated_space(below, gens, k)


def test_no_model_outlives_the_check_that_made_it(monkeypatch):
    # a model holds its submodule echelon forms: none may outlive its check
    made = []
    real_init = FreeModel.__init__

    def recording_init(self, *args):
        real_init(self, *args)
        made.append(weakref.ref(self))

    monkeypatch.setattr(FreeModel, "__init__", recording_init)
    mod, t = agreement_modules(1)[0]
    rep = randomized.run_agreement_case(mod, t)
    report, _ = execute(parse_session((SESSIONS / "semigroup.session").read_text()))
    gc.collect()
    assert rep.truncation == t and any(e["command"] == "equigen" for e in report["results"])
    assert len(made) == 4
    assert all(ref() is None for ref in made)


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


def test_element_order_matches_degree_part_search():
    def searched_order(model, vec):
        row = model.row_of(vec)
        if model.relations.contains(row):
            return None
        i = 0
        while i + 1 < model.t and degree_part(model, i + 1).contains(row):
            i += 1
        return None if i + 1 >= model.t else i

    for mod, t in agreement_modules(10):
        fm = FreeModel(mod.ring, mod.layout.rank, t)
        for col in mod.gens:
            assert oracle.element_order(fm, col) == searched_order(fm, col)


def test_characteristic_at_or_above_two_to_the_31_rejected():
    # the field refuses it, so no ring (and no model) over it exists
    with pytest.raises(ValueError, match="too large"):
        ring = LocalRing(PolyRing(["x", "y"], 4294967311), [])
        FreeModel(ring, 1, 4)


def test_rref_rejects_characteristic_at_or_above_two_to_the_31():
    # the oracle keeps the bound of the field
    with pytest.raises(ValueError, match="too large"):
        rref_modp([{0: 1, 1: 2}, {0: 3, 1: 4}], 4294967311, 2)
