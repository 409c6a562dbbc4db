import pytest

from aggraded.complexes import (Matrix, NotAComplexError, check_complex, min_gens_with_syz,
                                minimalize, resolve_bounded)
from aggraded.poly import FreeLayout, PolyRing, Vector
from aggraded.rings import GradedRing, LocalRing

P = PolyRing(["x", "y", "z"], 32003)
S_LOC = LocalRing(P, [])
S_GR = GradedRing(P, [])


def col(*entries):
    return Vector.from_polys([P.from_string(e) if isinstance(e, str) else e for e in entries])


def ranks(mats):
    """The ranks of F_0, F_1, ... of a complex given by its differentials."""
    return [m.target.rank for m in mats[:1]] + [m.source.rank for m in mats]


def test_minimalize_unit_matrix():
    out = minimalize([Matrix(FreeLayout(1), FreeLayout(1), [col("1")])], S_LOC)
    assert ranks(out) == [0, 0]


def test_minimalize_mixed_diagonal():
    mat = Matrix(FreeLayout(2), FreeLayout(2), [col("1", "0"), col("0", "x")])
    out = minimalize([mat], S_LOC)
    assert ranks(out) == [1, 1]
    assert out[0].columns[0].component(0) == P.from_string("x")


def test_minimalize_keeps_koszul():
    res = resolve_bounded([col("x^2"), col("y^2"), col("z^2")], FreeLayout(1), S_LOC, 5)
    out = minimalize(res.mats, S_LOC)
    assert ranks(out) == ranks(res.mats)


def test_minimalize_polynomial_unit():
    # a 1+x unit entry over the localization cancels exactly
    mat = Matrix(FreeLayout(2), FreeLayout(2), [col("1 + x", "y"), col("z", "x*y")])
    out = minimalize([mat], S_LOC)
    assert ranks(out) == [1, 1]
    # (1+x) * xy - y z must be the remaining entry up to the forced unit scaling
    expected = P.from_string("x*y + x^2*y - y*z")
    assert out[0].columns[0].component(0) == expected


def test_minimalize_cancels_across_adjacent_differentials():
    # the Koszul resolution of (x^2, y^2, z^2) plus a trivial summand R -1-> R
    # in positions 1-2, mixed in by e_3 -> e_3 + c*e_0 on F_1: d_1 gains the
    # column c*x^2 and d_2's unit column becomes (-c, 0, 0, 1)
    res = resolve_bounded([col("x^2"), col("y^2"), col("z^2")], FreeLayout(1), S_LOC, 5)
    d1, d2, d3 = res.mats
    c = P.from_string("1 + x")
    wide = [Vector(v.ring, 4, v.terms) for v in d2.columns]
    layouts = [FreeLayout(1), FreeLayout(4), FreeLayout(4), FreeLayout(1)]
    mats = [
        Matrix(layouts[0], layouts[1], d1.columns + [c * d1.columns[0]]),
        Matrix(layouts[1], layouts[2], wide + [col("-1 - x", "0", "0", "1")]),
        Matrix(layouts[2], layouts[3], [Vector(v.ring, 4, v.terms) for v in d3.columns]),
    ]
    check_complex(mats, S_LOC.nf_vector)
    out = minimalize(mats, S_LOC)
    check_complex(out, S_LOC.nf_vector)
    assert all(S_LOC.unit_component(v) is None for m in out for v in m.columns)
    assert ranks(out) == [1, 3, 3, 1]


def test_minimalize_requires_complex():
    m1 = Matrix(FreeLayout(1), FreeLayout(1), [col("x")])
    m2 = Matrix(FreeLayout(1), FreeLayout(1), [col("y")])
    with pytest.raises(NotAComplexError):
        check_complex([m1, m2], S_LOC.nf_vector)


def test_check_complex_rejects_differentials_that_do_not_meet():
    # d_1's source has rank 1 and d_2's target rank 2: no composition exists
    m1 = Matrix(FreeLayout(1), FreeLayout(1), [col("x")])
    m2 = Matrix(FreeLayout(2), FreeLayout(1), [col("0", "0")])
    with pytest.raises(ValueError, match="do not meet at F_1"):
        check_complex([m1, m2], S_LOC.nf_vector)
    # equal ranks with other twists do not meet either
    m3 = Matrix(FreeLayout(1, (1,)), FreeLayout(1), [Vector(P, 1, {})])
    with pytest.raises(ValueError, match="do not meet at F_1"):
        check_complex([m1, m3], S_LOC.nf_vector)


def test_min_gens_strips_redundant_generator():
    gens = [col("x"), col("x*y")]
    cols, syz = min_gens_with_syz(gens, FreeLayout(1), S_LOC)
    assert len(cols) == 1 and cols[0].component(0) == P.from_string("x")
    assert all(S_LOC.unit_component(v) is None for v in syz)


def test_resolution_betti_match_nakayama_counts(squares_module):
    # graded Nakayama: ranks after minimalization equal mu-counts of each syzygy step
    from aggraded import oracle
    from aggraded.modules import local_minimal_resolution

    res = local_minimal_resolution(squares_module, 5)
    assert res.finite and res.pdim == 3 and res.betti == [3, 3, 1]
    ring = squares_module.ring
    fm = oracle.FreeModel(ring, 1, 9)
    _, mus = oracle.submodule_layer_data(fm, squares_module.gens, 4)
    assert sum(mus.values()) == 3


def test_graded_resolution_of_residue_field_one_var():
    P1 = PolyRing(["x"], 32003)
    S1 = GradedRing(P1, [])
    res = resolve_bounded([Vector.from_polys([P1.from_string("x")])], FreeLayout(1), S1, 4)
    assert res.finite and res.pdim == 1
    assert res.mats[0].source.twists == (1,)


def _shape(res):
    return ([(m.target.twists, m.source.twists, m.columns) for m in res.mats],
            res.layout, res.cutoff, res.pdim)


def _cache_cases(squares_module):
    """(module, {cutoff: the pdim served there}): None until the
    resolution is certified finite within the cutoff."""
    from aggraded.graded import GradedModule
    from aggraded.modules import LocalModule, assoc_graded_module

    squares = {c: None if c < 3 else 3 for c in range(9)}
    return [
        (squares_module, {2: None, 3: 3, 5: 3}),
        (assoc_graded_module(squares_module), {2: None, 3: 3, 5: 3}),
        (LocalModule(S_LOC, FreeLayout(2), []), {0: 0, 2: 0}),
        (GradedModule(S_GR, FreeLayout(2), []), {0: 0, 2: 0}),
        (squares_module, squares),
    ]


def _fresh(mod):
    """The same presentation as ``mod``, with an empty cache."""
    return type(mod)(mod.ring, mod.layout, mod.gens)


def _count_levels(monkeypatch):
    """A list that grows by one for each level that any resolution computes
    (a matrix of a ``resolve_bounded`` result) from now on.  A last level
    certified minimal makes no ``min_gens_with_syz`` call, so calls to it do
    not count levels."""
    import aggraded.complexes as complexes

    levels, real = [], complexes.resolve_bounded

    def resolve(*args):
        res = real(*args)
        levels.extend(res.mats)
        return res

    monkeypatch.setattr(complexes, "resolve_bounded", resolve)
    return levels


def test_resolution_cache_serves_every_cutoff_like_a_fresh_resolution(squares_module, monkeypatch):
    """The kept resolution grows, never restarts: in either order of the
    cutoffs, a call computes only the levels that the cache lacks, and what
    it serves is what a fresh ``resolve_bounded`` returns at that cutoff."""
    from aggraded.complexes import resolve_cached

    levels = _count_levels(monkeypatch)
    fresh, depth = {}, {}
    for n, (mod, pdims) in enumerate(_cache_cases(squares_module)):
        for c, pdim in pdims.items():
            res = resolve_bounded(mod.gens, mod.layout, mod.ring, c)
            assert (res.pdim, res.finite) == (pdim, pdim is not None), (mod, c)
            fresh[n, c] = _shape(res)
            depth[n, c] = len(res.mats)
    for n, (mod, pdims) in enumerate(_cache_cases(squares_module)):
        cutoffs = tuple(pdims)
        for order in (cutoffs[::-1], cutoffs):
            mod, deepest = _fresh(mod), 0
            for c in order:
                levels[:] = []
                got = resolve_cached(mod, c)
                assert _shape(got) == fresh[n, c], (mod, order, c)
                assert len(levels) == max(0, depth[n, c] - deepest), (mod, order, c)
                deepest = max(deepest, depth[n, c])


def test_resolution_cache_resumes_every_bundled_resolution_like_a_fresh_one(monkeypatch):
    """Every bundled module, a local module's G(M) included: one cache grows
    from cutoff c to c + 1 (c = 0..4), computes the one missing level, and
    serves term for term what a fresh resolution to c + 1 returns."""
    from aggraded.complexes import resolve_cached

    levels = _count_levels(monkeypatch)
    for mod, gens in _bundled_modules():
        mod = _fresh(mod)
        resolve_cached(mod, 0)
        for c in range(5):
            res = resolve_bounded(gens, mod.layout, mod.ring, c + 1)
            fresh, computed = _shape(res), len(res.mats)
            levels[:] = []
            assert _shape(resolve_cached(mod, c + 1)) == fresh
            assert len(levels) == (computed > c)


def test_resolution_cache_rejects_a_negative_cutoff():
    from aggraded.complexes import resolve_cached
    from aggraded.modules import LocalModule

    with pytest.raises(ValueError, match="nonnegative"):
        resolve_cached(LocalModule(S_LOC, FreeLayout(1), [col("x")]), -1)


def test_free_local_module_is_finite_at_every_cutoff(regular3):
    from aggraded.modules import LocalModule, local_minimal_resolution

    free = LocalModule(regular3, FreeLayout(2), [])
    for c in (3, 0, 1):
        res = local_minimal_resolution(free, c)
        assert (res.mats, res.finite, res.pdim, res.ranks, res.cutoff) == ([], True, 0, [2], c)


def _bundled_modules():
    """(module, generators) of every module of every bundled session; a local
    module comes with its associated graded module."""
    import pathlib

    from aggraded.modules import LocalModule, assoc_graded_module
    from aggraded.session import _Workspace, parse_session

    sessions = pathlib.Path(__file__).resolve().parent.parent / "sessions"
    for path in sorted(sessions.glob("*.session")):
        for mod in _Workspace(parse_session(path.read_text())).modules.values():
            if isinstance(mod, LocalModule):
                yield mod, mod.gens
                mod = assoc_graded_module(mod)
            yield mod, mod.gens


def test_certified_last_level_matches_the_eliminating_reference(monkeypatch):
    """A last level certified minimal and not free leaves the same record as
    the reference that eliminates it: on every bundled module and its G(M)
    at cutoffs 0-8 (the six-variable fibre module and its G(M) at 0-5, whose
    level 8 alone has 77,562 columns), and on the local module and G(M) of
    the first 10 default-seed and held-out agreement modules at 0-4.  The
    graded certificate holds on levels of several degrees: semigroup G(M)'s
    level 8 (degrees 8-16) and the fibre G(M)'s level 3 (degrees 3-6)."""
    import aggraded.complexes as complexes
    from aggraded import randomized
    from aggraded.modules import assoc_graded_module
    from reference_checks import agreement_modules, eliminating_resolution

    certified = {True: 0, False: 0}
    degrees = []        # the degrees of each graded last level certified
    real = complexes._minimal_and_not_free

    def counted(cand, layout, ctx):
        ok = real(cand, layout, ctx)
        certified[ctx.order.is_local] += ok
        if ok and not ctx.order.is_local:
            degrees.append(sorted({v.degree_in(layout) for v in cand}))
        return ok

    monkeypatch.setattr(complexes, "_minimal_and_not_free", counted)
    cases = [(mod, gens, 5 if mod.ring.nvars == 6 else 8, mod.ring.cover.names)
             for mod, gens in _bundled_modules()]
    for seed in (randomized.DEFAULT_SEED, 2):
        for n, (mod, _) in enumerate(agreement_modules(10, seed)):
            # held-out module 2's local resolution stalls in the Mora
            # syzygies of level 2; its G(M) is covered
            if (seed, n) != (2, 2):
                cases.append((mod, mod.gens, 4, None))
            gmod = assoc_graded_module(mod)
            cases.append((gmod, gmod.gens, 4, None))
    several = {}        # (a bundled module's variables, cutoff) -> degrees of its last level
    for mod, gens, top, names in cases:
        for c in range(top + 1):
            degrees.clear()
            got = resolve_bounded(gens, mod.layout, mod.ring, c)
            assert _shape(got) == _shape(eliminating_resolution(gens, mod.layout, mod.ring, c)), \
                (mod, c)
            if names and degrees and len(degrees[-1]) > 1:
                several[names, c] = degrees[-1]
    assert certified[True] and certified[False]
    assert several[("X", "Y", "Z"), 8] == [8, 10, 12, 14, 16]
    assert several[("x1", "x2", "x3", "y1", "y2", "y3"), 3] == [3, 4, 5, 6]


def _certificate_falls_back(mod, cutoff):
    """The last level of ``mod``'s resolution to ``cutoff`` is not
    certified, and the resolution equals the eliminating reference's."""
    import aggraded.complexes as complexes
    from reference_checks import eliminating_resolution

    res = resolve_bounded(mod.gens, mod.layout, mod.ring, cutoff - 1)
    cand, layout, pending = res.rest
    assert not pending and not complexes._minimal_and_not_free(cand, layout, mod.ring)
    res = resolve_bounded(mod.gens, mod.layout, mod.ring, cutoff)
    assert _shape(res) == _shape(eliminating_resolution(mod.gens, mod.layout, mod.ring, cutoff))
    return res


def test_certificate_falls_back_on_a_redundant_candidate(plane):
    """One degree or order, more candidates than rows, and x + y redundant:
    the level is not certified and strips x + y as the reference does."""
    from aggraded.graded import GradedModule
    from aggraded.modules import LocalModule

    for make, ring in ((LocalModule, plane), (GradedModule, GradedRing(plane.cover, []))):
        gens = [ring.cover.from_string(f) for f in ("x", "y", "x + y")]
        res = _certificate_falls_back(make(ring, FreeLayout(1), gens), 1)
        assert res.ranks == [1, 2] and res.pdim is None


@pytest.mark.parametrize("gens, kept, pdim", [
    # y^3 lies in the image only through the s-pair of x*y and x^2 + y^2,
    # of degree 3: the pairs of a degree come before its candidates
    (("x*y", "x^2 + y^2", "y^3"), 2, None),
    (("x", "x*y"), 1, 1),
    # a dependency of one degree inside a level of degrees 1 and 2
    (("x", "y^2", "x*y + y^2"), 2, None),
])
def test_graded_certificate_falls_back_on_a_redundant_candidate_of_several_degrees(
        plane, gens, kept, pdim):
    from aggraded.graded import GradedModule

    ring = GradedRing(plane.cover, [])
    mod = GradedModule(ring, FreeLayout(1), [ring.cover.from_string(f) for f in gens])
    res = _certificate_falls_back(mod, 1)
    assert res.ranks == [1, kept] and res.pdim == pdim


def test_graded_certificate_holds_on_minimal_candidates_of_several_degrees(plane):
    """x^2, x*y, y^3: degrees 2 and 3, none in the span of the others, and
    more candidates than rows, so the level keeps them with their syzygies
    pending, as the reference's record does."""
    import aggraded.complexes as complexes
    from aggraded.graded import GradedModule
    from reference_checks import eliminating_resolution

    ring = GradedRing(plane.cover, [])
    mod = GradedModule(ring, FreeLayout(1), [ring.cover.from_string(f)
                                             for f in ("x^2", "x*y", "y^3")])
    assert complexes._minimal_and_not_free(mod.gens, mod.layout, ring)
    res = resolve_bounded(mod.gens, mod.layout, ring, 1)
    assert res.rest[2] and res.ranks == [1, 3] and res.pdim is None
    assert _shape(res) == _shape(eliminating_resolution(mod.gens, mod.layout, ring, 1))


def test_certificate_needs_more_candidates_than_rows():
    """x*e1, y*e2: one degree and independent, but as many candidates as
    rows (McCoy does not apply), and they are free: pdim 1, not None."""
    from aggraded.graded import GradedModule

    mod = GradedModule(S_GR, FreeLayout(2), [col("x", "0"), col("0", "y")])
    res = _certificate_falls_back(mod, 1)
    assert res.ranks == [2, 2] and res.pdim == 1


def test_certificate_falls_back_on_dependent_initial_forms(plane):
    """x + y^2 and x have order 1 and the same initial form, so the local
    certificate fails, yet both are minimal generators: the level keeps
    both, as the reference does, and the Koszul complex follows."""
    from aggraded.modules import LocalModule

    mod = LocalModule(plane, FreeLayout(1), [plane.cover.from_string(f) for f in ("x + y^2", "x")])
    assert _certificate_falls_back(mod, 1).ranks == [1, 2]
    assert _certificate_falls_back(mod, 2).ranks == [1, 2, 1]
    assert resolve_bounded(mod.gens, mod.layout, mod.ring, 2).pdim == 2


def _redundant(mod, gens):
    """``gens`` followed by combinations of them, in normal form: a
    generating set whose syzygies have several unit entries to strip."""
    ring = mod.ring
    x = ring.cover.from_string(ring.cover.names[0])
    extra = [gens[0] + gens[-1], x * gens[0], gens[0] + x * gens[-1], gens[-1] + x * gens[0]]
    return gens + [v for v in map(ring.nf_vector, extra)
                   if v and (ring.order.is_local or v.is_homogeneous(mod.layout))]


def _terms(cols):
    return [(v.rank, list(v.terms.items())) for v in cols]


def test_initial_generators_are_the_first_level_of_the_graded_resolution():
    """N*'s minimal generators, read off the first level of G(M)'s cached
    resolution, equal the reference's term for term: on the bundled local
    modules and the first 40 default-seed and held-out agreement modules."""
    from collections import Counter

    import aggraded.modules as modules
    from aggraded import randomized
    from aggraded.graded import minimal_graded_resolution
    from aggraded.modules import LocalModule, assoc_graded_module, submodule_initial
    from reference_checks import agreement_modules, initial_generators

    assert not hasattr(modules, "min_gens_with_syz")
    mods = [mod for mod, _ in _bundled_modules() if isinstance(mod, LocalModule)]
    mods += [mod for seed in (randomized.DEFAULT_SEED, 2) for mod, _ in agreement_modules(40, seed)]
    for mod in mods:
        data = submodule_initial(mod)
        assert _terms(data.generators) == _terms(initial_generators(mod))
        entries = minimal_graded_resolution(assoc_graded_module(mod), 1).entries
        assert {j: c for (i, j), c in entries.items() if i == 1} == Counter(data.generator_degrees)


def test_min_gens_with_syz_matches_the_strip_loop_reference(monkeypatch):
    """Every level of every resolution the bundled sessions make at cutoff 3
    (local, graded, over the polynomial cover, and the equigeneration
    check's), and of each bundled module's resolution from a redundant
    generating set: the kept generators and the stripped columns equal the
    reference's term for term, in the same order."""
    import pathlib

    import aggraded.complexes as complexes
    from aggraded.session import execute, parse_session
    from reference_checks import strip_units

    levels, stripped = {True: 0, False: 0}, 0
    real = complexes.min_gens_with_syz

    def checked(cand, layout, ctx):
        nonlocal stripped
        kept, syz = real(cand, layout, ctx)
        ref_kept, ref_syz = strip_units(cand, layout, ctx)
        assert _terms(kept) == _terms(ref_kept) and _terms(syz) == _terms(ref_syz)
        levels[ctx.order.is_local] += 1
        stripped += len(cand) - len(kept)
        return kept, syz

    monkeypatch.setattr(complexes, "min_gens_with_syz", checked)
    sessions = pathlib.Path(__file__).resolve().parent.parent / "sessions"
    for path in sorted(sessions.glob("*.session")):
        execute(parse_session(path.read_text()), max_homdeg=3)
    for mod, gens in _bundled_modules():
        complexes.resolve_bounded(_redundant(mod, gens), mod.layout, mod.ring, 3)
    assert levels[True] and levels[False] and stripped


def test_stored_columns_are_in_normal_form_and_never_reduced_again(monkeypatch):
    """The normal-form contract of ``complexes`` on the bundled sessions, the
    construction of each module and of each local module's G(M) included."""
    import aggraded.complexes as complexes
    from aggraded.modules import LocalModule, initial_matrix, local_minimal_resolution
    from aggraded.rings import _QuotientOps

    assert not hasattr(LocalRing, "vector_order")
    reduced, made, checked, entered = [], [], [], []
    real_nf, real_min_gens = _QuotientOps.nf_vector, complexes.min_gens_with_syz
    real_resolve = complexes.resolve_bounded

    def nf_vector(ctx, v):
        # over a ring without an ideal a column comes back as it is; a copy
        # gives the column made here an id of its own, so a second pass of it
        # through nf_vector shows below
        out = real_nf(ctx, v)
        reduced.append(v)
        made.append(Vector(v.ring, v.rank, dict(v.terms)) if out is v else out)
        return made[-1]

    def min_gens(cand, layout, ctx):
        start = len(reduced)
        out = real_min_gens(cand, layout, ctx)
        # none of its candidates went through nf_vector inside it
        assert not {id(v) for v in cand} & {id(v) for v in reduced[start:]}
        checked.append(len(cand))
        return out

    def resolve(gens, layout, ctx, cutoff):
        start = len(reduced)
        out = real_resolve(gens, layout, ctx, cutoff)
        # its inputs are stored columns: none went through nf_vector inside it
        assert not {id(v) for v in gens} & {id(v) for v in reduced[start:]}
        entered.append(len(gens))
        return out

    monkeypatch.setattr(_QuotientOps, "nf_vector", nf_vector)
    monkeypatch.setattr(complexes, "min_gens_with_syz", min_gens)
    monkeypatch.setattr(complexes, "resolve_bounded", resolve)
    resolutions, stored = [], []
    for mod, gens in _bundled_modules():
        if isinstance(mod, LocalModule):
            res = local_minimal_resolution(mod, 3)
            resolutions.append((mod, res))
        else:
            res = complexes.resolve_bounded(gens, mod.layout, mod.ring, 3)
        stored += gens + [v for mat in res.mats for v in mat.columns]
        for v in gens + [v for mat in res.mats for v in mat.columns]:
            assert real_nf(mod.ring, v) == v
    assert checked and entered
    # no normal form and no stored column went through nf_vector again: the
    # columns of each module and of each G(M) were reduced once, where made
    assert not {id(v) for v in made + stored} & {id(v) for v in reduced}

    def refuse(ctx, v):
        raise AssertionError("a stored column was normal-formed again")

    monkeypatch.setattr(_QuotientOps, "nf_vector", refuse)
    for mod, res in resolutions:
        ring = mod.ring
        assert len(res.delta) == len(res.mats) + 1
        for i, mat in enumerate(res.mats, start=1):
            assert initial_matrix(mat, ring)[0] == res.s[i - 1] == min(res.column_orders(i))
