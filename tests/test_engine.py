import functools
import pathlib
import random
import time

import pytest

from aggraded import engine, oracle
from aggraded.engine import (StandardBasis, _index, _lead, _lt, _make_keys, _Red, _scale,
                             _weak_nf, normal_form, standard_basis, syzygies)
from aggraded.modules import LocalModule, local_minimal_resolution
from aggraded.orders import DS, GREVLEX
from aggraded.poly import FreeLayout, PolyRing, Vector, mon_divides
from aggraded.purity import NOT_PURE, purity_verdict
from aggraded.rings import GradedRing, LocalRing, _QuotientOps, ideals_equal
from aggraded.session import _Workspace, execute, parse_session
from reference_checks import (ScanRed, agreement_modules, check_annihilates, check_generates,
                              dense, ideal_block, rref_dense, scan_keys, scan_reducer, scan_weak_nf,
                              variable_maps, verify_certificate)

R3 = PolyRing(["X", "Y", "Z"], 32003)
EXAMPLE_IDEAL = [
    R3.from_string("X*Z - Y^3"),
    R3.from_string("Y*Z - X^4"),
    R3.from_string("Z^2 - X^3*Y^2"),
]


def test_local_basis_initial_forms_generate_tangent_cone():
    sb = standard_basis(EXAMPLE_IDEAL, DS)
    forms = [g.component(0).initial_form() for g in sb.gens]
    expected = [R3.from_string(s) for s in ("X*Z", "Y*Z", "Z^2", "Y^4")]
    assert ideals_equal(forms, expected)


def test_single_monomial_unchanged():
    P = PolyRing(["x", "y"], 32003)
    for order in (GREVLEX, DS):
        x = P.from_string("x")
        sb = standard_basis([x], order)
        assert [g.component(0) for g in sb.gens] == [x]


def test_interreduction_global():
    P = PolyRing(["x", "y"], 32003)
    sb = standard_basis([P.from_string("x^2 + y"), P.from_string("y")], GREVLEX)
    # inter-reduced, and emitted with the leads ascending
    assert [g.component(0) for g in sb.gens] == [P.from_string("y"), P.from_string("x^2")]


def test_normal_form_examples():
    sb = standard_basis(EXAMPLE_IDEAL, DS)
    assert normal_form(R3.from_string("X*Z - Y^3"), sb).is_zero()
    P = PolyRing(["x", "y"], 32003)
    sb_y = standard_basis([P.from_string("y")], GREVLEX)
    assert normal_form(P.from_string("x"), sb_y) == P.from_string("x")
    cone = standard_basis([R3.from_string(s) for s in ("X*Z", "Y*Z", "Z^2", "Y^4")], GREVLEX)
    assert normal_form(R3.from_string("Y^4"), cone).is_zero()


def test_weak_flag_is_local_only():
    sb = standard_basis(EXAMPLE_IDEAL, DS)
    assert not normal_form(R3.from_string("Y^4"), sb).is_zero()  # Y^4 is X^5 in the quotient, not 0


def test_koszul_syzygy():
    P = PolyRing(["x1", "x2"], 32003)
    x1, x2 = (Vector.from_polys([P.from_string(v)]) for v in ("x1", "x2"))
    syz = syzygies([x1, x2], GREVLEX)
    assert len(syz.columns) == 1
    assert check_annihilates(syz)
    col = syz.columns[0]
    a, b = col.component(0), col.component(1)
    assert (a * x1 + b * x2).is_zero()


def test_syzygies_of_regular_sequence_squares():
    P = PolyRing(["x1", "x2", "x3"], 32003)
    cols = [P.from_string(f"{v}^2") for v in P.names]
    syz = syzygies(cols, GREVLEX)
    assert len(syz.columns) == 3
    assert check_annihilates(syz)
    # Koszul: every syzygy column is quadratic in the entries
    for col in syz.columns:
        for c in range(3):
            f = col.component(c)
            assert f.is_zero() or (f.is_homogeneous() and f.order() == 2)


def test_check_annihilates_reduces_every_component_modulo_the_ideal():
    # rank-2 target columns over the associated graded ring: the modulus is a
    # rank-1 ideal basis, so each component of a product is reduced by itself
    A = GradedRing(R3, [R3.from_string(s) for s in ("X*Z", "Y*Z", "Z^2", "Y^4")])
    cols = [Vector.from_polys([R3.from_string(a), R3.from_string(b)])
            for a, b in (("X", "Y^2"), ("Y", "X^2 + Z"), ("Z", "X*Y"))]
    syz = syzygies(cols, GREVLEX, FreeLayout(2), modulus=A.ideal_sb)
    assert len(syz.columns) == 6
    for col in syz.columns:
        product = sum((f * cols[j] for j, f in col.components().items()),
                      Vector(R3, 2, {}))
        assert A.nf_vector(product).is_zero()
    # the same columns and ring as the graded entry of PINNED
    *_, pinned, reference = PINNED["graded"]
    _check_rebased(syz, pinned, reference, GREVLEX, A.ideal_sb)


# Local computations that did not finish while elements leading past F
# opened pairs: Mora swelled on s-vectors of two kernel elements.  Their
# elapsed bounds leave a wide margin over the milliseconds they now take.
def test_local_syzygies_over_the_semigroup_ring_finish(semigroup_ring):
    cols = [Vector.from_polys([R3.from_string(a), R3.from_string(b)]) for a, b in PIN_COLS]
    start = time.monotonic()
    syz = syzygies(cols, DS, FreeLayout(2), modulus=semigroup_ring.ideal_sb)
    assert time.monotonic() - start < 5
    assert len(syz.columns) == 9
    assert check_annihilates(syz, modulus=semigroup_ring.ideal_sb)


def test_random_module_33_resolves_to_level_3_and_is_not_pure():
    mod, _ = agreement_modules(60)[33]
    start = time.monotonic()
    res = local_minimal_resolution(mod, 3)
    assert [m.source.rank for m in res.mats] == [3, 4, 8]
    assert purity_verdict(mod, 3).verdict == NOT_PURE
    assert time.monotonic() - start < 5


def test_syzygy_of_x_over_semigroup_ring_is_trivial(semigroup_ring):
    import numpy as np

    # the ring is a domain: the annihilator of X vanishes
    x_col = Vector.from_polys([R3.from_string("X")])
    syz = syzygies([x_col], DS, FreeLayout(1), modulus=semigroup_ring.ideal_sb)
    assert check_annihilates(syz, modulus=semigroup_ring.ideal_sb)
    reduced = [semigroup_ring.nf_vector(c) for c in syz.columns]
    assert all(v.is_zero() for v in reduced)
    # oracle brute force, stabilized over t: every kernel vector of the
    # multiplication-by-X map lives entirely above the truncation window
    for t in (8, 9):
        qm = oracle.TruncatedModel(semigroup_ring, 1, [], t)
        xmap = variable_maps(qm)[0]
        for vec in _nullspace_modp(xmap, 32003):
            support = [qm.basis[i] for i in np.nonzero(vec)[0]]
            assert support and all(sum(e) >= t - 4 for (_, e) in support)


def _nullspace_modp(M, p):
    import numpy as np

    space, pivots = rref_dense(M, p)
    R = dense(space)
    n = M.shape[1]
    piv_set = set(pivots)
    basis = []
    for free in range(n):
        if free in piv_set:
            continue
        v = np.zeros(n, dtype=np.int64)
        v[free] = 1
        for row, c in zip(R, pivots):
            v[c] = (-int(row[free])) % p
        basis.append(v)
    return basis


def test_quotient_membership_matches_oracle_randomized(semigroup_ring):
    rng = random.Random(7)
    sb = semigroup_ring.ideal_sb
    model = oracle.TruncatedModel(semigroup_ring, 1, [], 9)
    mons = [m for m in oracle.monomials_below(3, 5)]
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = mons[rng.randrange(len(mons))]
            terms[m] = terms.get(m, 0) + rng.randint(-3, 3)
        f = R3.poly(terms)
        engine_zero = normal_form(f, sb).is_zero()
        oracle_zero = model.contains(Vector.from_polys([f]))
        if engine_zero:
            assert oracle_zero
        elif not oracle_zero:
            pass  # both nonzero: consistent
        else:
            # oracle says zero: the class must sit above the truncation window
            nu = semigroup_ring.nf(f).order()
            assert nu >= model.t - 4


def test_syzygies_annihilate_is_symbolic(squares_module):
    res_cols = squares_module.gens
    syz = syzygies(res_cols, DS, squares_module.layout)
    assert check_annihilates(syz)


def test_certificate_reverification(semigroup_ring):
    sb = standard_basis(EXAMPLE_IDEAL, DS)
    assert verify_certificate(sb)
    gb = standard_basis([R3.from_string(s) for s in ("X*Z", "Y*Z", "Z^2", "Y^4")], GREVLEX)
    assert verify_certificate(gb)


def test_engine_determinism():
    runs = []
    for _ in range(2):
        sb = standard_basis(EXAMPLE_IDEAL, DS)
        runs.append([tuple(sorted(g.terms.items())) for g in sb.gens])
        syz = syzygies([R3.from_string(f) for f in ("X^2", "Y^2", "X*Y")], GREVLEX)
        runs[-1].append([tuple(sorted(c.terms.items())) for c in syz.columns])
    assert runs[0] == runs[1]


TANGENT_CONE = [R3.from_string(s) for s in ("X*Z", "Y*Z", "Z^2", "Y^4")]


def _same_cyclic_submodule(ring, v, w):
    """<v> + I*F == <w> + I*F, by mutual membership modulo the ideal."""
    layout = FreeLayout(v.rank)
    return (standard_basis([w], ring.order, layout, modulus=ring.ideal_sb).contains(v)
            and standard_basis([v], ring.order, layout, modulus=ring.ideal_sb).contains(w))


def test_nf_vector_reduces_the_whole_column_modulo_the_ideal(semigroup_ring, monkeypatch):
    rank = 500
    entries = {7: "X*Z + Y^4 + X", 250: "Z^2 + Y", 499: "Y*Z - X^4 + Z"}
    terms = {}
    for comp, text in entries.items():
        for e, a in R3.from_string(text).terms.items():
            terms[(comp, e)] = a
    v = Vector(R3, rank, terms)
    A = semigroup_ring.graded_cover
    expected = Vector.from_polys([normal_form(v.component(c), A.ideal_sb) for c in range(rank)])

    def refuse(ring, f):
        raise AssertionError("nf_vector called nf")

    monkeypatch.setattr(_QuotientOps, "nf", refuse)
    # graded: the full remainder is unique, so each component gets its nf
    assert A.nf_vector(v) == expected
    # local: one weak normal form for the column, idempotent, lead irreducible
    w = semigroup_ring.nf_vector(v)
    assert semigroup_ring.nf_vector(w) == w
    key, _ = _make_keys(DS, (0,) * rank)
    comp, exps = _lt(w.terms, key)
    for g in semigroup_ring.ideal_sb.gens:
        assert not mon_divides(_lt(g.terms, key)[1], exps)
    assert _same_cyclic_submodule(semigroup_ring, v, w)
    # the ideal's reducers, acting in place in each component, reduce as the
    # old per-rank block, a standard basis of I*F
    assert ideal_block(semigroup_ring.ideal_sb, rank).reduce(v) == w
    for ring in (semigroup_ring, A):
        for r in (2, 3):
            assert verify_certificate(ideal_block(ring.ideal_sb, r))


PIN_COLS = [("X", "Y^2"), ("Y", "X^2 + Z"), ("Z", "X*Y")]


def _column(text):
    """The column that ``str`` printed as ``text``."""
    return Vector.from_polys([R3.from_string(e) for e in text[1:-1].split(", ")])


def _check_rebased(sz, pinned, reference, order, modulus):
    """The columns of ``sz`` are ``pinned``, term for term and in order, and
    ``pinned`` is a sublist of ``reference``, the columns the engine returned
    while elements leading past F still opened pairs.  The columns annihilate
    their target and generate every reference column."""
    assert [str(c) for c in sz.columns] == pinned
    assert [c for c in reference if c in pinned] == pinned
    assert check_annihilates(sz, modulus=modulus)
    assert check_generates(sz.columns, [_column(c) for c in reference], order,
                           FreeLayout(len(sz.target)), modulus)


# Generators in the order the engine returned them before its pair queue and
# reducer lookups were indexed; the indexes must not change that order.  The
# local basis has since dropped [0, X*Y^3] and [0, X^2*Y^2], whose leads the
# lead of [X^4, X*Y^2] divides; the others kept their order.  Each flavor's
# syzygies are pinned, then listed as they were while elements leading past
# F still opened pairs: the second list's [Y^4 - X^5, 0] and [0, Y^4 - X^5]
# (local) and [Y^4, 0, 0] and [0, Y^4, 0] (graded) are gone.
PINNED = {
    "local": (
        DS, EXAMPLE_IDEAL,
        ["[X^4, X*Y^2]", "[Y^3, X^2*Y]", "[0, X^3]", "[Z, X*Y]", "[Y, Z + X^2]", "[X, Y^2]"],
        2,
        ["[Z^2 - X^3*Y^2, -Y^2*Z + X^4*Y]", "[Y*Z - X^4, 0]", "[X*Z - Y^3, 0]",
         "[0, Z^2 - X^3*Y^2]", "[0, Y*Z - X^4]", "[0, X*Z - Y^3]"],
        ["[Z^2 - X^3*Y^2, -Y^2*Z + X^4*Y]", "[Y*Z - X^4, 0]", "[X*Z - Y^3, 0]",
         "[Y^4 - X^5, 0]", "[0, Z^2 - X^3*Y^2]", "[0, Y*Z - X^4]", "[0, X*Z - Y^3]",
         "[0, Y^4 - X^5]"],
    ),
    "graded": (
        GREVLEX, TANGENT_CONE,
        ["[X, Y^2]", "[Y^2, 0]", "[Z, X*Y]", "[Y, Z + X^2]", "[X^2, 0]"],
        3,
        ["[Z, 0, 0]", "[Y^2, -X*Y, X^2]", "[0, Z, 0]", "[0, -Y^3, X*Y^2]", "[0, 0, Z]",
         "[0, 0, Y^3]"],
        ["[Z, 0, 0]", "[Y^2, -X*Y, X^2]", "[Y^4, 0, 0]", "[0, Z, 0]", "[0, -Y^3, X*Y^2]",
         "[0, Y^4, 0]", "[0, 0, Z]", "[0, 0, Y^3]"],
    ),
}


@pytest.mark.parametrize("flavor", sorted(PINNED))
def test_standard_basis_and_syzygies_keep_their_order(flavor):
    order, ideal, basis, n_syz_cols, syz, syz_reference = PINNED[flavor]
    modulus = standard_basis(ideal, order)
    cols = [Vector.from_polys([R3.from_string(a), R3.from_string(b)]) for a, b in PIN_COLS]
    sb = standard_basis(cols, order, FreeLayout(2), modulus=modulus)
    assert [str(g) for g in sb.gens] == basis
    assert sb.modulus is modulus
    assert verify_certificate(sb)
    for g in modulus.gens:
        for c in range(2):
            assert sb.contains(Vector(R3, 2, {(c, e): a for (_, e), a in g.terms.items()}))
    sz = syzygies(cols[:n_syz_cols], order, FreeLayout(2), modulus=modulus)
    _check_rebased(sz, syz, syz_reference, order, modulus)


def test_local_syzygies_modulo_the_ideal_are_pinned_and_generate():
    # The local case of PINNED has only syzygies in I*F, so its generation
    # check cannot fail.  [X], [Y] over k[[t^4,t^5,t^11]] have syzygies that
    # are nonzero modulo I.  Dropping any of the first three columns loses a
    # syzygy; [-X^4, Y^3] is X*[-X^3, Z] modulo I, the one redundant column.
    modulus = standard_basis(EXAMPLE_IDEAL, DS)
    sz = syzygies([Vector.from_polys([R3.from_string(v)]) for v in ("X", "Y")], DS,
                  modulus=modulus)
    assert [str(c) for c in sz.columns] == ["[Z, -Y^2]", "[-Y, X]", "[-X^3, Z]", "[-X^4, Y^3]"]
    assert check_annihilates(sz, modulus=modulus)
    layout = FreeLayout(2)
    assert check_generates(sz.columns, sz.columns, DS, layout, modulus)
    drops = [check_generates(sz.columns[:k] + sz.columns[k + 1:], sz.columns, DS, layout, modulus)
             for k in range(4)]
    assert drops == [False, False, False, True]


# Seed columns whose leads an ideal lead divides: X*Z e_0 under both orders.
# The bases are those the engine gave while it listed I*F among the
# generators, without the columns g*e_c.
REDUCIBLE_SEEDS = {
    "local": (
        DS, EXAMPLE_IDEAL, [("X*Z", "X*Y^2"), ("Y", "X^2 + Z")],
        ["[Y^6, X^5*Y - X^4*Y*Z]", "[X^5*Y, X^6]", "[X^4, X*Y^3 + X^3*Y^2]", "[Y^3, X*Y^2]",
         "[Y, Z + X^2]"],
    ),
    "graded": (GREVLEX, TANGENT_CONE, [("X*Z + X", "Y"), ("Y^4", "Z")], ["[0, Z]", "[X, Y]"]),
}


@pytest.mark.parametrize("flavor", sorted(REDUCIBLE_SEEDS))
def test_seeds_with_reducible_leads_leave_a_quotient_basis(flavor):
    order, ideal, entries, basis = REDUCIBLE_SEEDS[flavor]
    modulus = standard_basis(ideal, order)
    cols = [Vector.from_polys([R3.from_string(a), R3.from_string(b)]) for a, b in entries]
    sb = standard_basis(cols, order, FreeLayout(2), modulus=modulus)
    assert [str(g) for g in sb.gens] == basis
    assert verify_certificate(sb)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_ideal_reducers_in_place_match_the_old_block(semigroup_ring, rank):
    # The ideal's reducers g act in place in each component c as g*e_c.  That
    # reduces as the old block, the columns of ideal_columns with leads and
    # ecarts found under each key, term for term and in dict order: under
    # nf_vector's key, standard_basis's with a twist, and syzygies'
    # elimination key with shifted epsilon components, which I*F leaves alone.
    rng = random.Random(rank)
    fibre = PolyRing(["x1", "x2", "x3", "y1", "y2", "y3"], 32003)
    fibre_ring = LocalRing(fibre, [fibre.from_string(f"x{i}*y{j}")
                                   for i in (1, 2, 3) for j in (1, 2, 3)])
    for ring in (semigroup_ring, semigroup_ring.graded_cover, fibre_ring):
        sb = ring.ideal_sb
        p, mora, nvars = sb.ring.p, sb.order.is_local, sb.ring.nvars
        for _ in range(20):
            v = Vector(sb.ring, rank, _random_terms(rng, nvars, rank, rng.randint(1, 6), p))
            assert list(sb.reduce(v).terms.items()) == list(_reduce_by_weak_nf(sb, v).items())
        twists = [rng.randint(1, 3) for _ in range(rank)]
        eps = [rng.randint(0, 4) for _ in range(3)]
        for shifts, elim in ((twists, None), (twists + eps, rank)):
            key, wdeg = _make_keys(sb.order, shifts, elim)
            block = _block(sb, rank).gens
            refs = [_Red(g.terms, *_lead(g.terms, key, wdeg)) for g in block]
            # g*e_c keeps g's lead monomial, ecart and sugar under every key
            assert [(r.lt, r.ecart, r.sev) for r in refs] == [
                ((c, g.lt[1]), g.ecart, g.sev) for g in sb._reds for c in range(rank)]
            assert all(max(map(wdeg, r.terms)) == wdeg(r.lt) + r.ecart for r in refs)
            for _ in range(20):
                h = _random_terms(rng, nvars, len(shifts), rng.randint(1, 6), p)
                for tail in (False, True):
                    want = _weak_nf(dict(h), _index(refs), key, wdeg, p, mora, tail)
                    got = _weak_nf(dict(h), {}, key, wdeg, p, mora, tail, sb._reds, rank)
                    assert list(got[0].items()) == list(want[0].items())
                    assert got[1:] == want[1:]


# ------------------------------------------- the heap loop against the scan


def _random_terms(rng, nvars, rank, n_terms, p, units=True):
    """A random term dict; with units=False no term has the monomial 1, as
    in the columns of a module N inside m*F."""
    terms = {}
    while len(terms) < n_terms:
        e = tuple(rng.randint(0, 2) for _ in range(nvars))
        if units or any(e):
            terms[(rng.randrange(rank), e)] = rng.randrange(1, p)
    return terms


def _heap_and_scan(reducers, h, order, shifts, elim_rank, tail, p, modulus=None):
    """The remainders of h under the engine's ``_weak_nf`` and under
    ``scan_weak_nf``, against the same monic reducers and, over a quotient,
    I*F: the modulus's reducers in place on the heap side, the columns of its
    ``ideal_block`` on the scan side.  Checks the lead and ecart that
    ``_weak_nf`` returns against a scan of its remainder."""
    key, wdeg = _make_keys(order, shifts, elim_rank)
    skey, swdeg = scan_keys(order, shifts, elim_rank)
    monic = [_scale(d, pow(d[_lt(d, key)], -1, p), p) for d in reducers]
    heap_index = _index([_Red(d, *_lead(d, key, wdeg)) for d in monic])
    ideal, below, block = (), 0, []
    if modulus is not None:
        ideal, below = modulus._reds, len(shifts)
        # the ideal's reducers come first, as in the heap's candidates
        block = [g.terms for g in ideal_block(modulus, below).gens]
    scan_idx = _index([ScanRed(d, skey, swdeg) for d in block + monic])
    mora = order.is_local
    got, lt, ecart = _weak_nf(dict(h), heap_index, key, wdeg, p, mora, tail, ideal, below)
    want = scan_weak_nf(dict(h), scan_idx, skey, swdeg, p, mora, tail)
    if want:
        slt = max(want, key=skey)
        assert (lt, ecart) == (slt, max(map(swdeg, want)) - swdeg(slt))
    else:
        assert (lt, ecart) == (None, None)
    return got, want


@pytest.mark.parametrize("tail", [False, True])
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("elim", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("order", [DS, GREVLEX], ids=["DS", "GREVLEX"])
def test_heap_weak_nf_matches_scan(order, rank, elim, shifted, tail):
    p = 32003
    rng = random.Random(f"{order.is_local}-{rank}-{elim}-{shifted}-{tail}")
    elim_rank = rng.randint(1, rank) if elim else None
    for _ in range(4):
        shifts = [rng.randint(0, 2) if shifted else 0 for _ in range(rank)]
        reducers = [_random_terms(rng, 3, rank, rng.randint(1, 4), p, units=False)
                    for _ in range(4)]
        for _ in range(5):
            h = _random_terms(rng, 3, rank, rng.randint(1, 8), p)
            got, want = _heap_and_scan(reducers, h, order, shifts, elim_rank, tail, p)
            # term for term, in the same dict order
            assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("order", [DS, GREVLEX], ids=["DS", "GREVLEX"])
def test_heap_weak_nf_matches_scan_over_a_quotient(order):
    ideal = EXAMPLE_IDEAL if order.is_local else TANGENT_CONE
    modulus = standard_basis(ideal, order)
    cols = [Vector.from_polys([R3.from_string(a), R3.from_string(b)]) for a, b in PIN_COLS]
    sb = standard_basis(cols, order, FreeLayout(2), modulus=modulus)
    rng = random.Random(7)
    for _ in range(40):
        h = _random_terms(rng, 3, 2, rng.randint(1, 10), R3.p)
        for tail in (False, True):
            got, want = _heap_and_scan([g.terms for g in sb.gens], h, order, (0, 0), None,
                                       tail, R3.p, modulus)
            assert list(got.items()) == list(want.items())


SESSIONS = pathlib.Path(__file__).resolve().parent.parent / "sessions"


def test_local_bases_of_bundled_modules_are_certified():
    # the DS basis over R that submodule_initial takes initial forms of
    checked = 0
    for path in sorted(SESSIONS.glob("*.session")):
        for mod in _Workspace(parse_session(path.read_text())).modules.values():
            if not isinstance(mod, LocalModule) or mod.is_free:
                continue
            sb = standard_basis(mod.gens, DS, mod.layout, modulus=mod.ring.ideal_sb)
            assert sb.modulus is mod.ring.ideal_sb
            assert verify_certificate(sb)
            checked += sb.modulus is not None
    assert checked


@pytest.fixture(scope="module")
def session_columns():
    """The column normal forms of the three bundled local sessions and of
    the generator columns of the first 40 default-seed and 40 held-out
    agreement modules: the (basis, column rank, terms) of every reduction
    made inside ``nf_vector``, and the (ring, column, normal form) of every
    ``nf_vector`` call."""
    reductions, columns = [], []
    nf_vector, reduce = _QuotientOps.nf_vector, StandardBasis.reduce
    inside = []

    def recording_nf_vector(ring, v):
        inside.append(True)
        try:
            w = nf_vector(ring, v)
        finally:
            inside.pop()
        columns.append((ring, v, w))
        return w

    def recording_reduce(sb, v):
        if inside:
            reductions.append((sb, v.rank, dict(v.terms)))
        return reduce(sb, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_QuotientOps, "nf_vector", recording_nf_vector)
        mp.setattr(StandardBasis, "reduce", recording_reduce)
        for name in ("semigroup", "squares", "fibre"):
            execute(parse_session((SESSIONS / f"{name}.session").read_text()))
        agreement_modules(40)
        agreement_modules(40, seed=2)
    return reductions, columns


def test_heap_weak_nf_matches_scan_on_session_columns(session_columns):
    # the ideal's rank-1 basis reduces a column of rank r as the old block of
    # rank r did, so the scan runs against that block
    reductions, _ = session_columns
    assert any(rank > 1 for _, rank, _ in reductions)
    seen, scans = set(), {}
    for sb, rank, terms in reductions:
        k = (id(sb), rank, tuple(terms.items()))
        if k in seen:
            continue
        seen.add(k)
        if (id(sb), rank) not in scans:
            scans[id(sb), rank] = scan_reducer(ideal_block(sb, rank))
        got = sb.reduce(Vector(sb.ring, rank, dict(terms))).terms
        want = scans[id(sb), rank](terms)
        assert list(got.items()) == list(want.items())


def test_local_nf_vector_keeps_each_column_up_to_one_unit(session_columns):
    # Mora's weak normal form holds up to a unit: with one unit for the whole
    # column, the stored column generates the same cyclic submodule of F/IF
    # as the given one.  A unit per component breaks this on the third
    # held-out agreement module.
    _, columns = session_columns
    checked = 0
    for ring, v, w in columns:
        if not isinstance(ring, LocalRing) or ring.ideal_sb is None or v == w:
            continue
        assert _same_cyclic_submodule(ring, v, w), (v, w)
        checked += 1
    assert checked


# ------------------------------------- the shortcuts for what cannot change


@functools.lru_cache(maxsize=None)
def _block(sb, rank):
    return ideal_block(sb, rank)


def _reduce_by_weak_nf(sb, v):
    """``StandardBasis.reduce`` of a rank-1 basis without its early return:
    the column reduced by ``_weak_nf`` against the ideal's ``ideal_block``
    of the column's rank, under untwisted keys."""
    block = _block(sb, v.rank)
    mora = sb.order.is_local
    return _weak_nf(dict(v.terms), block._index, block._key, block._wdeg, sb.ring.p, mora,
                    not mora)[0]


def _shortcut_bases():
    fibre = PolyRing(["x1", "x2", "x3", "y1", "y2", "y3"], 32003)
    fibre_ideal = [fibre.from_string(f"x{i}*y{j} - y{j}^2")
                   for i in (1, 2, 3) for j in (1, 2, 3)]
    return [standard_basis(EXAMPLE_IDEAL, DS), standard_basis(TANGENT_CONE, GREVLEX),
            standard_basis(fibre_ideal, DS), standard_basis(fibre_ideal, GREVLEX)]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_reduce_returns_irreducible_columns_as_weak_nf_does(rank):
    # term for term and in dict order, reducible columns and irreducible ones
    rng = random.Random(rank)
    for sb in _shortcut_bases():
        nvars = sb.ring.nvars
        kept = changed = 0
        for _ in range(150):
            terms = _random_terms(rng, nvars, rank, rng.randint(0, 5), sb.ring.p)
            want = _reduce_by_weak_nf(sb, Vector(sb.ring, rank, dict(terms)))
            got = sb.reduce(Vector(sb.ring, rank, dict(terms)))
            assert list(got.terms.items()) == list(want.items())
            kept += want == terms
            changed += want != terms
        assert kept > 10 and changed > 10


def test_reduce_returns_session_columns_as_weak_nf_does(session_columns):
    # every column normal form of the bundled sessions' resolutions and of
    # the agreement modules' generators
    reductions, _ = session_columns
    seen = set()
    for sb, rank, terms in reductions:
        k = (id(sb), rank, tuple(terms.items()))
        if k in seen:
            continue
        seen.add(k)
        want = _reduce_by_weak_nf(sb, Vector(sb.ring, rank, dict(terms)))
        got = sb.reduce(Vector(sb.ring, rank, dict(terms)))
        assert list(got.terms.items()) == list(want.items())
    assert len(seen) > 100


def test_irreducible_columns_skip_the_reduction(monkeypatch):
    # under Mora a column whose lead is irreducible, under a global order a
    # column with no reducible term: reduce never enters _weak_nf
    local, graded = standard_basis(EXAMPLE_IDEAL, DS), standard_basis(TANGENT_CONE, GREVLEX)
    cases = [
        (local, Vector(R3, 1, {(0, (1, 1, 0)): 3, (0, (0, 0, 2)): 5})),     # X*Y + 5*Z^2
        (local, Vector(R3, 3, {(2, (2, 0, 0)): 1, (0, (1, 0, 1)): 4})),     # lead X^2 e_2
        (graded, Vector(R3, 1, {(0, (1, 0, 0)): 2, (0, (2, 3, 0)): 7})),
        (graded, Vector(R3, 3, {(1, (0, 1, 0)): 1, (2, (3, 0, 0)): 6, (0, (0, 0, 1)): 9})),
        (graded, Vector(R3, 2, {})),
    ]
    want = [_reduce_by_weak_nf(sb, v) for sb, v in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("an irreducible column entered _weak_nf")

    monkeypatch.setattr(engine, "_weak_nf", refuse)
    for (sb, v), w in zip(cases, want):
        got = sb.reduce(v)
        assert list(got.terms.items()) == list(w.items())
        assert got.terms is not v.terms
    with pytest.raises(AssertionError, match="entered _weak_nf"):
        graded.reduce(Vector(R3, 2, {(1, (1, 0, 1)): 1}))                  # X*Z e_1


# Syzygies of monomial columns over the semigroup ring's tangent cone.  Each
# ``want`` is the pinned list, then the list recorded while elements leading
# past F still opened pairs and before pairs of two single-term reducers were
# dropped (9 such pairs in the rank-2 run and 5 in the rank-1 run built zero
# s-vectors).
MONOMIAL_SYZYGIES = [
    ([("X", "Y^2"), ("Y^2", "X*Y"), ("Z", "0"), ("X*Y", "Z"), ("0", "X^3")],
     (["[Z, 0, 0, 0, 0]", "[Y^2, 0, 0, -Y, 0]", "[X*Y, -Y^2, 0, -X, 0]", "[0, Z, 0, 0, 0]",
       "[0, X^2, 0, -X*Y, -Y]", "[0, 0, Z, 0, 0]", "[0, 0, Y, 0, 0]", "[0, 0, X, 0, 0]",
       "[0, 0, 0, Z, 0]", "[0, 0, 0, Y^3, 0]", "[0, 0, 0, 0, Z]"],
      ["[Z, 0, 0, 0, 0]", "[Y^2, 0, 0, -Y, 0]", "[X*Y, -Y^2, 0, -X, 0]", "[0, Z, 0, 0, 0]",
       "[0, Y^3, 0, 0, 0]", "[0, X^2, 0, -X*Y, -Y]", "[0, 0, Z, 0, 0]", "[0, 0, Y, 0, 0]",
       "[0, 0, X, 0, 0]", "[0, 0, 0, Z, 0]", "[0, 0, 0, Y^3, 0]", "[0, 0, 0, X*Y^4, Y^4]",
       "[0, 0, 0, 0, Z]"])),
    ([("X",), ("Y^2",), ("Z",), ("X*Y",)],
     (["[Z, 0, 0, 0]", "[-Y, 0, 0, 1]", "[-Y^2, X, 0, 0]", "[0, Z, 0, 0]", "[0, Y^2, 0, 0]",
       "[0, 0, Z, 0]", "[0, 0, Y, 0]", "[0, 0, X, 0]"],
      ["[Z, 0, 0, 0]", "[-Y, 0, 0, 1]", "[-Y^2, X, 0, 0]", "[Y^4, 0, 0, 0]", "[0, Z, 0, 0]",
       "[0, Y^2, 0, 0]", "[0, 0, Z, 0]", "[0, 0, Y, 0]", "[0, 0, X, 0]"])),
]


@pytest.mark.parametrize("entries, want", MONOMIAL_SYZYGIES)
def test_monomial_syzygies_over_the_tangent_cone(entries, want, monkeypatch):
    modulus = standard_basis(TANGENT_CONE, GREVLEX)
    cols = [Vector.from_polys([R3.from_string(e) for e in col]) for col in entries]
    built = []     # the term counts of the two reducers of each s-vector
    sub_scaled = engine._sub_scaled

    def recording(h, g_terms, shift, coeff, p, off=0):
        built.append(len(g_terms))
        return sub_scaled(h, g_terms, shift, coeff, p, off)

    monkeypatch.setattr(engine, "_sub_scaled", recording)
    sz = syzygies(cols, GREVLEX, FreeLayout(len(entries[0])), modulus=modulus)
    monkeypatch.undo()      # the generation check builds a basis of its own
    _check_rebased(sz, *want, GREVLEX, modulus)
    pairs = list(zip(built[::2], built[1::2]))
    assert pairs and (1, 1) not in pairs


def test_minimal_in_degree_order_agrees_with_the_strip_loop():
    """On random homogeneous columns of degrees 1-3 over k[x,y,z]/(x*y, z^2),
    in random order: the truncated run finds every column outside the span
    of those before it in degree order exactly when ``min_gens_with_syz``
    keeps them all.  Local orders and inhomogeneous columns are refused."""
    from aggraded.complexes import min_gens_with_syz
    from aggraded.engine import minimal_in_degree_order

    P = PolyRing(["x", "y", "z"], 32003)
    A = GradedRing(P, [P.from_string("x*y"), P.from_string("z^2")])
    pool = ["x", "y", "z", "x + y", "x^2", "y^2", "x*z", "y*z + x^2", "x^2 + y^2", "x*z - y*z",
            "x^3", "y^3", "x^2*z", "y^2*z + x^3", "x^3 - y^3"]
    pool = [v for v in (A.nf_vector(Vector.from_polys([P.from_string(f)])) for f in pool) if v]
    rng = random.Random(5)
    layout = FreeLayout(1)
    outcomes = set()
    for _ in range(200):
        cols = rng.sample(pool, rng.randint(1, 5))
        minimal = minimal_in_degree_order(cols, A.order, layout, A.ideal_sb)
        assert minimal == (len(min_gens_with_syz(cols, layout, A)[0]) == len(cols)), cols
        outcomes.add(minimal)
    assert outcomes == {True, False}
    inhomogeneous = [Vector.from_polys([P.from_string("x + y^2")])]
    for order, cols in ((DS, pool[:2]), (A.order, inhomogeneous)):
        with pytest.raises(ValueError, match="homogeneous"):
            minimal_in_degree_order(cols, order, layout, None)
