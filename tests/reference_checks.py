"""Reference checks kept beside the tests: exact re-verifications of engine
and oracle output that no computation in the package needs.

- ``scan_weak_nf``: the engine's reduction loop as a scan, the lead found by
  ``max(h, key=...)`` on every step, the reference for the engine's
  ``_weak_nf`` (``scan_keys`` and ``ScanRed`` give it keys and reducers);
- ``scan_reducer``: ``scan_weak_nf`` against a standard basis;
- ``ideal_block``: I*F as its own standard basis, the columns g*e_c of
  ``ideal_columns``, the reference for an ideal's reducers acting in place
  in each component;
- ``verify_certificate``: every s-vector of a standard basis reduces to zero
  under ``scan_weak_nf``, I*F included over a quotient;
- ``check_annihilates``: the target matrix times each syzygy column is zero;
- ``check_generates``: a list of columns generates every reference column,
  the check that syzygy columns recorded earlier still lie in the module
  that the engine's columns now generate;
- ``variable_maps``: the truncated multiplication maps of a quotient model;
- ``dense_rref_modp``: dense GF(p) row reduction, the reference for the
  oracle's sparse ``rref_modp``;
- ``sparse_rows`` and ``rref_dense``: a dense matrix as the sparse rows that
  ``rref_modp`` takes, and its echelon form;
- ``dense``: an oracle echelon form written out as its matrix;
- ``eliminated_space``: a space of an oracle model eliminated at that model
  from rows built here, the reference for the spaces a model cuts from the
  (t+1)-model or extends from a deeper power;
- ``strip_units``: the Nakayama strip loop that ``complexes`` once ran
  inline, the reference for ``min_gens_with_syz``;
- ``eliminating_resolution``: ``resolve_bounded`` with every level, the
  last one included, run through ``min_gens_with_syz``, the reference for
  the certificate that leaves the last level's syzygies pending;
- ``agreement_modules``: the first nontrivial modules that the agreement
  suite draws for a seed;
- ``initial_generators``: N*'s minimal generators as ``min_gens_with_syz``
  over the normal forms of the initial forms, the reference for
  ``submodule_initial``;
- ``poincare_from_hilbert``: total Betti numbers of a linear resolution
  extracted from Hilbert series, a cross-check of linear Betti tables
  against Hilbert data.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from aggraded import randomized
from aggraded.complexes import Matrix, ResolutionResult, min_gens_with_syz
from aggraded.engine import (MAX_REDUCTION_STEPS, EngineError, StandardBasis, _index, _scale,
                             _sub_scaled, standard_basis, syzygies)
from aggraded.graded import (betti_analysis, hilbert_series, minimal_graded_resolution,
                             ring_as_module)
from aggraded.modules import BridgeError
from aggraded.oracle import rref_modp
from aggraded.orders import DS
from aggraded.poly import FreeLayout, Vector, ideal_columns, mon_deg, mon_div, mon_divides, mon_lcm


def scan_keys(order, shifts, elim_rank=None):
    """Key and weighted-degree functions on terms (comp, exps) under which
    the order's largest term has the largest key: the engine's key with
    every component negated."""
    local = order.is_local
    shifts = tuple(shifts)
    trivial = all(s == 0 for s in shifts)

    if trivial:
        def wdeg(t):
            return sum(t[1])
    else:
        def wdeg(t):
            return sum(t[1]) + shifts[t[0]]

    if elim_rank is None:
        def key(t):
            c, e = t
            d = wdeg(t)
            return (-d if local else d, tuple(-x for x in reversed(e)), -c)
    else:
        def key(t):
            c, e = t
            d = wdeg(t)
            return (
                1 if c < elim_rank else 0,
                -d if local else d,
                tuple(-x for x in reversed(e)),
                -c,
            )

    return key, wdeg


class ScanRed:
    """A monic reducer for ``scan_weak_nf``, its lead and ecart found by a
    scan of its terms."""

    __slots__ = ("terms", "lt", "ecart")

    def __init__(self, terms, key, wdeg):
        self.terms = terms
        self.lt = max(terms, key=key)
        self.ecart = max(wdeg(t) for t in terms) - wdeg(self.lt)


def scan_weak_nf(h, index, key, wdeg, p, mora, tail=False):
    """Reduce dict h against the ``ScanRed`` reducers of ``index`` (see the
    engine's ``_index``); returns the remainder dict.  Keys are
    ``scan_keys`` keys.

    mora=True: Mora weak normal form (intermediates may serve as reducers,
    so the result is valid up to a unit); lead-irreducible remainder, tail
    untouched.  mora=False: classical division with remainder; with tail=True
    the remainder's tail is fully reduced as well.
    """
    inter = {}
    rem = {}
    steps = 0
    while h:
        lt = max(h, key=key)
        comp, exps = lt
        cands = [r for r in index.get(comp, ()) if mon_divides(r.lt[1], exps)]
        if mora:
            cands.extend(r for r in inter.get(comp, ()) if mon_divides(r.lt[1], exps))
        if not cands:
            if mora or not tail:
                break
            # move the irreducible lead into the remainder, keep reducing
            rem[lt] = h.pop(lt)
            continue
        best = min(cands, key=lambda r: r.ecart)
        if mora:
            h_ecart = max(wdeg(t) for t in h) - wdeg(lt)
            if best.ecart > h_ecart:
                inter.setdefault(comp, []).append(
                    ScanRed(_scale(dict(h), pow(h[lt], -1, p), p), key, wdeg))
        shift = mon_div(lt[1], best.lt[1])
        _sub_scaled(h, best.terms, shift, h[lt], p)
        steps += 1
        if steps > MAX_REDUCTION_STEPS:
            raise EngineError("reduction step limit exceeded")
    if rem:
        h.update(rem)
    return h


def scan_reducer(sb: StandardBasis):
    """A function taking a term dict to its ``scan_weak_nf`` against the
    generators of ``sb``, as ``StandardBasis.reduce`` reduces a column; the
    scan reducers are built once per basis."""
    key, wdeg = scan_keys(sb.order, sb.layout.twists)
    index = _index([ScanRed(g.terms, key, wdeg) for g in sb.gens])
    local = sb.order.is_local

    def reduce(terms):
        return scan_weak_nf(dict(terms), index, key, wdeg, sb.ring.p, mora=local, tail=not local)

    return reduce


def ideal_block(sb: StandardBasis, rank):
    """The standard basis of I*F that ``nf_vector`` once built per rank from
    the rank-1 basis ``sb`` of I: the columns g*e_c of ``ideal_columns``, g
    outer and c inner, their leads and ecarts found under the module's key."""
    cols = ideal_columns([g.component(0) for g in sb.gens], rank)
    return StandardBasis(sb.ring, FreeLayout(rank), sb.order, cols)


def verify_certificate(sb: StandardBasis):
    """Re-reduce every s-vector of ``sb`` to zero by ``scan_weak_nf``;
    returns True or raises.  Over a quotient the ``ideal_block`` of the
    modulus joins the reducers and the pairs."""
    p = sb.ring.p
    key, wdeg = scan_keys(sb.order, sb.layout.twists)
    gens = sb.gens
    if sb.modulus is not None:
        gens = ideal_block(sb.modulus, sb.layout.rank).gens + gens
    reds = [ScanRed(g.terms, key, wdeg) for g in gens]
    index = _index(reds)
    for i, a in enumerate(reds):
        for j in range(i):
            b = reds[j]
            if a.lt[0] != b.lt[0]:
                continue
            L = mon_lcm(a.lt[1], b.lt[1])
            h = {}
            _sub_scaled(h, a.terms, mon_div(L, a.lt[1]), p - 1, p)
            _sub_scaled(h, b.terms, mon_div(L, b.lt[1]), 1, p)
            if not h:
                continue
            h = scan_weak_nf(h, index, key, wdeg, p, mora=sb.order.is_local, tail=False)
            if h:
                raise EngineError(f"certificate violated by pair ({j}, {i})")
    return True


def check_annihilates(syz, modulus=None):
    """Exact symbolic check: the target matrix of ``syz`` times each column is
    zero (modulo the defining ideal, when a certified ``modulus`` is given)."""
    tgt = syz.target
    for col in syz.columns:
        acc = None
        for j, f in col.components().items():
            w = f * tgt[j]
            acc = w if acc is None else acc + w
        if acc is None or acc.is_zero():
            continue
        if modulus is None:
            return False
        # the modulus is a basis of the ideal: reduce each component
        if not all(modulus.contains(Vector.from_polys([f])) for f in acc.components().values()):
            return False
    return True


def check_generates(cols, reference, order, layout, modulus=None):
    """Exact membership check: a standard basis of ``cols`` under ``order``
    (over the quotient by ``modulus``, when given) contains every column of
    ``reference``.  Under a local order this is membership in the localized
    module, as the local flavor's syzygies are."""
    sb = standard_basis(cols, order, layout, modulus=modulus)
    return all(sb.contains(v) for v in reference)


def _coords_of(model, index, vec: Vector):
    """Coordinates of the class of ``vec`` on the standard-monomial basis,
    ``index`` taking a basis element to its position."""
    free = model.free
    red = model.space.reduce(free.row_of(vec))
    out = np.zeros(len(model.basis), dtype=np.int64)
    for i, v in red.items():
        out[index[free.coords[i]]] = v
    return out


def variable_maps(model):
    """One truncated multiplication map per variable, on the basis of a
    ``TruncatedModel``."""
    cover = model.free.ring.cover
    index = {ce: i for i, ce in enumerate(model.basis)}
    maps = []
    for v in range(cover.nvars):
        M = np.zeros((len(model.basis), len(model.basis)), dtype=np.int64)
        for j, (c, e) in enumerate(model.basis):
            ee = list(e)
            ee[v] += 1
            ee = tuple(ee)
            if mon_deg(ee) >= model.t:
                continue
            M[:, j] = _coords_of(model, index, Vector(cover, model.free.rank, {(c, ee): 1}))
        maps.append(M)
    return maps


def dense(space):
    """The oracle echelon form ``space`` (a ``Subspace``) as its int64
    matrix, one row per pivot, in pivot order."""
    A = np.zeros(space.shape, dtype=np.int64)
    for i, c in enumerate(space.pivots):
        for j, v in space.rows[c].items():
            A[i, j] = v
    return A


def eliminated_space(model, cols=(), min_mult_deg=0):
    """The space relations + <x^a * col : deg(x^a) >= min_mult_deg> of the
    oracle ``model`` (a ``FreeModel``), eliminated in one ``rref_modp`` call
    from the rows of every multiple, each product formed as a vector and cut
    at degree t by ``row_of``."""
    cover = model.ring.cover

    def multiples(vecs, low):
        return [model.row_of(cover.poly({a: 1}) * v)
                for a in model.layout.monomials if mon_deg(a) >= low for v in vecs]

    rows = (multiples(ideal_columns(model.ring.ideal, model.rank), 0)
            + multiples(cols, min_mult_deg))
    return rref_modp([row for row in rows if row], model.p, model.n)[0]


def dense_rref_modp(rows, p):
    """Reduced row echelon form over GF(p) by a dense int64 loop, one pivot
    column at a time; returns (matrix, pivot columns).  Products of residues
    stay below 2^62 for p < 2^31."""
    A = np.asarray(rows, dtype=np.int64) % p
    if A.ndim == 1:
        A = A.reshape(1, -1)
    m, n = A.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        f = A[:, c].copy()
        f[r] = 0
        mask = f != 0
        if mask.any():
            A[mask] = (A[mask] - np.outer(f[mask], A[r])) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def sparse_rows(A):
    """The rows of a dense matrix as sparse rows {column: entry}, its zero
    entries dropped."""
    return [{int(j): int(row[j]) for j in np.flatnonzero(row)} for row in np.asarray(A)]


def rref_dense(A, p):
    """``rref_modp`` of a dense matrix, its entries taken modulo p."""
    A = np.asarray(A, dtype=np.int64) % p
    return rref_modp(sparse_rows(A), p, A.shape[1])


def strip_units(cand, layout, ctx):
    """``complexes.min_gens_with_syz`` as a scan: the first syzygy column
    with a unit entry is found by sorting its terms on every pass, and the
    elimination is written out in place."""
    ring = ctx.cover
    cand = list(cand)
    if not cand:
        return [], []
    syz = syzygies(cand, ctx.order, layout, modulus=ctx.ideal_sb)
    cols = [w for w in (ctx.nf_vector(v) for v in syz.columns) if w]
    zm = ring._zero_mon

    def find_unit():
        for cidx, col in enumerate(cols):
            for (comp, e), a in sorted(col.terms.items()):
                if e == zm and col.component(comp).constant_term() != 0:
                    return cidx, comp
        return None

    while True:
        spot = find_unit()
        if spot is None:
            break
        cidx, j = spot
        pivot = cols[cidx]
        u = pivot.component(j)
        out = []
        for k, col in enumerate(cols):
            if k == cidx:
                continue
            a = col.component(j)
            if a:
                col = ctx.nf_vector(u * col - a * pivot)
                if not col:
                    continue
            out.append(col)
        del cand[j]
        cols = [
            Vector(ring, len(cand), {(comp - 1 if comp > j else comp, e): val
                                     for (comp, e), val in col.terms.items()})
            for col in out
        ]
    return cand, cols


def eliminating_resolution(gens, layout, ctx, cutoff):
    """``complexes.resolve_bounded`` with no certificate: every level, the
    last one included, computes its syzygies and strips its redundant
    candidates, and pdim is the first level whose syzygies are zero."""
    cand = [v for v in gens if v]
    if not cand:
        return ResolutionResult(layout, [], cutoff, 0)
    cur_layout, mats, pdim = layout, [], None
    for step in range(1, cutoff + 1):
        cols, syz = min_gens_with_syz(cand, cur_layout, ctx)
        if not cols:
            pdim = step - 1
            break
        twists = tuple(0 if ctx.order.is_local else v.degree_in(cur_layout) for v in cols)
        src = FreeLayout(len(cols), twists)
        mats.append(Matrix(cur_layout, src, cols))
        if not syz:
            pdim = step
            break
        cand, cur_layout = syz, src
    return ResolutionResult(layout, mats, cutoff, pdim)


def agreement_modules(count, seed=randomized.DEFAULT_SEED, p=32003):
    """The first ``count`` nontrivial modules the agreement suite draws."""
    rng = random.Random(seed)
    pool = randomized.ring_pool(p)
    out = []
    while len(out) < count:
        ring, truncation = pool[rng.randrange(len(pool))]
        try:
            mod = randomized.random_module(rng, ring)
        except ValueError:
            continue
        if not mod.is_free:
            out.append((mod, truncation))
    return out


def initial_generators(mpres):
    """N*'s minimal generators as ``modules.submodule_initial`` once found
    them: ``min_gens_with_syz`` over the A-normal forms of the initial forms
    of a certified local basis of N."""
    A = mpres.ring.graded_cover
    sb = standard_basis(mpres.gens, DS, mpres.layout, modulus=mpres.ring.ideal_sb)
    forms = [v for v in (A.nf_vector(g.initial_form()) for g in sb.gens) if v]
    return min_gens_with_syz(forms, mpres.layout, A)[0]


@dataclass
class PoincareSeries:
    coefficients: tuple
    closed_form: str = None


def poincare_from_hilbert(gmod, cutoff: int) -> PoincareSeries:
    """Total Betti numbers extracted from H_M(z) = z^d0 H_A(z) P(-z).

    Requires a linear resolution up to the cutoff; the extracted
    coefficients are checked against the directly computed Betti numbers.
    """
    table = minimal_graded_resolution(gmod, cutoff)
    rep = betti_analysis(table)
    if not (rep.is_pure and rep.is_linear):
        raise ValueError("module does not have a linear resolution within the cutoff")
    d0 = rep.delta[0] if rep.delta else 0
    hm = hilbert_series(gmod)
    ha = hilbert_series(ring_as_module(gmod.ring))
    upto = cutoff + max(d0, 0) + 1
    sm = hm.series(upto)
    sa = ha.series(upto)
    # Q(z) = P(-z) = H_M(z) / (z^d0 H_A(z)): divide series exactly
    shifted = sm[d0:] + [0] * d0
    q = [Fraction(0)] * (cutoff + 1)
    rem = [Fraction(x) for x in shifted]
    for k in range(cutoff + 1):
        q[k] = rem[k] / sa[0]
        for m in range(k, min(len(rem), k + len(sa))):
            rem[m] -= q[k] * sa[m - k]
    coeffs = []
    for i in range(cutoff + 1):
        val = q[i] * (-1) ** i
        if val.denominator != 1 or val < 0:
            raise BridgeError("Poincare extraction produced a non-Betti coefficient")
        coeffs.append(int(val))
    known = min(table.max_i, cutoff) if table.entries else -1
    for i in range(known + 1):
        if coeffs[i] != table.total(i):
            raise BridgeError("Poincare coefficients disagree with computed Betti numbers")
    if table.complete:
        coeffs = coeffs[: table.pdim + 1] + [0] * (cutoff - table.pdim)
    closed = f"H_M(-z) / ((-z)^{d0} * H_A(-z))" if d0 else "H_M(-z) / H_A(-z)"
    return PoincareSeries(tuple(coeffs), closed)
