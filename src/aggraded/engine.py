"""Standard bases, weak normal forms and syzygies.

One engine serves both flavors: Buchberger's algorithm under global orders,
Mora's ecart-based variant under local ones.  Computations over a quotient
ring P/I are performed at the polynomial level, modulo I*F: the reducers g
of a rank-1 standard basis of I act in place as g*e_c in any component c
they reduce, with no copy (``_weak_nf``).  They are a standard basis of I*F
as they stand, so they open no pairs among themselves.

Syzygies are computed by the block-elimination construction: each column
``v_j`` is augmented to ``v_j + eps_j`` in ``F (+) R^k`` with the F-block
dominant in the order; basis elements with vanishing F-part have epsilon
parts that generate the syzygy module.

The hot loops work on raw term dicts ``{(comp, exps): coeff}`` and on
indexes keyed by lead component, in the spirit of Gebauer and Moeller
("On an installation of Buchberger's algorithm", 1988):

- reducers are looked up in ``{comp: [reducer, ...]}``, each list in
  insertion order, so only reducers whose lead shares the component of the
  term being reduced are scanned;
- the pair queue is a ``heapq`` heap of ``(sugar, 0, (i, j))``; pairs
  pruned by the Gebauer-Moeller criterion stay in the heap and are skipped
  when popped;
- the pair prune and the new-pair loop visit only the pairs and positions
  of the new element's lead component, positions kept ascending;
- a term's key puts the order's largest term first (smallest), so the
  element being reduced keeps a lazy heap of ``(key, term)``: its lead is
  the top whose term is still present, and a reduction step pushes only the
  terms new to it.  Under Mora its ecart is read from a count of its terms
  per weighted degree;
- every reducer and live pair carries the short exponent vector of its lead
  or lcm (a bitmask of the positive exponents; Bachmann and Schoenemann,
  "Monomial representations for Groebner bases computations", 1998), which
  rules out most divisibility tests with one ``&``.

Each index keeps the relative order of the linear scan it replaces and
every key is unique, so the pairs and reducers are chosen in the same
order as by a scan, and the bases come out term for term the same.
``tests/reference_checks.scan_weak_nf`` keeps the scan as the reference.

Three shortcuts skip work whose result is known, and give the same result
term for term, in the same dict order.  A fourth skips work whose result is
redundant, and gives fewer syzygy columns that generate the same module.  A
fifth answers one question with part of a standard basis:

- ``StandardBasis.reduce`` returns an irreducible column at once for a
  rank-1 basis of an ideal, before any heap or dict is built.  Under Mora
  the column is irreducible when no lead divides its lead, and it comes back
  unchanged.  Under a global order no lead may divide any term, and the
  terms come back sorted by the key, lead first, as the remainder collects
  them.  The test reads the leads' short exponent vectors;
- ``_buchberger`` queues no pair of two single-term reducers: both are
  monic, so their s-vector is zero.  The pair still takes part in the
  minimal-lcm filter, so no other pair's fate changes;
- ``syzygies`` keeps the elements whose lead lies past F: under the
  elimination key these are exactly the elements with zero F-part;
- in ``syzygies`` an element whose lead lies past F opens no pairs
  (``_buchberger``'s ``pair_bound`` is the rank of F).  Such a pair's
  s-vector has zero F-part and only adds a combination of kernel elements
  already found.  The elements that lead in F, with I*F, still have all
  their pairs reduced, so their F-parts are a standard basis of the image.
  By Schreyer's theorem the lifted s-relations of that basis generate every
  relation among its elements, up to a unit under Mora, and each of them
  reduces to zero against the kernel elements kept, which are still
  reducers (Greuel and Pfister, *A Singular Introduction to Commutative
  Algebra*, section 2.5).  ``standard_basis`` passes its own rank, which no
  lead reaches, so every element there opens its pairs as before;
- ``minimal_in_degree_order`` asks whether some homogeneous column lies in
  the span of the columns before it in degree order, modulo I*F.
  ``_buchberger``'s truncated run queues each column as a seed ``(degree, 1,
  index)``, after the pairs ``(degree, 0, (i, j))`` of its degree, and
  lead-reduces it when it comes off: it is in that span exactly when it
  reduces to zero.  Sugar is the degree of homogeneous input, so when a seed
  of degree d comes off, every pair of degree at most d among the elements
  before it is reduced or pruned, and they are a d-truncated standard basis
  of the span of the seeds before it with I*F.  The run stops at the first
  zero or after the last seed, and reduces no pair of a higher degree
  (Singular's ``mstd`` and ``minbase``; Greuel and Pfister, sections
  2.1-2.5).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import chain
from operator import add

from .orders import OrderSpec
from .poly import (FreeLayout, Polynomial, Vector, mon_deg, mon_div, mon_divides, mon_lcm,
                   mon_mul)


class EngineError(RuntimeError):
    pass


MAX_REDUCTION_STEPS = 2_000_000

# ------------------------------------------------------------ term helpers


def _make_keys(order: OrderSpec, shifts, elim_rank=None):
    """Key and weighted-degree functions on terms (comp, exps).

    The key of the order's largest term is the smallest one, so a lead is a
    minimum and the top of a heap of keys.  Each key determines its term.
    """
    sign = 1 if order.is_local else -1

    def wdeg(t):
        return sum(t[1]) + shifts[t[0]]

    if elim_rank is None:
        def key(t):
            c, e = t
            return (sign * (sum(e) + shifts[c]), e[::-1], c)
    else:
        def key(t):
            c, e = t
            return (0 if c < elim_rank else 1, sign * (sum(e) + shifts[c]), e[::-1], c)

    return key, wdeg


def _lt(terms, key):
    return min(terms, key=key)


def _sev(exps):
    """The short exponent vector of a monomial: bit i is set when exponent i
    is positive.  a divides b only if sev(a) & ~sev(b) == 0."""
    s = 0
    for i, x in enumerate(exps):
        if x:
            s |= 1 << i
    return s


def _sub_scaled(h, g_terms, shift, coeff, p, off=0):
    """In place: h -= coeff * x^shift * g, each term of g in component c + off."""
    for (c, e), a in g_terms.items():
        t = (c + off, tuple(map(add, e, shift)))
        v = (h.get(t, 0) - coeff * a) % p
        if v:
            h[t] = v
        else:
            h.pop(t, None)


def _scale(terms, c, p):
    return {t: a * c % p for t, a in terms.items()}


class _Red:
    """A monic reducer with cached lead data: the lead term, its ecart and
    the short exponent vector of its lead monomial."""

    __slots__ = ("terms", "lt", "ecart", "sev")

    def __init__(self, terms, lt, ecart):
        self.terms = terms
        self.lt = lt
        self.ecart = ecart
        self.sev = _sev(lt[1])


def _lead(terms, key, wdeg):
    """(lead term, ecart) of a nonzero term dict."""
    lt = _lt(terms, key)
    return lt, max(map(wdeg, terms)) - wdeg(lt)


def _index(reds):
    """{lead component: [reducer, ...]}, each list in the order of ``reds``."""
    index = {}
    for r in reds:
        index.setdefault(r.lt[0], []).append(r)
    return index


def _weak_nf(h, index, key, wdeg, p, mora, tail=False, ideal=(), below=0):
    """Reduce dict h against the reducers of ``index`` (see ``_index``) and
    the ideal's rank-1 reducers ``ideal``, acting as g*e_c in each component
    c < ``below``; returns (remainder dict, its lead term, its ecart), the
    last two None when the remainder is zero.

    mora=True: Mora weak normal form (intermediates may serve as reducers,
    so the result is valid up to a unit); lead-irreducible remainder, tail
    untouched.  mora=False: classical division with remainder; with tail=True
    the remainder's tail is fully reduced as well.

    The lead of h is the top of a heap of (key, term) pairs whose term is
    still in h: a subtraction pushes only the terms new to h, and the pairs
    of cancelled terms are dropped when they reach the top.  Under Mora,
    ``counts`` holds the number of terms of h per weighted degree, so the
    ecart of h is max(counts) - wdeg(lead).  The reducer chosen is the first
    of least ecart whose lead divides the lead of h, the ideal's reducers
    before those of ``index`` and these before intermediates, as a scan of h
    and of the candidates would choose.  A reducer's term in component c is
    subtracted in component c + comp - (the reducer's lead component): in
    comp for the ideal's reducers (lead component 0), in c for the others.
    """
    if not h:
        return h, None, None
    heap = [(key(t), t) for t in h]
    heapq.heapify(heap)
    counts = {}
    if mora:
        for t in h:
            d = wdeg(t)
            counts[d] = counts.get(d, 0) + 1
    inter = {}
    rem = {}
    steps = 0
    while h:
        while heap[0][1] not in h:
            heapq.heappop(heap)
        lt = heap[0][1]
        comp, exps = lt
        nsev = ~_sev(exps)
        cands = index.get(comp, ())
        if comp < below:
            cands = chain(ideal, cands)
        if inter:
            cands = chain(cands, inter.get(comp, ()))
        best = None
        for r in cands:
            if r.sev & nsev or (best is not None and r.ecart >= best.ecart):
                continue
            if mon_divides(r.lt[1], exps):
                best = r
                if not r.ecart:
                    break
        if best is None:
            if mora or not tail:
                break
            # move the irreducible lead into the remainder, keep reducing
            rem[lt] = h.pop(lt)
            continue
        coeff = h[lt]
        if mora:
            h_ecart = max(counts) - wdeg(lt)
            if best.ecart > h_ecart:
                inter.setdefault(comp, []).append(
                    _Red(_scale(h, pow(coeff, -1, p), p), lt, h_ecart))
        # h -= coeff * x^shift * best, keeping the heap and the counts
        shift = mon_div(exps, best.lt[1])
        off = comp - best.lt[0]
        for (c, e), a in best.terms.items():
            t = (c + off, tuple(map(add, e, shift)))
            v = h.get(t)
            if v is None:
                v = -coeff * a % p
                if v:
                    h[t] = v
                    heapq.heappush(heap, (key(t), t))
                    if mora:
                        d = wdeg(t)
                        counts[d] = counts.get(d, 0) + 1
                continue
            v = (v - coeff * a) % p
            if v:
                h[t] = v
                continue
            del h[t]
            if mora:
                d = wdeg(t)
                if counts[d] == 1:
                    del counts[d]
                else:
                    counts[d] -= 1
        steps += 1
        if steps > MAX_REDUCTION_STEPS:
            raise EngineError("reduction step limit exceeded")
    if rem:
        h.update(rem)
        lt = next(iter(rem))
    elif not h:
        return h, None, None
    if mora:
        return h, lt, max(counts) - wdeg(lt)
    return h, lt, max(map(wdeg, h)) - wdeg(lt)


# ------------------------------------------------------------ public types


class StandardBasis:
    """A certified standard basis of a submodule of a free module.

    ``gens`` are monic, lead-interreduced Vectors under either order: no
    lead divides another lead of its component, nor a lead of I*F.  Under a
    global order they are tail-reduced as well.  Over a quotient ring
    ``modulus`` is the rank-1 basis of the defining ideal I, and reduction
    against the basis is reduction against ``gens`` and I*F, whose reducers
    act in place (``_weak_nf``); ``gens`` do not list I*F.  A rank-1 basis
    of an ideal J also reduces columns of any rank modulo J*F.
    """

    __slots__ = ("ring", "layout", "order", "gens", "modulus", "_key", "_wdeg", "_reds",
                 "_index", "_leads", "_column_keys")

    def __init__(self, ring, layout, order, gens, modulus=None):
        self.ring = ring
        self.layout = layout
        self.order = order
        self.gens = gens
        self.modulus = modulus
        self._key, self._wdeg = _make_keys(order, layout.twists)
        self._reds = [_Red(g.terms, *_lead(g.terms, self._key, self._wdeg)) for g in gens]
        self._index = _index(self._reds)
        self._leads = [(r.sev, r.lt[1]) for r in self._reds]
        # keys for a column of any rank with untwisted components
        self._column_keys = _make_keys(order, defaultdict(int))

    def _divisible(self, exps):
        """Whether a lead of this basis divides the monomial ``exps``."""
        nsev = ~_sev(exps)
        for sev, lead in self._leads:
            if not sev & nsev and mon_divides(lead, exps):
                return True
        return False

    def reduce(self, v):
        """The (weak, under a local order) normal form of the Vector v.  For a
        rank-1 basis of an ideal v may have any rank and is reduced as a whole,
        under keys that read only its own components: O(terms), not O(rank).

        Such a basis returns an irreducible v at once, as ``_weak_nf``
        would: under Mora when no lead divides v's lead (v unchanged), under
        a global order when no lead divides any term (v's terms from the
        lead down, the order in which the remainder collects them)."""
        key, wdeg, index, modulus = self._key, self._wdeg, self._index, self.modulus
        mora = self.order.is_local
        terms = v.terms
        if modulus is None and self.layout.rank == 1:
            if v.rank > 1:
                key, wdeg = self._column_keys
            if mora:
                if not terms or not self._divisible(min(terms, key=key)[1]):
                    return Vector(self.ring, v.rank, dict(terms))
            elif not any(self._divisible(e) for _, e in terms):
                return Vector(self.ring, v.rank, {t: terms[t] for t in sorted(terms, key=key)})
            modulus, index = self, {}       # its reducers act in place, as a modulus's
        ideal, below = (modulus._reds, v.rank) if modulus is not None else ((), 0)
        h = _weak_nf(dict(terms), index, key, wdeg, self.ring.p, mora, not mora, ideal, below)[0]
        return Vector(self.ring, v.rank, h)

    def contains(self, v):
        return self.reduce(v).is_zero()


def normal_form(v, basis: StandardBasis):
    """Normal form of a Vector or Polynomial against a certified basis.

    Global flavor: honest remainder.  Local flavor: Mora weak normal form,
    valid up to a unit multiplier.
    """
    if isinstance(v, Polynomial):
        return basis.reduce(Vector.from_polys([v])).component(0)
    return basis.reduce(v)


# ----------------------------------------------------------- the algorithm


def _as_vectors(gens):
    out = []
    for g in gens:
        if isinstance(g, Polynomial):
            g = Vector.from_polys([g])
        out.append(g)
    return out


def _pair_sugar(sug_i, red_i, sug_j, red_j, lcm_exps):
    di = sug_i + mon_deg(lcm_exps) - mon_deg(red_i.lt[1])
    dj = sug_j + mon_deg(lcm_exps) - mon_deg(red_j.lt[1])
    return max(di, dj)


def _buchberger(ring, rank, order, key, wdeg, seed, ideal, below, pair_bound, truncated=False):
    """Core loop.  seed: list of Vector-term dicts.  ideal: the rank-1
    reducers acting as g*e_c in each component c < below, at position
    g*below + c; they open no pairs among themselves.  An element whose lead
    component is >= ``pair_bound`` opens no pairs: it is appended and reduces
    later remainders, and with ``pair_bound == rank`` every element opens its
    pairs.  Returns the monic reducers (``_Red``) after the ideal's; with
    every pair opened they and I*F are a standard basis (not yet
    interreduced).

    ``truncated`` (homogeneous seed, global order): each seed enters the
    queue under its degree, after the pairs of that degree, the seeds of one
    degree in seed order.  A seed is lead-reduced when it comes off and
    appended; the run returns None at the first seed that reduces to zero,
    and otherwise ends once the last seed is appended, with no pair of a
    higher degree reduced."""
    p = ring.p
    mora = order.is_local
    reds = [g for g in ideal for _ in range(below)]
    sugars = [wdeg((c, g.lt[1])) + g.ecart for g in ideal for c in range(below)]
    n = len(reds)
    index = {}        # lead component -> reducers after the ideal's, in insertion order
    positions = {c: list(range(c, n, below)) for c in range(below)}    # ascending
    pairs = {}        # lead component -> {(i, j): (sugar, lcm, sev of lcm)}, the live pairs
    queue = []        # heap of (sugar, 0, (i, j)) and (sugar, 1, seed); may hold pruned pairs

    def add_pairs(new):
        lt_new, sev_new = reds[new].lt, reds[new].sev
        live = pairs.setdefault(lt_new[0], {})
        # Gebauer-Moeller: prune existing pairs strictly dominated by lt_new
        for (i, j), (_, L, sev_L) in list(live.items()):
            if (
                not sev_new & ~sev_L
                and mon_divides(lt_new[1], L)
                and mon_lcm(reds[i].lt[1], lt_new[1]) != L
                and mon_lcm(reds[j].lt[1], lt_new[1]) != L
            ):
                del live[(i, j)]
        # candidate pairs with the new element, grouped by lcm
        cand = {}
        for i in positions.get(lt_new[0], ()):
            L = mon_lcm(reds[i].lt[1], lt_new[1])
            cand.setdefault(L, []).append(i)
        # keep only divisibility-minimal lcms, one representative per lcm
        kept = []
        for L in sorted(cand, key=lambda e: (sum(e), e)):
            sev_L = reds[cand[L][0]].sev | sev_new
            for K, sev_K in kept:
                if not sev_K & ~sev_L and mon_divides(K, L):
                    break
            else:
                kept.append((L, sev_L))
        single = len(reds[new].terms) == 1
        for L, sev_L in kept:
            members = cand[L]
            # certified groups: product criterion (ideal case, global order)
            if not mora and rank == 1 and any(
                mon_mul(reds[i].lt[1], lt_new[1]) == L for i in members
            ):
                continue
            i = min(members)
            if single and len(reds[i].terms) == 1:
                continue        # two monic terms: the s-vector is zero
            sug = _pair_sugar(sugars[i], reds[i], sugars[new], reds[new], L)
            live[(i, new)] = (sug, L, sev_L)
            heapq.heappush(queue, (sug, 0, (i, new)))

    def append(red, sugar):
        idx = len(reds)
        reds.append(red)
        sugars.append(sugar)
        index.setdefault(red.lt[0], []).append(red)
        if red.lt[0] < pair_bound:
            add_pairs(idx)
            positions.setdefault(red.lt[0], []).append(idx)

    left = len(seed) if truncated else 0       # seeds still in the queue
    for s, terms in enumerate(seed):
        sugar = max(map(wdeg, terms))
        if truncated:
            heapq.heappush(queue, (sugar, 1, s))    # after the pairs (sugar, 0, (i, j))
            continue
        lt = _lt(terms, key)
        append(_Red(_scale(terms, pow(terms[lt], -1, p), p), lt, sugar - wdeg(lt)), sugar)

    while queue:
        sug, seeded, x = heapq.heappop(queue)
        if seeded:
            h, lt, ecart = _weak_nf(seed[x], index, key, wdeg, p, False, False, ideal, below)
            if not h:
                return None
            append(_Red(_scale(h, pow(h[lt], -1, p), p), lt, ecart), sug)
            left -= 1
            if not left:
                break
            continue
        i, j = x
        comp = reds[j].lt[0]        # j is newer than i: never a position of the ideal
        entry = pairs[comp].pop((i, j), None)
        if entry is None:
            continue        # pruned after it was queued
        _, L, _ = entry
        # s-vector of monic reducers i and j, both in component comp
        h = {}
        _sub_scaled(h, reds[i].terms, mon_div(L, reds[i].lt[1]), p - 1, p, comp - reds[i].lt[0])
        _sub_scaled(h, reds[j].terms, mon_div(L, reds[j].lt[1]), 1, p)
        if not h:
            continue
        h, lt, ecart = _weak_nf(h, index, key, wdeg, p, mora, False, ideal, below)
        if h:
            append(_Red(_scale(h, pow(h[lt], -1, p), p), lt, ecart), sug)

    return reds[n:]


def _interreduce(reds, key, wdeg, p, mora, ideal, below):
    """Drop lead-dominated reducers, the leads of I*F included, keeping the
    order of the rest; tail-reduce under global orders, the ideal acting in
    place.  Returns term dicts."""
    kept = []
    kept_lts = {}     # lead component -> lead monomials kept so far
    # the smallest leads first; reverse=True keeps equal keys in input order
    for red in sorted(reds, key=lambda r: key(r.lt), reverse=True):
        comp, exps = red.lt
        if (comp < below and any(mon_divides(g.lt[1], exps) for g in ideal)
                or any(mon_divides(e, exps) for e in kept_lts.get(comp, ()))):
            continue
        kept_lts.setdefault(comp, []).append(exps)
        kept.append(red)
    if mora:
        # the smallest leads came first, and under Mora they are the multiples
        return [r.terms for r in kept
                if not any(e != r.lt[1] and mon_divides(e, r.lt[1]) for e in kept_lts[r.lt[0]])]
    index = _index(kept)
    out = []
    for red in kept:
        # reduce against every other kept element
        same = index[red.lt[0]]
        index[red.lt[0]] = [r for r in same if r is not red]
        h, lt, _ = _weak_nf(dict(red.terms), index, key, wdeg, p, False, True, ideal, below)
        index[red.lt[0]] = same
        out.append(_scale(h, pow(h[lt], -1, p), p))
    return out


def standard_basis(gens, order: OrderSpec, layout: FreeLayout = None, modulus=None):
    """Certified standard basis of the submodule generated by ``gens``.

    ``modulus``: a rank-1 StandardBasis of the defining ideal under
    ``order``, or None; computation then happens over the quotient ring.
    """
    gens = _as_vectors([g for g in gens if g])
    if not gens and modulus is None:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring if gens else modulus.ring
    if layout is None:
        rank = gens[0].rank if gens else 1
        layout = FreeLayout(rank)
    key, wdeg = _make_keys(order, layout.twists)
    ideal, below = (modulus._reds, layout.rank) if modulus is not None else ((), 0)
    seed = [dict(v.terms) for v in gens]
    reds = _buchberger(ring, layout.rank, order, key, wdeg, seed, ideal, below, layout.rank)
    dicts = _interreduce(reds, key, wdeg, ring.p, order.is_local, ideal, below)
    vecs = [Vector(ring, layout.rank, d) for d in dicts]
    return StandardBasis(ring, layout, order, vecs, modulus)


def minimal_in_degree_order(cols, order: OrderSpec, layout: FreeLayout, modulus=None):
    """Whether no column of ``cols`` lies in the submodule that the columns
    before it generate, modulo I*F, the columns taken by degree and those of
    one degree in the given order.  ``cols`` are homogeneous in ``layout``
    and ``order`` is global; ``modulus`` is a rank-1 standard basis of I, or
    None.  One truncated ``_buchberger`` run answers it (module docstring).
    """
    key, wdeg = _make_keys(order, layout.twists)
    if order.is_local or any(len(set(map(wdeg, v.terms))) != 1 for v in cols):
        raise ValueError("a degree-truncated run needs nonzero homogeneous columns "
                         "under a global order")
    if not cols:
        return True
    ideal, below = (modulus._reds, layout.rank) if modulus is not None else ((), 0)
    seed = [dict(v.terms) for v in cols]
    return _buchberger(cols[0].ring, layout.rank, order, key, wdeg, seed, ideal, below,
                       layout.rank, truncated=True) is not None


class SyzygyMatrix:
    """Columns generating the syzygy module of a list of target columns."""

    __slots__ = ("columns", "target")

    def __init__(self, columns, target):
        self.columns = columns
        self.target = target


def syzygies(cols, order: OrderSpec, layout: FreeLayout = None, modulus=None):
    """Generators of the syzygy module of ``cols`` over the (quotient) ring.

    Zero columns are allowed; they contribute unit syzygies.
    """
    cols = _as_vectors(cols)
    if not cols:
        return SyzygyMatrix([], [])
    ring = cols[0].ring
    if layout is None:
        layout = FreeLayout(cols[0].rank)
    l, k = layout.rank, len(cols)
    eps_shifts = []
    fkey, fwdeg = _make_keys(order, layout.twists)
    for v in cols:
        eps_shifts.append(fwdeg(_lt(v.terms, fkey)) if v.terms else 0)
    shifts = tuple(layout.twists) + tuple(eps_shifts)
    key, wdeg = _make_keys(order, shifts, elim_rank=l)
    zm = ring._zero_mon
    seed = [{**v.terms, (l + j, zm): 1} for j, v in enumerate(cols)]
    ideal, below = (modulus._reds, l) if modulus is not None else ((), 0)
    # the elimination key puts every term of F above the epsilon block, so an
    # element has zero F-part exactly when its lead lies past F; such elements
    # open no pairs (see the module docstring)
    reds = _buchberger(ring, l + k, order, key, wdeg, seed, ideal, below, l)
    kernel = [r.terms for r in reds if r.lt[0] >= l]
    out = [Vector(ring, k, {(c - l, e): a for (c, e), a in d.items()}) for d in kernel]
    out.sort(key=lambda v: sorted(v.terms))
    return SyzygyMatrix(out, cols)
