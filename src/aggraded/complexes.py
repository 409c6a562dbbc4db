"""Free complexes, minimalization and bounded minimal resolutions.

A complex ``F_0 <- F_1 <- ... <- F_n`` is its list of differentials, each a
``Matrix`` that carries its target and source.  Nakayama's condition decides
minimality: a differential is minimal when no entry is a unit, and ``ctx`` (a ring
presentation) supplies ``unit_component``, the one test for a unit entry in
a column.  One step cancels a unit entry, ``_cancel_unit``: over a local ring
a polynomial unit u has no polynomial inverse, so the step is
denominator-free (a column with entry a beside the pivot becomes
``u*col - a*pivot``), the exact elimination composed with a unit rescaling
-- an isomorphic complex over the localization.

``resolve_bounded`` builds minimal resolutions level by level: syzygy
generators of a minimal generating set are unit-stripped by that step
(Nakayama) in ``min_gens_with_syz``, and the stripped syzygy matrix doubles
as the next level's candidate generators.  The last level's syzygies are
reported nowhere, so it skips them when ``_minimal_and_not_free``
certifies that no candidate would be stripped and that a syzygy exists
(more candidates than rows, McCoy): it keeps its candidates, and its record
is term for term the one that eliminating it would give.  A graded level of
any number of degrees is minimal when no candidate lies in the span of
those before it in degree order, one degree-truncated standard basis run
(``engine.minimal_in_degree_order``); a local level when its candidates have
one order and their initial forms are linearly independent over GF(p).
``minimalize`` applies the Nakayama step to every differential of a given
complex.

The normal-form contract: a stored column is in normal form.  A column is
reduced as a whole modulo I*F by its ring's ``nf_vector`` (under Mora up to
one unit for the column, so the module is the given one) once, where it is
made -- the one module constructor of both flavors, ``modules._Presentation``,
each syzygy column (``syzygy_columns``) and each stripped column that
``min_gens_with_syz`` creates -- and never again, so ``resolve_bounded``
reduces none of its columns (the local certificate normal-forms initial
forms over G(R), which are not stored).  Both
normal forms are idempotent and leave an irreducible lead, so orders, twists
and initial matrices are read off the stored columns.

``resolve_cached`` is the one resolution cache of the local and the graded
flavor, the resolution over the polynomial cover included.  It reads the
columns, layout, ring and ``cache`` off the module, keeps the resolution
there under its own name, and the kept resolution grows, never restarts.
A finite result (pdim not None) serves every cutoff, a truncated result
serves every cutoff up to its own, and a deeper cutoff resumes it:
``resolve_bounded`` runs on the stripped syzygy columns of its last level
(``ResolutionResult.rest``) for the missing levels only.  A certified last
level keeps its columns there with their syzygies pending; the resume first
computes them (``syzygy_columns``), which is what ``min_gens_with_syz``
returns for a level that strips nothing.  A level gets the same inputs
either way, so the record served at any cutoff is term for term what
``resolve_bounded`` returns there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate

from .engine import minimal_in_degree_order, syzygies
from .poly import FreeLayout, Vector


class NotAComplexError(ValueError):
    pass


class Matrix:
    """Columns of a map source -> target between free layouts."""

    __slots__ = ("target", "source", "columns")

    def __init__(self, target: FreeLayout, source: FreeLayout, columns):
        if len(columns) != source.rank:
            raise ValueError("column count must match source rank")
        self.target = target
        self.source = source
        self.columns = list(columns)

    def compose(self, other: "Matrix") -> "Matrix":
        """self o other, as a matrix source(other) -> target(self)."""
        cols = []
        for v in other.columns:
            acc = Vector(v.ring, self.target.rank, {})
            for k, f in v.components().items():
                acc = acc + f * self.columns[k]
            cols.append(acc)
        return Matrix(self.target, other.source, cols)

    def is_zero_mod(self, nf_vector) -> bool:
        return all(nf_vector(v).is_zero() for v in self.columns)

    def __repr__(self):
        return f"Matrix({self.target.rank}x{self.source.rank})"


def check_complex(mats, nf_vector):
    """Raise unless ``mats`` is a complex: each differential's source is the
    next one's target, and each composition is zero modulo ``nf_vector``."""
    for i, (d, e) in enumerate(zip(mats, mats[1:]), start=1):
        if d.source != e.target:
            raise NotAComplexError(f"differentials {i} and {i + 1} do not meet at F_{i}")
        if not d.compose(e).is_zero_mod(nf_vector):
            raise NotAComplexError(f"composition at position {i} is nonzero")


# ------------------------------------------------------------ minimalize


def _drop(v: Vector, j) -> Vector:
    """``v`` without component j, the later components moved down by one."""
    return Vector(v.ring, v.rank - 1, {(c - 1 if c > j else c, e): a
                                       for (c, e), a in v.terms.items() if c != j})


def _cancel_unit(cols, k, j, ctx):
    """Cancel the unit entry u of column k in component j.

    Every other column with a nonzero entry a in component j becomes
    ``nf_vector(u*col - a*pivot)``; the rest are kept.  The pivot column and
    component j are dropped, and zero columns stay in place.
    """
    pivot = cols[k]
    u = pivot.component(j)
    out = []
    for i, col in enumerate(cols):
        if i != k:
            a = col.component(j)
            out.append(_drop(ctx.nf_vector(u * col - a * pivot) if a else col, j))
    return out


def minimalize(mats, ctx):
    """Homotopy-equivalent complex with no unit entries in any differential.

    ``ctx`` provides nf_vector and unit_component for the ambient (quotient)
    ring.  ``mats`` must be a complex; ranks drop by one per cancellation.  A
    unit u in component j of column k of d_i is cancelled by
    ``_cancel_unit``, which drops component k of d_{i+1} and column j of
    d_{i-1}.  The columns of d_i that it leaves unscaled have their
    components in d_{i+1} multiplied by u, so every composition stays zero:
    the result is the exact elimination with d_{i+1} rescaled by u.
    """
    cols = [list(m.columns) for m in mats]
    twists = [list(m.target.twists) for m in mats[:1]] + [list(m.source.twists) for m in mats]
    while True:
        spot = next(((i, k, j) for i, c in enumerate(cols) for k, v in enumerate(c)
                     if (j := ctx.unit_component(v)) is not None), None)
        if spot is None:
            break
        i, k, j = spot
        u = cols[i][k].component(j)
        unscaled = {c for c, v in enumerate(cols[i]) if not v.component(j)}
        cols[i] = _cancel_unit(cols[i], k, j, ctx)
        for n, w in enumerate(cols[i + 1] if i + 1 < len(cols) else ()):
            rows = Vector(w.ring, w.rank, {t: a for t, a in w.terms.items() if t[0] in unscaled})
            cols[i + 1][n] = _drop(ctx.nf_vector(w - rows + u * rows), k)
        if i > 0:
            del cols[i - 1][j]
        del twists[i][j], twists[i + 1][k]
    layouts = [FreeLayout(len(tw), tuple(tw)) for tw in twists]
    return [Matrix(layouts[i], layouts[i + 1], c) for i, c in enumerate(cols)]


# ---------------------------------------------------- bounded resolutions

@dataclass
class ResolutionResult:
    """A minimal free resolution F_0 <- F_1 <- ... of one flavor, up to a
    homological cutoff.  ``pdim`` is None unless the resolution is certified
    finite within the cutoff.  Orders and twists are read off the stored
    columns, which are in normal form."""

    layout: FreeLayout    # F_0
    mats: list            # Matrix phi_1 .. phi_k (minimal)
    cutoff: int
    pdim: int | None = None
    # not finite, to resume from: (columns, layout, pending), the next level's
    # candidates in their layout, or, pending, the last level's own columns in
    # its target, whose syzygies are the next level's candidates
    rest: tuple = field(default=None, kw_only=True, repr=False)

    @property
    def finite(self):
        return self.pdim is not None

    @property
    def betti(self):
        return [m.source.rank for m in self.mats]

    @property
    def ranks(self):
        return [self.layout.rank] + self.betti

    def column_orders(self, i):
        """Orders of the columns of phi_i (1-based)."""
        return [v.order() for v in self.mats[i - 1].columns]

    @property
    def s(self):
        """s_i = nu(phi_i), per homological degree 1..len."""
        return [min(self.column_orders(i)) for i in range(1, len(self.mats) + 1)]

    @property
    def delta(self):
        """delta_i = s_1 + ... + s_i with delta_0 = 0."""
        return list(accumulate(self.s, initial=0))


def syzygy_columns(cand, layout, ctx):
    """The nonzero normal forms of the syzygy generators of ``cand`` in
    ``layout`` over ``ctx``: the next level's candidates of a minimal level,
    and route B's kernel generators of a differential."""
    syz = syzygies(cand, ctx.order, layout, modulus=ctx.ideal_sb)
    return [w for w in (ctx.nf_vector(v) for v in syz.columns) if w]


def min_gens_with_syz(cand, layout, ctx):
    """Minimal generating subset of <cand> and generators of its syzygies.

    ``cand`` holds nonzero columns in normal form and is left unchanged.
    A unit entry in the syzygy matrix witnesses a redundant generator
    (Nakayama): the first column with a unit entry, in its smallest such
    component, is the pivot of ``_cancel_unit``, which drops that generator
    with a denominator-free column operation and keeps the remaining columns
    generating over the localization.  Zero columns are dropped.
    """
    cand = list(cand)
    if not cand:
        return [], []
    cols = syzygy_columns(cand, layout, ctx)
    while True:
        spot = next(((k, j) for k, v in enumerate(cols)
                     if (j := ctx.unit_component(v)) is not None), None)
        if spot is None:
            return cand, cols
        k, j = spot
        del cand[j]
        cols = [v for v in _cancel_unit(cols, k, j, ctx) if v]


def _independent(vectors, p):
    """Whether the vectors' coefficient dicts are linearly independent over
    GF(p): a sparse elimination whose stored rows have their largest key as
    pivot, with pivot coefficient 1."""
    pivots = {}
    for v in vectors:
        row = dict(v.terms)
        while row:
            key = max(row)
            pivot = pivots.get(key)
            if pivot is None:
                inv = pow(row[key], -1, p)
                pivots[key] = {t: a * inv % p for t, a in row.items()}
                break
            c = row[key]
            for t, a in pivot.items():
                b = (row.get(t, 0) - c * a) % p
                if b:
                    row[t] = b
                else:
                    del row[t]
        else:
            return False
    return True


def _minimal_and_not_free(cand, layout, ctx):
    """A certificate that ``min_gens_with_syz`` would keep ``cand`` whole
    and return a nonzero syzygy, without computing the syzygies.

    Not free (McCoy): more columns than rows have a nonzero syzygy over any
    commutative ring.  Minimal (Nakayama): ``min_gens_with_syz`` strips a
    candidate exactly when some syzygy has a unit entry, since syzygy
    generators whose entries all lie in the maximal ideal generate only such
    syzygies.

    Graded, of any number of degrees: the ring and the columns are
    homogeneous, so the degree-D part of a syzygy is a syzygy, and one with
    a unit entry may be taken homogeneous.  Its unit entries then sit at
    candidates of degree D and its other entries at candidates of lower
    degree, so its last unit-entry candidate in degree order lies in the span
    of the candidates before it.  Conversely, a candidate in that span gives
    a syzygy with entry 1.  ``engine.minimal_in_degree_order`` decides that
    no candidate lies in the span of those before it.

    Local, of one order s only: a syzygy with a unit entry gives a GF(p)-
    linear relation with a nonzero coefficient among the degree-s parts of
    the columns, normal-formed over A = G(R), since m*K lies in m^{s+1}F.
    So their independence leaves no unit entry to strip.
    """
    if len(cand) <= layout.rank:
        return False
    if not ctx.order.is_local:
        return minimal_in_degree_order(cand, ctx.order, layout, ctx.ideal_sb)
    s = cand[0].order()
    if any(v.order() != s for v in cand):
        return False
    A = ctx.graded_cover
    return _independent([A.nf_vector(v.initial_form()) for v in cand], ctx.cover.p)


def resolve_bounded(gens, layout, ctx, cutoff):
    """Minimal free resolution of coker(gens in F) up to homological cutoff.

    Over the graded flavor (a global order) the source twists are the column
    degrees; over the local flavor all twists are zero.  ``ctx`` supplies
    order, ideal_sb, nf_vector and unit_component.  The generators are in
    normal form (stored columns); zero ones are dropped, and a free
    cokernel (none left) has pdim 0 at every cutoff.  Each level is
    ``min_gens_with_syz``: its unit-stripped syzygies are the next level's
    candidates.  The last level skips it when ``_minimal_and_not_free``
    holds: it keeps its candidates, and its syzygies stay pending.
    """
    cand = [v for v in gens if v]
    if not cand:
        return ResolutionResult(layout, [], cutoff, 0)
    cur_layout = layout
    mats = []
    pdim = None
    pending = False
    for step in range(1, cutoff + 1):
        pending = step == cutoff and _minimal_and_not_free(cand, cur_layout, ctx)
        cols, syz = (cand, None) if pending else min_gens_with_syz(cand, cur_layout, ctx)
        if not cols:
            pdim = step - 1
            break
        if ctx.order.is_local:
            twists = (0,) * len(cols)
        else:
            twists = tuple(v.degree_in(cur_layout) for v in cols)
        src = FreeLayout(len(cols), twists)
        mats.append(Matrix(cur_layout, src, cols))
        if pending:
            break
        if not syz:
            pdim = step
            break
        cand, cur_layout = syz, src
    rest = (cand, cur_layout, pending) if pdim is None else None
    return ResolutionResult(layout, mats, cutoff, pdim, rest=rest)


def resolve_cached(mod, cutoff) -> ResolutionResult:
    """``resolve_bounded`` of the module ``mod`` (its ``gens`` in its
    ``layout`` over its ``ring``), from the result kept in its cache, which
    grows, never restarts: a call computes only the levels that the kept
    result lacks (module docstring)."""
    if cutoff < 0:
        raise ValueError("the homological cutoff must be nonnegative")
    cache = mod.cache
    kept = cache.get(resolve_cached)
    if kept is None:
        cache[resolve_cached] = kept = resolve_bounded(mod.gens, mod.layout, mod.ring, cutoff)
    elif not kept.finite and cutoff > kept.cutoff:
        cand, layout, pending = kept.rest
        if pending:
            cand, layout = syzygy_columns(cand, layout, mod.ring), kept.mats[-1].source
        more = resolve_bounded(cand, layout, mod.ring, cutoff - kept.cutoff)
        pdim = kept.cutoff + more.pdim if more.finite else None
        cache[resolve_cached] = kept = ResolutionResult(mod.layout, kept.mats + more.mats, cutoff,
                                                        pdim, rest=more.rest)
    if cutoff == kept.cutoff:
        return kept
    if kept.finite and cutoff >= kept.pdim:
        return replace(kept, cutoff=cutoff)
    return ResolutionResult(mod.layout, kept.mats[:cutoff], cutoff)
