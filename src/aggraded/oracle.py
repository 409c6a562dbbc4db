"""Independent verification backend: truncated linear-algebra models.

Everything here is plain row reduction over GF(p) on the raw input
presentations (no standard bases, no normal forms): the model of F/m^t F is
the coordinate space of module monomials of degree < t modulo the row space
spanned by all monomial multiples of the defining-ideal generators, and a
submodule is the row space of all monomial multiples of its generators.

A monomial multiple touches a handful of coordinates, so those matrices are
almost empty: ``_multiple_rows`` builds sparse rows {coordinate: value}, and
``rref_modp`` reduces them by incremental Gauss-Jordan in Python ints, exact
for every characteristic of the prime field.  The relations are eliminated
once per model; a submodule's elimination starts from their echelon rows as
ready pivots and reduces only the multiples of its generators.  An echelon
form (``Subspace``) is the unique RREF, kept as its sparse rows by pivot
column, and every reader works on those rows.

Coordinates are sorted degree-ascending (grevlex-descending inside a
degree, component-ascending last), so echelon pivots are exactly the
leading monomials of initial forms: the non-pivot monomials of the quotient
model are the standard monomials of the tangent cone, per component.

So a pivot's column gives the degree of its row's initial form, and every
filtration query is read off one echelon form W = RREF(Rel + N) of a
submodule, Rel being the relations: N | m^i F is Rel plus the rows of W with
pivot degree >= i, of dimension #pivots(W, deg >= i) + #pivots(Rel, deg < i).
These intersections suffer Artin-Rees truncation effects; they require the
validity window ``i + max generator degree + 2 <= t``, and callers
double-check stability under t -> t+1 on a ``stability_pair``.

The coordinates of one degree form a contiguous block, and the number of
pivots among the first k columns is the rank of those columns.  So the
degree-j pivots of Y = Rel + x * (rows of W with pivot degree >= j - 1), for
every variable x, number

    #pivots(Y, deg j) = rank(block j of [Rel rows of pivot degree j ;
                                         x * (W rows of pivot degree j - 1)]):

an element of Y of order j is a relation of order >= j plus x-multiples of
W rows, and a W row of pivot degree >= j has no entry in block j - 1, so its
x-multiple none in block j.  Minimal generator counts of the initial
submodule are read from these small blocks, never from a full-width stack.

A model keeps its submodule echelon forms for as long as its check holds
it.  What depends only on the ring, the rank and t is shared by every model
of the ring through ``ring.cache``: the coordinates (a ``_Layout``:
monomials, their index and degree blocks, the shift and raise tables) and
the relations' echelon form, eliminated once per (rank, t).

A stability check asks the same spaces at t and at t + 1, and
``stability_pair`` makes a t-model that owns its (t+1)-model as ``above``.
Coordinates are sorted by degree first, so those of F/m^t F are the first
n_t coordinates of F/m^{t+1} F, in the same order and with the same
indexes.  A t-row x^a * col is the (t+1)-row x^a * col cut at n_t, and a
(t+1)-row with no t-row has all its terms in degree t, so it cuts to zero:
each t-space is the (t+1)-space cut at n_t.  A pivot is its row's smallest
column, so the RREF rows with pivot >= n_t cut to zero; the rows with
pivot < n_t, cut, keep their pivots and stay zero at every other pivot
column.  They are in reduced echelon form and span the cut space, and the
RREF is unique: the t-model's RREF is the rows of the (t+1)-model's RREF
with pivot < n_t, each cut at n_t.  So the t-model of a pair reads every
space, relations included, off its (t+1)-model by that cut (``_cut``), and
eliminates nothing itself.  In particular the rows of pivot degree < t and
their blocks of degree < t are the same in both models, so what is read
from those blocks alone (``submodule_layer_data``'s layer dimensions and
generator counts) cannot change under t -> t+1.

Inside one model, the space through m^k (``submodule(cols, k)``) is the
space through m^{k+1} plus the multiples x^a * col with deg(x^a) = k.  When
the deeper space is held, its echelon rows enter the elimination as ready
pivots and only those multiples are reduced; so callers that need several
powers ask for the deepest first.
"""

from __future__ import annotations

import bisect
import math

from .field import MAX_CHARACTERISTIC
from .poly import Vector, ideal_columns, mon_deg, mon_mul

SIZE_BOUND = 20000
WINDOW_SLACK = 2


class OracleWindowError(ValueError):
    pass


class ModelSizeError(ValueError):
    pass


# ------------------------------------------------------------ linear algebra


def _reduce(row, pivot_rows, p):
    """A copy of the sparse ``row`` reduced at the pivots of ``pivot_rows``
    ({pivot column: sparse row}, in reduced echelon form)."""
    row = dict(row)
    for c in [c for c in row if c in pivot_rows]:
        a = row.pop(c)
        for j, v in pivot_rows[c].items():
            if j != c:
                w = (row.get(j, 0) - a * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
    return row


def rref_modp(rows, p, n, pivot_rows=None):
    """Reduced row echelon form over GF(p); returns (Subspace, pivot columns).

    ``rows`` is a list of sparse rows {column: nonzero residue} of width
    ``n``.  ``pivot_rows`` maps the pivot columns of rows already in reduced
    echelon form to those rows, sparse; they join as pivots and are not
    changed.

    Gauss-Jordan, one row at a time, in Python ints: a row is reduced at the
    pivots so far, its lead becomes a pivot, and the pivot rows that hold
    that column, found by an index from column to pivot rows, are cleared.
    The result is the unique RREF, whatever the order of the rows.
    """
    if p >= MAX_CHARACTERISTIC:
        raise ValueError(f"characteristic {p} is too large: the prime field needs p < 2^31")
    piv = {c: dict(row) for c, row in (pivot_rows or {}).items()}
    holders = {}            # non-pivot column -> the pivot columns whose rows hold it
    for c, row in piv.items():
        for j in row:
            if j != c:
                holders.setdefault(j, set()).add(c)
    for row in rows:
        row = _reduce(row, piv, p)
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], -1, p)
        if inv != 1:
            row = {j: v * inv % p for j, v in row.items()}
        for q in holders.pop(lead, ()):
            other = piv[q]
            a = other.pop(lead)
            for j, v in row.items():
                if j != lead:
                    w = (other.get(j, 0) - a * v) % p
                    if w:
                        other[j] = w
                        holders.setdefault(j, set()).add(q)
                    else:
                        del other[j]
                        holders[j].discard(q)
        piv[lead] = row
        for j in row:
            if j != lead:
                holders.setdefault(j, set()).add(lead)
    space = Subspace(n, p, piv)
    return space, space.pivots


class Subspace:
    """A row space of GF(p)^n in canonical form: its RREF, as the sparse row
    {column: residue} of each pivot column, keyed by that column."""

    __slots__ = ("n", "p", "rows")

    def __init__(self, n, p, rows):
        self.n = n
        self.p = p
        self.rows = rows

    @property
    def pivots(self):
        return sorted(self.rows)

    @property
    def rank(self):
        return len(self.rows)

    @property
    def shape(self):
        return self.rank, self.n

    def reduce(self, row):
        """The sparse ``row`` reduced at the pivots: zero iff it lies in the space."""
        return _reduce(row, self.rows, self.p)

    def contains(self, row):
        return not self.reduce(row)

    def __eq__(self, other):
        # the RREF of a row space is unique
        return isinstance(other, Subspace) and self.rows == other.rows


# -------------------------------------------------------------- enumeration


def monomials_below(nvars, t):
    """All exponent tuples of total degree < t, degree-ascending and
    lexicographic inside a degree."""

    def of_degree(k, d):
        if k == 0:
            return [()] if d == 0 else []
        return [(e,) + rest for e in range(d + 1) for rest in of_degree(k - 1, d - e)]

    return [m for d in range(t) for m in of_degree(nvars, d)]


# ------------------------------------------------------------------- models


class _Layout:
    """The coordinates of F / m^t F, for F of rank ``rank`` over ``nvars``
    variables: what a FreeModel needs that no ideal or submodule changes."""

    def __init__(self, nvars, rank, t):
        # degree-ascending, so the multipliers of a column are one slice of it
        self.monomials = monomials_below(nvars, t)
        self.mon_degs = [mon_deg(e) for e in self.monomials]
        coords = [(c, e) for e in self.monomials for c in range(rank)]
        coords.sort(key=lambda ce: (mon_deg(ce[1]), tuple(x for x in reversed(ce[1])), ce[0]))
        self.nvars = nvars
        self.t = t
        self.coords = coords
        self.index = {ce: i for i, ce in enumerate(coords)}
        self.coord_degs = [mon_deg(e) for (_, e) in coords]
        self.block_starts = [bisect.bisect_left(self.coord_degs, d) for d in range(t + 1)]
        self._shifts = {}
        self._raise_maps = {}

    def shifted(self, c, e):
        """The coordinates of x^a * x^e e_c, for the multipliers x^a in order
        while the product has degree < t."""
        if (c, e) not in self._shifts:
            stop = bisect.bisect_left(self.mon_degs, self.t - mon_deg(e))
            self._shifts[c, e] = [self.index[(c, mon_mul(a, e))] for a in self.monomials[:stop]]
        return self._shifts[c, e]

    def raise_maps(self, j):
        """Per variable x: where x * (coordinate of degree j - 1) sits in the
        degree j block, indexed from the block's start (0 < j < t)."""
        if j not in self._raise_maps:
            start = self.block_starts[j]
            self._raise_maps[j] = [
                [self.index[(c, e[:v] + (e[v] + 1,) + e[v + 1:])] - start
                 for c, e in self.coords[self.block_starts[j - 1]:start]]
                for v in range(self.nvars)
            ]
        return self._raise_maps[j]


class FreeModel:
    """Model of F / m^t F over R = Loc(k[x])/I, rank ``rank``.

    Its coordinates and its relations' echelon form are kept in
    ``ring.cache`` per (rank, t); the submodule echelon forms are its own.
    The size bound is checked at the first space a model is asked for, which
    comes before any coordinate is made, not when the model is made: a check
    raises its window errors first, and a t-model's size error before its
    (t+1)-model's.
    """

    def __init__(self, ring, rank, t):
        if t < 1:
            raise ValueError("truncation must be >= 1")
        self.ring = ring
        self.rank = rank
        self.t = t
        self.p = ring.cover.p
        # rank times the number of monomials of degree < t, before any is made
        self.n = rank * math.comb(ring.cover.nvars + t - 1, ring.cover.nvars)
        self.above = None
        self._sub_cache = {}

    @property
    def layout(self) -> _Layout:
        if (self.rank, self.t) not in self.ring.cache:
            self.ring.cache[self.rank, self.t] = _Layout(self.ring.cover.nvars, self.rank, self.t)
        return self.ring.cache[self.rank, self.t]

    coords = property(lambda self: self.layout.coords)
    index = property(lambda self: self.layout.index)
    coord_degs = property(lambda self: self.layout.coord_degs)

    # -- rows ---------------------------------------------------------------

    def row_of(self, vec: Vector):
        """The sparse row of ``vec``, cut at degree t."""
        row = {}
        index = self.index
        for ce, a in vec.terms.items():
            i = index.get(ce)
            if i is not None and a % self.p:
                row[i] = a % self.p
        return row

    def _multiple_rows(self, cols, min_mult_deg=0, max_mult_deg=None):
        """Sparse rows {coordinate: value} of x^a * col for all monomials
        with min_mult_deg <= deg(x^a), and deg(x^a) <= max_mult_deg if given."""
        rows = []
        layout = self.layout
        mon_degs = layout.mon_degs
        start = bisect.bisect_left(mon_degs, min_mult_deg)
        end = len(mon_degs) if max_mult_deg is None else bisect.bisect_right(mon_degs, max_mult_deg)
        for col in cols:
            terms = [(layout.shifted(c, e), v % self.p)
                     for (c, e), v in col.terms.items() if v % self.p]
            if not terms:
                continue
            stop = min(end, max(len(shifted) for shifted, _ in terms))
            for k in range(start, stop):
                rows.append({shifted[k]: v for shifted, v in terms if k < len(shifted)})
        return rows

    # -- canonical subspaces --------------------------------------------------

    def _cut(self, space: Subspace) -> Subspace:
        """A (t+1)-model's echelon form cut to this model's coordinates: its
        rows of pivot < n, each cut at n (see the module docstring).  A row
        with no entry past n is shared, not copied: no reader changes a row."""
        n = self.n
        rows = {}
        for c, row in space.rows.items():
            if c < n:
                rows[c] = row if max(row) < n else {j: v for j, v in row.items() if j < n}
        return Subspace(n, self.p, rows)

    @property
    def relations(self) -> Subspace:
        """Image of I*F, from raw ideal generators: the R-span of no column."""
        return self.submodule([])

    def submodule(self, cols, min_mult_deg=0) -> Subspace:
        """relations + image of the R-span of cols (through m^min_mult_deg).

        Cut from ``above`` when the model has one.  Else the relations are
        eliminated once per (rank, t) of the ring; the multiples of degree
        min_mult_deg join the space through m^(min_mult_deg + 1) when that
        is held, and all multiples from min_mult_deg on join the relations
        otherwise, the held rows entering as ready pivots.
        """
        gens_key = tuple(tuple(sorted(c.terms.items())) for c in cols)
        key = (gens_key, min_mult_deg)
        if key not in self._sub_cache:
            if self.n > SIZE_BOUND:
                raise ModelSizeError(f"model needs {self.n} coordinates (bound {SIZE_BOUND})")
            if self.above is not None:
                space = self._cut(self.above.submodule(cols, min_mult_deg))
            elif not cols:
                rel_key = ("relations", self.rank, self.t)
                if rel_key not in self.ring.cache:
                    rows = self._multiple_rows(ideal_columns(self.ring.ideal, self.rank))
                    self.ring.cache[rel_key] = (rref_modp(rows, self.p, self.n)[0] if rows
                                                else Subspace(self.n, self.p, {}))
                space = self.ring.cache[rel_key]
            else:
                space = self._sub_cache.get((gens_key, min_mult_deg + 1))
                if space is not None:
                    rows = self._multiple_rows(cols, min_mult_deg, min_mult_deg)
                else:
                    space = self.relations
                    rows = self._multiple_rows(cols, min_mult_deg)
                if rows:
                    space = rref_modp(rows, self.p, self.n, space.rows)[0]
            self._sub_cache[key] = space
        return self._sub_cache[key]

    def pivot_counts(self, space: Subspace):
        """#pivots(space, deg d) for each d < t."""
        counts = [0] * self.t
        degs = self.coord_degs
        for c in space.rows:
            counts[degs[c]] += 1
        return counts

    def block_width(self, d):
        """The number of coordinates of degree d."""
        starts = self.layout.block_starts
        return starts[d + 1] - starts[d]

    def dims_by_degree(self, space: Subspace):
        """#coords(deg d) - #pivots(deg d), for d < t: layer dims mod ``space``."""
        return [self.block_width(d) - k for d, k in enumerate(self.pivot_counts(space))]

    def block_rows(self, space: Subspace, d):
        """The rows of ``space`` of pivot degree d, cut to the coordinates of
        degree d (a contiguous block) and indexed from the block's start."""
        start, stop = self.layout.block_starts[d], self.layout.block_starts[d + 1]
        return [{j - start: v for j, v in space.rows[c].items() if j < stop}
                for c in range(start, stop) if c in space.rows]

    def raise_degree(self, rows, j):
        """The rows x * row for every variable x, from rows on the degree
        j - 1 block to rows on the degree j block (0 < j < t)."""
        return [{dst[k]: v for k, v in row.items()}
                for dst in self.layout.raise_maps(j) for row in rows]


def stability_pair(ring, rank, t) -> FreeModel:
    """The t-model of a stability check under t -> t+1.  It owns the
    (t+1)-model as ``above`` and reads every space off it, so each space of
    the check is eliminated once; both live as long as the check holds the
    t-model."""
    model = FreeModel(ring, rank, t)
    model.above = FreeModel(ring, rank, t + 1)
    return model


class TruncatedModel:
    """Quotient model of (F/N)/m^t with its standard-monomial basis."""

    def __init__(self, ring, rank, relation_cols, t):
        self.free = FreeModel(ring, rank, t)
        self.t = t
        self.relation_cols = list(relation_cols)
        self.space = self.free.submodule(self.relation_cols)
        self.layer_dims = self.free.dims_by_degree(self.space)
        self.basis = [ce for i, ce in enumerate(self.free.coords) if i not in self.space.rows]

    @property
    def dim(self):
        return sum(self.layer_dims)

    def contains(self, vec: Vector):
        """Membership of a lift in N + m^t F (+ I F)."""
        return self.space.contains(self.free.row_of(vec))


def build_model(presentation, t) -> TruncatedModel:
    """Model of R/m^t (for a ring presentation) or M/m^t M (for a module)."""
    if hasattr(presentation, "layout") and hasattr(presentation, "gens"):
        return TruncatedModel(presentation.ring, presentation.layout.rank, presentation.gens, t)
    return TruncatedModel(presentation, 1, [], t)


# ----------------------------------------------------- filtration queries


def _window_check(gens, i, t):
    maxdeg = max((mon_deg(e) for g in gens for (_, e) in g.terms), default=0)
    if i + maxdeg + WINDOW_SLACK > t:
        raise OracleWindowError(
            f"oracle window violated: need t >= {i + maxdeg + WINDOW_SLACK}, have {t}"
        )


def filtration_intersection(model: FreeModel, gens, i) -> Subspace:
    """Image of N | m^i F in F/m^t F (window-validated): the relations plus
    the rows of W = RREF(relations + N) whose pivot degree is >= i.

    Its echelon form takes no elimination.  Those rows of W vanish below
    degree i, so they are its rows of pivot degree >= i; the relation rows of
    pivot degree < i, cleared at the pivot columns of those rows, are the rest.
    """
    _window_check(gens, i, model.t)
    rel, space = model.relations, model.submodule(gens)
    start = model.layout.block_starts[i]    # the first coordinate of degree i
    upper = {c: row for c, row in space.rows.items() if c >= start}
    rows = {c: _reduce(row, upper, model.p) for c, row in rel.rows.items() if c < start}
    rows.update(upper)
    return Subspace(model.n, model.p, rows)


def submodule_layer_data(model: FreeModel, gens, jmax):
    """Layer dims and minimal-generator counts of the initial submodule of
    <gens> in the associated graded of F, for degrees 0..jmax.

    With W = RREF(relations + N), layer j has dimension #pivots(W, deg j) -
    #pivots(relations, deg j).  Its part generated in lower degrees is
    m * (N | m^{j-1} F), of dimension rank(B_j) - #pivots(relations, deg j),
    B_j being the degree-j block of [relation rows of pivot degree j ;
    x * (W rows of pivot degree j - 1)] (see the module docstring).
    """
    _window_check(gens, jmax + 1, model.t)
    rel = model.relations
    space = model.submodule(gens)
    rel_counts = model.pivot_counts(rel)
    counts = model.pivot_counts(space)
    dims = {j: counts[j] - rel_counts[j] for j in range(jmax + 1)}
    mus = {0: dims[0]}
    for j in range(1, jmax + 1):
        below = rel_counts[j]
        lower = model.block_rows(space, j - 1)
        if lower:
            stack = model.block_rows(rel, j) + model.raise_degree(lower, j)
            below = rref_modp(stack, model.p, model.block_width(j))[0].rank
        mus[j] = dims[j] - (below - rel_counts[j])
    return dims, mus


def element_order(model: FreeModel, vec: Vector):
    """The m-adic order of the class of vec: the degree of the first nonzero
    entry of its reduction modulo the relations, or None when the class
    vanishes below degree t - 1."""
    row = model.relations.reduce(model.row_of(vec))
    if not row:
        return None
    d = model.coord_degs[min(row)]
    return d if d < model.t - 1 else None
