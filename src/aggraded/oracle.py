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
ready pivots and reduces only the multiples of its generators.  Echelon
forms are stored dense (``Subspace``), as the unique RREF.

Coordinates are sorted degree-ascending (grevlex-descending inside a
degree, component-ascending last), so echelon pivots are exactly the
leading monomials of initial forms: the non-pivot monomials of the quotient
model are the standard monomials of the tangent cone, per component.

So a pivot's column gives the degree of its row's initial form, and every
filtration query is read off one echelon form W = RREF(Rel + N) of a
submodule, Rel being the relations: N | m^i F is Rel plus the rows of W with
pivot degree >= i, of dimension #pivots(W, deg >= i) + #pivots(Rel, deg < i).
These intersections suffer Artin-Rees truncation effects; they require the
validity window ``i + max generator degree + 2 <= t`` and callers
double-check stability under t -> t+1.

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

``free_model`` shares one model per (ring, rank, t), with its relations and
submodule echelon forms, among the queries of a check.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

from .field import MAX_CHARACTERISTIC
from .poly import Vector, mon_deg

SIZE_BOUND = 20000
WINDOW_SLACK = 2


class OracleWindowError(ValueError):
    pass


class ModelSizeError(ValueError):
    pass


# ------------------------------------------------------------ linear algebra


def _sparse_rows(rows, p):
    """A dense matrix (or one row) as sparse rows, and its width."""
    A = np.asarray(rows, dtype=np.int64) % p
    if A.ndim == 1:
        A = A.reshape(1, -1)
    out = [{} for _ in range(A.shape[0])]
    r, c = np.nonzero(A)
    for i, j, v in zip(r.tolist(), c.tolist(), A[r, c].tolist()):
        out[i][j] = v
    return out, A.shape[1]


def rref_modp(rows, p, n=None, pivot_rows=None):
    """Reduced row echelon form over GF(p); returns (matrix, pivot columns).

    ``rows`` is a dense matrix (or one row), or, when the width ``n`` is
    given, a list of sparse rows {column: nonzero residue}.  ``pivot_rows``
    maps the pivot columns of rows already in reduced echelon form to those
    rows, sparse; they join as pivots and are not changed.

    Gauss-Jordan, one row at a time, in Python ints: a row is reduced at the
    pivots so far, its lead becomes a pivot, and the pivot rows that hold
    that column, found by an index from column to pivot rows, are cleared.
    The result is the unique RREF, whatever the order of the rows.
    """
    if p >= MAX_CHARACTERISTIC:
        raise ValueError(f"characteristic {p} is too large: the prime field needs p < 2^31")
    if n is None:
        rows, n = _sparse_rows(rows, p)
    piv = {c: dict(row) for c, row in (pivot_rows or {}).items()}
    holders = {}            # non-pivot column -> the pivot columns whose rows hold it
    for c, row in piv.items():
        for j in row:
            if j != c:
                holders.setdefault(j, set()).add(c)
    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in piv]:
            a = row.pop(c)
            for j, v in piv[c].items():
                if j != c:
                    w = (row.get(j, 0) - a * v) % p
                    if w:
                        row[j] = w
                    else:
                        del row[j]
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
    pivots = sorted(piv)
    A = np.zeros((len(pivots), n), dtype=np.int64)
    at = [(i, j, v) for i, c in enumerate(pivots) for j, v in piv[c].items()]
    if at:
        i, j, v = zip(*at)
        A[list(i), list(j)] = v
    return A, pivots


class Subspace:
    """A row space over GF(p) in canonical (RREF) form."""

    __slots__ = ("n", "p", "mat", "pivots")

    def __init__(self, n, p, rows=None, pivots=None):
        """``pivots`` is given only when ``rows`` is already in RREF."""
        self.n = n
        self.p = p
        if pivots is not None:
            self.mat, self.pivots = rows, pivots
        elif rows is None or (hasattr(rows, "__len__") and len(rows) == 0):
            self.mat = np.zeros((0, n), dtype=np.int64)
            self.pivots = []
        else:
            self.mat, self.pivots = rref_modp(rows, p)

    @property
    def rank(self):
        return self.mat.shape[0]

    def reduce(self, vec):
        v = np.asarray(vec, dtype=np.int64) % self.p
        for row, c in zip(self.mat, self.pivots):
            a = int(v[c])
            if a:
                v = (v - a * row) % self.p
        return v

    def contains(self, vec):
        return not self.reduce(vec).any()

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.pivots == other.pivots
            and self.mat.shape == other.mat.shape
            and bool((self.mat == other.mat).all())
        )


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


class FreeModel:
    """Model of F / m^t F over R = Loc(k[x])/I, rank ``rank``."""

    def __init__(self, ring, rank, t):
        if t < 1:
            raise ValueError("truncation must be >= 1")
        self.ring = ring
        self.rank = rank
        self.t = t
        cover = ring.cover
        self.p = cover.p
        # degree-ascending, so the multipliers of a column are one slice of it
        self.monomials = monomials_below(cover.nvars, t)
        self._mon_degs = [mon_deg(e) for e in self.monomials]
        coords = [(c, e) for e in self.monomials for c in range(rank)]
        coords.sort(key=lambda ce: (mon_deg(ce[1]), tuple(x for x in reversed(ce[1])), ce[0]))
        if len(coords) > SIZE_BOUND:
            raise ModelSizeError(f"model needs {len(coords)} coordinates (bound {SIZE_BOUND})")
        self.coords = coords
        self.index = {ce: i for i, ce in enumerate(coords)}
        self.coord_degs = np.array([mon_deg(e) for (_, e) in coords], dtype=np.int64)
        self._block_starts = np.searchsorted(self.coord_degs, np.arange(t + 1)).tolist()
        self.n = len(coords)
        self._rel = None
        self._rel_rows = {}     # the relations' echelon rows, sparse, by pivot
        self._sub_cache = {}
        self._raise_maps = {}
        self._shifts = {}

    # -- rows ---------------------------------------------------------------

    def row_of(self, vec: Vector):
        row = np.zeros(self.n, dtype=np.int64)
        for (c, e), a in vec.terms.items():
            i = self.index.get((c, e))
            if i is not None:
                row[i] = a % self.p
        return row

    def _shifted(self, c, e):
        """The coordinates of x^a * x^e e_c, for the multipliers x^a in order
        while the product has degree < t."""
        if (c, e) not in self._shifts:
            stop = bisect.bisect_left(self._mon_degs, self.t - mon_deg(e))
            self._shifts[c, e] = [self.index[(c, tuple(x + y for x, y in zip(a, e)))]
                                  for a in self.monomials[:stop]]
        return self._shifts[c, e]

    def _multiple_rows(self, cols, min_mult_deg=0):
        """Sparse rows {coordinate: value} of x^a * col for all monomials
        with deg(x^a) >= min_mult_deg."""
        rows = []
        start = bisect.bisect_left(self._mon_degs, min_mult_deg)
        for col in cols:
            terms = [(self._shifted(c, e), v % self.p)
                     for (c, e), v in col.terms.items() if v % self.p]
            if not terms:
                continue
            stop = max(len(shifted) for shifted, _ in terms)
            for k in range(start, stop):
                rows.append({shifted[k]: v for shifted, v in terms if k < len(shifted)})
        return rows

    # -- canonical subspaces --------------------------------------------------

    @property
    def relations(self) -> Subspace:
        """Image of I*F, from raw ideal generators."""
        if self._rel is None:
            cols = [
                Vector(self.ring.cover, self.rank, {(c, e): a for e, a in g.terms.items()})
                for g in self.ring.ideal
                for c in range(self.rank)
            ]
            rows = self._multiple_rows(cols)
            self._rel = Subspace(self.n, self.p)
            if rows:
                self._rel = Subspace(self.n, self.p, *rref_modp(rows, self.p, self.n))
            self._rel_rows = dict(zip(self._rel.pivots, _sparse_rows(self._rel.mat, self.p)[0]))
        return self._rel

    def submodule(self, cols, min_mult_deg=0) -> Subspace:
        """relations + image of the R-span of cols (through m^min_mult_deg);
        the relations enter the elimination as ready pivot rows."""
        key = (
            tuple(tuple(sorted(c.terms.items())) for c in cols),
            min_mult_deg,
        )
        if key not in self._sub_cache:
            space = self.relations          # made with its sparse rows, _rel_rows
            rows = self._multiple_rows(cols, min_mult_deg)
            if rows:
                space = Subspace(self.n, self.p, *rref_modp(rows, self.p, self.n, self._rel_rows))
            self._sub_cache[key] = space
        return self._sub_cache[key]

    def pivot_counts(self, space: Subspace):
        """#pivots(space, deg d) for each d < t."""
        return np.bincount(self.coord_degs[space.pivots], minlength=self.t)

    def dims_by_degree(self, space: Subspace):
        """#coords(deg d) - #pivots(deg d), for d < t: layer dims mod ``space``."""
        return (np.bincount(self.coord_degs, minlength=self.t) - self.pivot_counts(space)).tolist()

    def block(self, d):
        """The coordinates of degree d, a contiguous range."""
        return slice(self._block_starts[d], self._block_starts[d + 1])

    def raise_degree(self, rows, j):
        """The rows x * row for every variable x, from rows on the degree
        j - 1 block to rows on the degree j block (0 < j < t)."""
        if j not in self._raise_maps:
            # per variable: where x * (coordinate of degree j - 1) sits in block j
            start = self._block_starts[j]
            self._raise_maps[j] = [
                [self.index[(c, e[:v] + (e[v] + 1,) + e[v + 1:])] - start
                 for c, e in self.coords[self.block(j - 1)]]
                for v in range(self.ring.cover.nvars)
            ]
        width = self._block_starts[j + 1] - self._block_starts[j]
        blocks = []
        for dst in self._raise_maps[j]:
            block = np.zeros((len(rows), width), dtype=np.int64)
            block[:, dst] = rows
            blocks.append(block)
        return np.vstack(blocks)


@functools.lru_cache(maxsize=2)
def free_model(ring, rank, t) -> FreeModel:
    """The FreeModel of (ring, rank, t), shared with its echelon forms.  Two
    entries hold the t and t + 1 models of a stability check; keeping more
    would keep every echelon form of a run alive."""
    return FreeModel(ring, rank, t)


class TruncatedModel:
    """Quotient model of (F/N)/m^t with its standard-monomial basis."""

    def __init__(self, ring, rank, relation_cols, t):
        self.free = free_model(ring, rank, t)
        self.t = t
        self.relation_cols = list(relation_cols)
        self.space = self.free.submodule(self.relation_cols)
        self.layer_dims = self.free.dims_by_degree(self.space)
        pivset = set(self.space.pivots)
        self.basis = [ce for i, ce in enumerate(self.free.coords) if i not in pivset]

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
    high = model.coord_degs[space.pivots] >= i
    low = model.coord_degs[rel.pivots] < i
    upper = space.mat[high]
    upper_pivots = [c for c, keep in zip(space.pivots, high) if keep]
    lower = rel.mat[low]
    for row, c in zip(upper, upper_pivots):
        f = lower[:, c]
        if f.any():
            lower = (lower - np.outer(f, row)) % model.p
    pivots = [c for c, keep in zip(rel.pivots, low) if keep] + upper_pivots
    return Subspace(model.n, model.p, np.vstack([lower, upper]), pivots)


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
    layer = model.pivot_counts(space) - rel_counts
    rel_degs = model.coord_degs[rel.pivots]
    row_degs = model.coord_degs[space.pivots]
    dims = {j: int(layer[j]) for j in range(jmax + 1)}
    mus = {0: dims[0]}
    for j in range(1, jmax + 1):
        below = rel_counts[j]
        lower = space.mat[row_degs == j - 1, model.block(j - 1)]
        if len(lower):
            shifted = model.raise_degree(lower, j)
            stack = np.vstack([rel.mat[rel_degs == j, model.block(j)], shifted])
            below = len(rref_modp(stack, model.p)[1])
        mus[j] = dims[j] - int(below - rel_counts[j])
    return dims, mus


def element_order(model: FreeModel, vec: Vector):
    """The m-adic order of the class of vec: the degree of the first nonzero
    entry of its reduction modulo the relations, or None when the class
    vanishes below degree t - 1."""
    nonzero = np.flatnonzero(model.relations.reduce(model.row_of(vec)))
    if nonzero.size == 0:
        return None
    d = int(model.coord_degs[nonzero[0]])
    return d if d < model.t - 1 else None
