"""Independent verification backend: truncated linear-algebra models.

Everything here is plain dense row reduction over GF(p) on the raw input
presentations (no standard bases, no normal forms): the model of F/m^t F is
the coordinate space of module monomials of degree < t modulo the row space
spanned by all monomial multiples of the defining-ideal generators, and a
submodule is the row space of all monomial multiples of its generators.

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


def rref_modp(rows, p):
    """Reduced row echelon form over GF(p); returns (matrix, pivot columns)."""
    if p >= MAX_CHARACTERISTIC:
        raise ValueError(f"characteristic {p} is too large: int64 elimination needs p < 2^31")
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
    """All exponent tuples of total degree < t."""
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    for d in range(t):
        start = len(out)
        rec([], nvars, d)
        # keep only the exact degree d block
        out[start:] = [m for m in out[start:] if sum(m) == d]
    return out


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
        self._sub_cache = {}
        self._raise_maps = {}

    # -- rows ---------------------------------------------------------------

    def row_of(self, vec: Vector):
        row = np.zeros(self.n, dtype=np.int64)
        for (c, e), a in vec.terms.items():
            i = self.index.get((c, e))
            if i is not None:
                row[i] = a % self.p
        return row

    def _multiple_rows(self, cols, min_mult_deg=0):
        """Rows of x^a * col for all monomials with deg(x^a) >= min_mult_deg."""
        rows = []
        start = bisect.bisect_left(self._mon_degs, min_mult_deg)
        for col in cols:
            if not col.terms:
                continue
            low = min(mon_deg(e) for (_, e) in col.terms)
            stop = bisect.bisect_left(self._mon_degs, max(self.t - low, 1))
            for a in self.monomials[start:stop]:
                row = np.zeros(self.n, dtype=np.int64)
                hit = False
                for (c, e), v in col.terms.items():
                    ee = tuple(x + y for x, y in zip(a, e))
                    i = self.index.get((c, ee))
                    if i is not None:
                        row[i] = (row[i] + v) % self.p
                        hit = True
                if hit and row.any():
                    rows.append(row)
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
            self._rel = Subspace(self.n, self.p, self._multiple_rows(cols) or None)
        return self._rel

    def submodule(self, cols, min_mult_deg=0) -> Subspace:
        """relations + image of the R-span of cols (through m^min_mult_deg)."""
        key = (
            tuple(tuple(sorted(c.terms.items())) for c in cols),
            min_mult_deg,
        )
        if key not in self._sub_cache:
            rows = self._multiple_rows(cols, min_mult_deg)
            base = self.relations
            if base.rank:
                rows = list(base.mat) + rows
            self._sub_cache[key] = Subspace(self.n, self.p, rows or None)
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
        self.space = self.free.submodule(self.relation_cols) if relation_cols else self.free.relations
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
