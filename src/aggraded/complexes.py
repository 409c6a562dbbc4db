"""Free complexes, minimalization and bounded minimal resolutions.

A complex is a chain ``F_0 <- F_1 <- ... <- F_n`` of free layouts with
differential matrices.  Minimalization cancels unit entries by Gaussian
elimination; over a local ring a polynomial unit u has no polynomial
inverse, so the denominator-free variant is used (the new differential is
``u*a - b*c`` entrywise, which is the exact elimination composed with a
unit rescaling of one differential -- an isomorphic complex over the
localization).  Scalar units are divided out exactly.

``resolve_bounded`` builds minimal resolutions level by level: syzygy
generators of a minimal generating set are unit-stripped (Nakayama) and the
stripped syzygy matrix doubles as the next level's candidate generators.

The normal-form contract: a stored column is in normal form.  A column is
reduced by its ring's ``nf_vector`` once, where it is made -- the
``LocalModule`` and ``GradedModule`` constructors, and each syzygy or
stripped column that ``min_gens_with_syz`` creates -- and never again.  So
``resolve_bounded`` takes stored columns (a module's ``gens`` or
``relations``) and reduces none of them.  The Mora and the global
normal forms are idempotent, so a second reduction would return its input;
orders, twists and initial matrices are read off the stored columns.

``resolve_cached`` is the one resolution cache of the local and the graded
flavor.  A FINITE result serves every cutoff, a truncated result serves
every cutoff up to its own, and the deepest result is kept; a result served
at a shallower cutoff is its first maps, exactly what ``resolve_bounded``
returns there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import syzygies
from .poly import FreeLayout, Polynomial, Vector


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

    @property
    def ring(self):
        return self.columns[0].ring if self.columns else None

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


@dataclass
class FreeComplex:
    """layouts[0..n]; mats[i] maps layouts[i+1] -> layouts[i]."""

    layouts: list
    mats: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.mats) != len(self.layouts) - 1:
            raise ValueError("need one differential per adjacent layout pair")

    @property
    def length(self):
        return len(self.mats)

    def check_complex(self, nf_vector):
        """Exact consecutive-composition-zero check; raises if violated."""
        for i in range(len(self.mats) - 1):
            if not self.mats[i].compose(self.mats[i + 1]).is_zero_mod(nf_vector):
                raise NotAComplexError(f"composition at position {i + 1} is nonzero")
        return True


# ------------------------------------------------------------ minimalize


def _grid(mat: Matrix):
    cols = [v.components() for v in mat.columns]
    zero = Polynomial(mat.ring, {})
    return [[col.get(r, zero) for col in cols] for r in range(mat.target.rank)]


def _from_grid(grid, target, source, ring):
    cols = []
    for c in range(source.rank):
        terms = {}
        for r in range(target.rank):
            for e, a in grid[r][c].terms.items():
                terms[(r, e)] = a
        cols.append(Vector(ring, target.rank, terms))
    return Matrix(target, source, cols)


def minimalize(cx: FreeComplex, ctx) -> FreeComplex:
    """Homotopy-equivalent complex with no unit entries in any differential.

    ``ctx`` provides nf(poly) and is_unit(poly) for the ambient (quotient)
    ring.  Input must be a complex; ranks drop by one per cancellation.
    """
    ring = None
    for m in cx.mats:
        if m.columns:
            ring = m.columns[0].ring
            break
    if ring is None:
        return cx
    grids = [_grid(m) for m in cx.mats]
    layouts = [list(l.twists) for l in cx.layouts]

    def find_unit():
        for i, g in enumerate(grids):
            for r in range(len(g)):
                for c in range(len(g[0]) if g else 0):
                    if ctx.is_unit(g[r][c]):
                        return i, r, c
        return None

    while True:
        spot = find_unit()
        if spot is None:
            break
        i, r, c = spot
        g = grids[i]
        u = g[r][c]
        nrows, ncols = len(g), len(g[0])
        scalar = len(u.terms) == 1 and ring._zero_mon in u.terms
        uinv = ring.field.inv(u.constant_term()) if scalar else None
        new = []
        for r2 in range(nrows):
            if r2 == r:
                continue
            row = []
            for c2 in range(ncols):
                if c2 == c:
                    continue
                if scalar:
                    val = g[r2][c2] - uinv * (g[r2][c] * g[r][c2])
                else:
                    val = u * g[r2][c2] - g[r2][c] * g[r][c2]
                row.append(ctx.nf(val))
            new.append(row)
        grids[i] = new
        # adjacent differentials only lose a row / a column
        if i + 1 < len(grids):
            grids[i + 1] = [row for k, row in enumerate(grids[i + 1]) if k != c]
            if not grids[i + 1]:
                grids[i + 1] = [[] for _ in range(0)]
        if i - 1 >= 0:
            grids[i - 1] = [[e for k, e in enumerate(row) if k != r] for row in grids[i - 1]]
        del layouts[i][r]
        del layouts[i + 1][c]

    new_layouts = [FreeLayout(len(tw), tuple(tw)) for tw in layouts]
    mats = []
    for i, g in enumerate(grids):
        tgt, src = new_layouts[i], new_layouts[i + 1]
        grid = g if g else [[] for _ in range(tgt.rank)]
        # normalize shapes for degenerate ranks
        if tgt.rank == 0:
            mats.append(Matrix(tgt, src, [Vector(ring, 0, {}) for _ in range(src.rank)]))
            continue
        if src.rank == 0:
            mats.append(Matrix(tgt, src, []))
            continue
        mats.append(_from_grid(grid, tgt, src, ring))
    return FreeComplex(new_layouts, mats)


# ---------------------------------------------------- bounded resolutions

FINITE = "finite"
TRUNCATED = "truncated"


@dataclass
class ResolutionResult:
    mats: list            # Matrix phi_1 .. phi_k (minimal)
    status: str           # FINITE | TRUNCATED
    pdim: int             # meaningful when status == FINITE
    cutoff: int

    @property
    def betti(self):
        return [m.source.rank for m in self.mats]

    @property
    def finite(self):
        return self.status == FINITE


def min_gens_with_syz(cand, layout, ctx):
    """Minimal generating subset of <cand> and generators of its syzygies.

    ``cand`` holds nonzero columns in normal form and is left unchanged.
    Unit entries in the syzygy matrix witness redundant generators
    (Nakayama); they are stripped with denominator-free column operations,
    which keeps the remaining columns generating over the localization.
    """
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
                if e == zm and ctx.is_unit(col.component(comp)):
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
                # a new column: component j cancels, the rest is reduced
                col = ctx.nf_vector(u * col - a * pivot)
                if not col:
                    continue
            out.append(col)
        # drop generator j, reindex components
        del cand[j]
        cols = [
            Vector(ring, len(cand), {(comp - 1 if comp > j else comp, e): val
                                     for (comp, e), val in col.terms.items()})
            for col in out
        ]
    return cand, cols


def resolve_bounded(gens, layout, ctx, cutoff):
    """Minimal free resolution of coker(gens in F) up to homological cutoff.

    Over the graded flavor (a global order) the source twists are the column
    degrees; over the local flavor all twists are zero.  ``ctx`` supplies
    cover ring, order, ideal_sb, nf_vector and is_unit.  The generators are
    in normal form (stored columns); zero ones are dropped, and a free
    cokernel (none left) is FINITE of pdim 0 at every cutoff.
    """
    cand = [v for v in gens if v]
    if not cand:
        return ResolutionResult([], FINITE, 0, cutoff)
    cur_layout = layout
    mats = []
    status, pdim = TRUNCATED, None
    for step in range(1, cutoff + 1):
        cols, syz = min_gens_with_syz(cand, cur_layout, ctx)
        if not cols:
            status, pdim = FINITE, step - 1
            break
        if ctx.order.is_local:
            twists = (0,) * len(cols)
        else:
            twists = tuple(v.degree_in(cur_layout) for v in cols)
        src = FreeLayout(len(cols), twists)
        mats.append(Matrix(cur_layout, src, cols))
        if not syz:
            status, pdim = FINITE, step
            break
        cand, cur_layout = syz, src
    return ResolutionResult(mats, status, pdim if pdim is not None else -1, cutoff)


def resolve_cached(cache: dict, gens, layout, ctx, cutoff) -> ResolutionResult:
    """``resolve_bounded`` of the same module, reusing the result kept in
    ``cache`` under the rule stated in the module docstring."""
    if cutoff < 0:
        raise ValueError("the homological cutoff must be nonnegative")
    kept = cache.get("resolution")
    if kept is None or not (kept.finite or cutoff <= kept.cutoff):
        cache["resolution"] = res = resolve_bounded(gens, layout, ctx, cutoff)
        return res
    if kept.finite and cutoff >= kept.pdim:
        return kept
    return ResolutionResult(kept.mats[:cutoff], TRUNCATED, -1, cutoff)
