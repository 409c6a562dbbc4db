"""Graded analysis: resolutions, Betti tables, Hilbert series, invariants.

``betti_table`` is the one reader of a graded resolution: it turns the
twists of a resolution's free modules into a ``BettiTable``, and a graded
resolution reaches callers only as that table.

Hilbert series, dimension and depth are computed through the polynomial
cover S (always a finite resolution there, by Hilbert's syzygy theorem):
the module presented over S is resolved like any graded module, and its
Betti table is kept per module (``rings.cached``): H = sum_i (-1)^i sum_j
beta_{i,j} z^j / (1-z)^n, cancelled to lowest terms; depth = n - pdim_S by
Auslander-Buchsbaum.  Projective dimension over the quotient ring itself may
be infinite: it is reported as None unless the resolution ends within the
cutoff, and never guessed beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import ResolutionResult, resolve_cached
from .modules import BridgeError, _Presentation
from .poly import FreeLayout, Vector, ideal_columns
from .rings import GradedRing, cached


# --------------------------------------------------- small Z[z] helpers


def zpoly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def zpoly_div_one_minus_z(a):
    """Exact quotient a / (1 - z); caller guarantees a(1) = 0."""
    if not a:
        return []
    out = [0] * (len(a) - 1)
    acc = 0
    for i in range(len(a) - 1):
        acc += a[i]
        out[i] = acc
    return out


# ------------------------------------------------------------ Betti data


@dataclass
class BettiTable:
    """Graded Betti numbers beta_{i,j} up to a homological cutoff."""

    entries: dict                 # (i, j) -> positive count
    cutoff: int
    pdim: int | None = None       # None unless finite within the cutoff

    @property
    def complete(self):
        return self.pdim is not None

    @property
    def max_i(self):
        return max((i for (i, _) in self.entries), default=0)

    def total(self, i):
        return sum(c for (k, _), c in self.entries.items() if k == i)

    def degrees(self, i):
        return sorted(j for (k, j) in self.entries if k == i)

    def render(self):
        """Rows j - i, columns i, right-aligned counts, '.' for zero."""
        if not self.entries:
            return "(zero module)"
        imax = self.max_i
        slants = [j - i for (i, j) in self.entries]
        lo, hi = min(slants), max(slants)
        width = max(len(str(c)) for c in self.entries.values())
        width = max(width, len(str(imax)), 1)
        head = " " * (len(str(hi)) + 2) + " ".join(f"{i:>{width}}" for i in range(imax + 1))
        lines = [head]
        for s in range(lo, hi + 1):
            cells = []
            for i in range(imax + 1):
                c = self.entries.get((i, s + i), 0)
                cells.append(f"{c if c else '.':>{width}}")
            lines.append(f"{s:>{len(str(hi))}}: " + " ".join(cells))
        return "\n".join(lines)


@dataclass
class PurityReport:
    is_pure: bool
    delta: tuple                     # degree type, when pure (known range)
    is_linear: bool
    regularity_within_cutoff: int
    witness: tuple = None            # (i, (degrees...)) when not pure
    complete: bool = False           # resolution finished below cutoff


@dataclass
class HilbertSeries:
    """H(z) = z^offset * numerator(z) / (1-z)^dim, fully cancelled."""

    numerator: tuple
    dim: int
    offset: int = 0

    @property
    def is_zero(self):
        return not self.numerator

    @property
    def multiplicity(self):
        return sum(self.numerator)

    def series(self, upto):
        """Coefficients of the power-series expansion in degrees 0..upto."""
        out = [0] * (upto + 1)
        for k, c in enumerate(self.numerator):
            base = k + self.offset
            for m in range(max(0, -base), upto + 1 - base):
                out[base + m] += c * (comb(self.dim - 1 + m, m) if self.dim > 0 else (1 if m == 0 else 0))
        return out

    def render(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.numerator):
            if not c:
                continue
            e = k + self.offset
            if e == 0:
                parts.append(f"{c}")
            else:
                z = "z" if e == 1 else f"z^{e}"
                parts.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        num = parts[0] + "".join(f" + {p}" if not p.startswith("-") else f" - {p[1:]}" for p in parts[1:])
        if self.dim == 0:
            return num
        den = "(1-z)" if self.dim == 1 else f"(1-z)^{self.dim}"
        return f"({num})/{den}"


@dataclass
class NumericInvariants:
    dim: int
    depth: int
    codim: int
    cmd: int
    multiplicity: int
    pdim: int | None                 # over the ring; None unless finite within the cutoff


# ------------------------------------------------------------ the module


class GradedModule(_Presentation):
    """coker of homogeneous relation columns in a twisted free module."""

    def _check_column(self, v: Vector):
        if not v.is_homogeneous(self.layout):
            raise ValueError("relations must be homogeneous for the layout")
        if self.ring.unit_component(v) is not None:
            raise ValueError("minimal presentation needs relations inside the irrelevant ideal")

    @property
    def is_zero(self):
        return self.layout.rank == 0


def betti_table(res: ResolutionResult) -> BettiTable:
    """beta_{i,j} of a resolution: the number of twists j of its i-th free
    module, with the resolution's cutoff and pdim."""
    entries = {}
    for i, twists in enumerate([res.layout.twists] + [m.source.twists for m in res.mats]):
        for j in twists:
            entries[(i, j)] = entries.get((i, j), 0) + 1
    return BettiTable(entries, res.cutoff, res.pdim)


def minimal_graded_resolution(gmod: GradedModule, cutoff: int) -> BettiTable:
    """The Betti table of a minimal resolution over the quotient ring."""
    return betti_table(resolve_cached(gmod, cutoff))


def betti_analysis(table: BettiTable) -> PurityReport:
    """Purity / linearity / regularity classification of a Betti table."""
    if not table.entries:
        return PurityReport(True, (), True, 0, None, True)
    witness = None
    delta = []
    for i in range(table.max_i + 1):
        degs = table.degrees(i)
        if len(degs) > 1 and witness is None:
            witness = (i, tuple(degs))
        delta.append(degs[0] if len(degs) == 1 else None)
    pure = witness is None
    reg = max(j - i for (i, j) in table.entries)
    linear = pure and all(d == delta[0] + i for i, d in enumerate(delta) if d is not None)
    return PurityReport(
        pure, tuple(delta) if pure else (), linear, reg, witness, table.complete
    )


# ------------------------------------------------------- Hilbert / numbers


@cached
def cover_betti_table(gmod: GradedModule) -> BettiTable:
    """The Betti table of the module over the polynomial cover S, where it
    is presented by its relations and the ideal generators times each basis
    vector."""
    n = gmod.ring.nvars
    cover = GradedModule(gmod.ring.polynomial_cover, gmod.layout,
                         gmod.gens + ideal_columns(gmod.ring.ideal, gmod.layout.rank))
    table = minimal_graded_resolution(cover, n + 1)
    if not table.complete:
        raise BridgeError("resolution over the polynomial cover must be finite")
    return table


@cached
def hilbert_series(gmod: GradedModule) -> HilbertSeries:
    """Cancelled Hilbert series, read off the Betti table over the cover."""
    n = gmod.ring.nvars
    if gmod.is_zero:
        return HilbertSeries((), -1)
    entries = cover_betti_table(gmod).entries
    shift = min(j for (_, j) in entries)
    numer = [0] * (max(j for (_, j) in entries) - shift + 1)
    for (i, j), c in entries.items():
        numer[j - shift] += (-1) ** i * c
    numer = zpoly_trim(numer)
    d = n
    while numer and sum(numer) == 0:
        numer = zpoly_trim(zpoly_div_one_minus_z(numer))
        d -= 1
    if not numer:
        return HilbertSeries((), -1)
    if sum(numer) <= 0:
        raise BridgeError("Hilbert numerator must be positive at z=1 for a nonzero module")
    return HilbertSeries(tuple(numer), d, shift)


def pdim_over_cover(gmod: GradedModule) -> int:
    return cover_betti_table(gmod).pdim


@cached
def ring_as_module(gring: GradedRing) -> GradedModule:
    return GradedModule(gring, FreeLayout(1), [])


def numeric_invariants(gmod: GradedModule, cutoff: int = 8) -> NumericInvariants:
    """dim / depth / codim / cmd / multiplicity, plus pdim over the ring
    within the cutoff."""
    hs = hilbert_series(gmod)
    ring_hs = hilbert_series(ring_as_module(gmod.ring))
    if gmod.is_zero:
        return NumericInvariants(-1, -1, 0, 0, 0, 0)
    n = gmod.ring.nvars
    depth = n - pdim_over_cover(gmod)
    dim = hs.dim
    cmd = dim - depth
    codim = ring_hs.dim - dim
    pdim = minimal_graded_resolution(gmod, cutoff).pdim
    if cmd < 0 or depth > dim:
        raise BridgeError(f"depth {depth} exceeds dimension {dim}")
    return NumericInvariants(dim, depth, codim, cmd, hs.multiplicity, pdim)
