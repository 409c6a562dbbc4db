"""Ring presentations: local rings at the origin and standard graded rings.

Both flavors are one presentation cover/I, ``_QuotientOps``: the flavor is
its monomial order, ``DS`` for the local ring and ``GREVLEX`` for the graded
one.  It keeps the ideal's generators, certifies their standard basis under
that order on first use, and reduces against it.  The flavor classes keep
only what differs: a local ring has its tangent cone and graded cover, a
graded ring checks that its relations are homogeneous.

A local ring is the localization of ``k[x_1..x_n]`` at the origin modulo a
proper ideal I.  Its tangent cone in(I) (initial forms of the certified
basis) is a Groebner basis of the defining ideal of the associated graded
ring ``A = k[x]/in(I)``, which is carried as the graded cover.

Power-series rings are represented through polynomial presentations
localized at the origin; no power-series arithmetic exists here.  Reduction
modulo I*F has one definition, ``nf_vector``: a column is reduced as a whole
by the ideal's standard basis, whose reducers g act in place as g*e_c in
each component c (``engine._weak_nf``).

Derived data of one ring or module (standard basis, tangent cone, G(M),
Betti tables, Hilbert series, invariants) is computed once and kept in that
object's ``cache`` dict, keyed by the function that computes it: ``cached``.
"""

from __future__ import annotations

import functools

from .engine import normal_form, standard_basis
from .orders import DS, GREVLEX, OrderSpec
from .poly import PolyRing, Polynomial, Vector


def cached(fn):
    """``fn(obj)``, computed once and kept in ``obj.cache`` under ``fn``; a
    call that raises keeps nothing.  ``@property`` stacks on top."""

    @functools.wraps(fn)
    def get(obj):
        try:
            return obj.cache[fn]
        except KeyError:
            value = obj.cache[fn] = fn(obj)
            return value

    return get


class UnitIdealError(ValueError):
    pass


class ZeroInQuotientError(ValueError):
    pass


class _QuotientOps:
    """A ring presentation cover/I under ``order``: the local flavor under
    ``DS``, the graded one under ``GREVLEX``.  It keeps I's nonzero
    generators, certifies their standard basis under ``order`` on first use
    and reduces polynomials and columns against it."""

    def __init__(self, cover: PolyRing, ideal, order: OrderSpec):
        self.cover = cover
        self.order = order
        self.ideal = [g for g in ideal if g]
        for g in self.ideal:
            self._check_generator(g)
        self.cache = {}

    def _check_generator(self, g: Polynomial):
        if g.constant_term():
            raise UnitIdealError("defining ideal contains a unit")

    @property
    def nvars(self):
        return self.cover.nvars

    @property
    @cached
    def ideal_sb(self):
        """The certified standard basis of I under ``order``; None for I = 0."""
        if not self.ideal:
            return None
        sb = standard_basis(self.ideal, self.order)
        for g in sb.gens:
            self._check_generator(g.component(0))
        return sb

    def nf(self, f: Polynomial) -> Polynomial:
        sb = self.ideal_sb
        return f if sb is None else normal_form(f, sb)

    def nf_vector(self, v: Vector) -> Vector:
        """The column normal form: ``v`` reduced as a whole modulo I*F by the
        ideal's standard basis, whose reducers act in place as g*e_c in the
        components c of ``v``, a standard basis of I*F.  Globally it is the full
        remainder, each component its ``nf``; under Mora it is the weak
        normal form of the column, up to one unit for the whole column, with
        an irreducible lead.  A column that is already in that form (no
        reducible term globally, an irreducible lead under Mora) comes back
        at once with the same terms, without a reduction; over a ring without
        an ideal it comes back as it is."""
        sb = self.ideal_sb
        return v if sb is None else sb.reduce(v)

    def unit_component(self, v: Vector):
        """The smallest component of ``v`` whose entry is a unit, or None.

        An entry is a unit when its constant term is nonzero, which is well
        defined modulo a proper ideal.
        """
        zm = v.ring._zero_mon
        return min((c for c, e in v.terms if e == zm), default=None)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.ideal) or "0"
        return f"{type(self).__name__}({','.join(self.cover.names)}; I=<{gens}>; p={self.cover.p})"


class LocalRing(_QuotientOps):
    """Localization of a polynomial ring at the origin modulo a proper ideal."""

    def __init__(self, cover: PolyRing, ideal=()):
        super().__init__(cover, ideal, DS)

    @cached
    def tangent_cone(self):
        """Generators of in(I), the defining ideal of the associated graded ring.

        Initial forms of the certified local basis; returned inter-reduced as
        a Groebner basis under the global order, GREVLEX leads ascending, the
        order in which ``standard_basis`` emits them.
        """
        sb = self.ideal_sb
        if sb is None:
            return []
        forms = [g.component(0).initial_form() for g in sb.gens]
        return [g.component(0) for g in standard_basis(forms, GREVLEX).gens]

    @property
    @cached
    def graded_cover(self) -> "GradedRing":
        """A = G_m(R) presented as cover/in(I)."""
        return GradedRing(self.cover, self.tangent_cone())


class GradedRing(_QuotientOps):
    """Standard graded algebra cover/J with J homogeneous."""

    def __init__(self, cover: PolyRing, ideal=()):
        super().__init__(cover, ideal, GREVLEX)

    def _check_generator(self, g: Polynomial):
        if not g.is_homogeneous():
            raise ValueError("graded ring needs homogeneous relations")
        super()._check_generator(g)

    @property
    @cached
    def polynomial_cover(self) -> "GradedRing":
        """The ambient polynomial ring as a graded ring (J = 0)."""
        return self if not self.ideal else GradedRing(self.cover, ())


def ideals_equal(gens_a, gens_b, order: OrderSpec = GREVLEX):
    """Ideal equality by mutual normal forms against certified bases."""
    gens_a = [g for g in gens_a if g]
    gens_b = [g for g in gens_b if g]
    if not gens_a or not gens_b:
        return not gens_a and not gens_b
    sb_a = standard_basis(gens_a, order)
    sb_b = standard_basis(gens_b, order)
    return all(normal_form(g, sb_a).is_zero() for g in gens_b) and all(
        normal_form(g, sb_b).is_zero() for g in gens_a
    )
