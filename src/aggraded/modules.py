"""Module presentations and the local-to-graded bridge.

A module is presented as M = F/N, N given by columns in normal form; the
constructor ``_Presentation`` is shared by the local and the graded flavor.
Over a local ring N lies inside m*F (columns of positive order; violating
inputs are rejected, not normalized).  The initial submodule of N
(generated by all initial forms of elements of N) is read off a certified
local standard basis; this bridge is never taken on faith: generator
degrees are cross-checked against the truncation oracle wherever a verdict
depends on them, and disagreements raise BridgeError.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .complexes import Matrix, ResolutionResult, resolve_cached
from .complexes import resolve_bounded  # noqa: F401  (public name; perfbench binds it)
from .engine import StandardBasis, standard_basis
from .orders import DS, GREVLEX
from .poly import FreeLayout, Polynomial, Vector
from .rings import LocalRing, ZeroInQuotientError, cached


class BridgeError(RuntimeError):
    """Engine and oracle (or two equivalent criteria) disagree, or an internal
    invariant fails: a bug, not data."""


class SubmoduleNotInMaximalIdeal(ValueError):
    pass


class _Presentation:
    """M = F/N over a ring presentation, N given by columns in F.

    The one constructor of both flavors: each column is put in normal form
    (the ring's ``nf_vector``), zero columns are dropped, and each flavor's
    ``_check_column`` checks the rest, which are kept as ``gens``.  Derived
    data is kept in ``cache`` (``rings.cached``).
    """

    def __init__(self, ring, layout: FreeLayout, gens):
        self.ring = ring
        self.layout = layout
        self.gens = []
        for g in gens:
            if isinstance(g, Polynomial):
                g = Vector.from_polys([g])
            if g.rank != layout.rank:
                raise ValueError("generator rank mismatch")
            g = ring.nf_vector(g)
            if g:
                self._check_column(g)
                self.gens.append(g)
        self.cache = {}

    def __repr__(self):
        return f"{type(self).__name__}(rank {self.layout.rank} / {len(self.gens)} relations)"


class LocalModule(_Presentation):
    """M = F/N over a local ring, N a submodule of m*F."""

    def __init__(self, ring: LocalRing, layout: FreeLayout, gens):
        if any(layout.twists):
            raise ValueError("local layouts carry zero twists")
        super().__init__(ring, layout, gens)

    def _check_column(self, v: Vector):
        if self.ring.unit_component(v) is not None:
            raise SubmoduleNotInMaximalIdeal("N ⊆ mF required")

    @property
    def is_free(self):
        return not self.gens

    def order(self):
        """nu(N): minimal column order (undefined for N = 0)."""
        if not self.gens:
            raise ZeroInQuotientError("N = 0 has no order")
        return min(g.order() for g in self.gens)


@dataclass
class InitialData:
    """The initial submodule of N inside the associated graded of F."""

    order: int                      # s = nu(N)
    generators: list                # minimal homogeneous generators, over A
    input_is_standard_basis: bool
    generator_degrees: tuple        # sorted multiset of minimal generator degrees
    basis: StandardBasis            # GREVLEX standard basis of the generators, over A
    module: _Presentation           # G(M) = F/N*, a GradedModule over A


@cached
def submodule_initial(mpres: LocalModule) -> InitialData:
    """Initial forms of a certified basis of N, minimalized over A.

    The forms present G(M) = F/N* over A, built once as a ``GradedModule``
    (whose constructor is their one normal form) and kept as the data's
    ``module``.  N*'s minimal generators are the first differential of
    G(M)'s cached resolution, which later cutoffs extend.
    """
    if mpres.is_free:
        raise ZeroInQuotientError("N = 0 has no initial data")
    from .graded import GradedModule

    ring = mpres.ring
    A = ring.graded_cover
    sb = standard_basis(mpres.gens, DS, mpres.layout, modulus=ring.ideal_sb)
    gmod = GradedModule(A, mpres.layout, [g.initial_form() for g in sb.gens])
    res = resolve_cached(gmod, 1)
    min_gens = res.mats[0].columns if res.mats else []
    degrees = tuple(sorted(v.degree_in(mpres.layout) for v in min_gens))
    s = mpres.order()
    if degrees and degrees[0] != s:
        raise BridgeError("min initial-form degree differs from nu(N)")
    # do the initial forms of the *given* generators already generate?
    given = [w for w in (A.nf_vector(g.initial_form()) for g in mpres.gens) if w]
    basis_given = standard_basis(given, GREVLEX, mpres.layout, modulus=A.ideal_sb)
    flag = all(basis_given.contains(v) for v in min_gens)
    basis_full = standard_basis(min_gens, GREVLEX, mpres.layout, modulus=A.ideal_sb)
    if not all(basis_full.contains(v) for v in given):
        raise BridgeError("initial forms of generators escape the initial submodule")
    return InitialData(s, min_gens, flag, degrees, basis_full, gmod)


@cached
def assoc_graded_module(mpres: LocalModule):
    """G(M) = F/N* over A: the module that ``submodule_initial`` builds and
    checks, or the free module F when N = 0."""
    if not mpres.is_free:
        return submodule_initial(mpres).module
    from .graded import GradedModule

    return GradedModule(mpres.ring.graded_cover, mpres.layout, [])


# ------------------------------------------------------------- resolutions


def local_minimal_resolution(mpres: LocalModule, cutoff: int) -> ResolutionResult:
    """Iterated minimal syzygies over R, stopping at the homological cutoff.

    A free module is its own resolution (pdim 0) at every cutoff, 0 included.
    """
    return resolve_cached(mpres, cutoff)


def initial_matrix(mat: Matrix, ring: LocalRing):
    """(s, initial matrix over A): entries of order s survive as initial
    forms, strictly deeper entries become zero.  The columns of ``mat`` are
    in normal form, as every stored column is."""
    A = ring.graded_cover
    entries = [v.components() for v in mat.columns]
    orders = [e.order() for col in entries for e in col.values()]
    if not orders:
        raise ZeroInQuotientError("initial form of the zero matrix")
    s = min(orders)
    cols = []
    for col in entries:
        terms = {}
        for r, e in col.items():
            if e.order() != s:
                continue
            f = A.nf(e.initial_form())
            for exps, a in f.terms.items():
                terms[(r, exps)] = a
        cols.append(Vector(ring.cover, mat.target.rank, terms))
    return s, cols


# ------------------------------------------------------- equigeneration


@dataclass
class EquigenReport:
    verdict: bool
    order: int
    generator_degrees: tuple        # path A: minimal generator degrees of the initial submodule
    intersection_condition: bool    # path B: N | m^{s+1} F == m N
    mu_condition: bool              # path B: mu(initial submodule) == mu(N)
    mu_n: int
    mu_nstar: int
    truncation: int


def _movable_answer(mpres: LocalModule, s: int, fmodel: oracle.FreeModel):
    """What can move under t -> t+1: the intersection condition and mu(N)."""
    gens = mpres.gens
    # m*N first: N is m*N plus the generator rows
    msub = fmodel.submodule(gens, min_mult_deg=1)
    cond_intersection = oracle.filtration_intersection(fmodel, gens, s + 1) == msub
    return cond_intersection, fmodel.submodule(gens).rank - msub.rank


def equigenerated_check(mpres: LocalModule, truncation: int = 12) -> EquigenReport:
    """``equigenerated_at`` on a new ``oracle.stability_pair`` at ``truncation``."""
    return equigenerated_at(mpres, oracle.stability_pair(mpres.ring, mpres.layout.rank, truncation))


def equigenerated_at(mpres: LocalModule, model: oracle.FreeModel) -> EquigenReport:
    """Equigeneration of the initial submodule, decided along two routes.

    Path A reads minimal generator degrees from the engine; path B checks
    the intersection condition and the generator-count condition through
    the truncation oracle, on the stability pair ``model`` (its t-model).
    The intersection condition and mu(N) are verified stable under
    t -> t+1; mu(N*) is read once, at t, from blocks that the cut leaves
    unchanged (see ``oracle``).  The two paths agreeing is a theorem;
    disagreement raises BridgeError.
    """
    if mpres.is_free:
        raise ZeroInQuotientError("N = 0: equigeneration undefined")
    data = submodule_initial(mpres)
    s = data.order
    degrees = data.generator_degrees
    path_a = all(d == s for d in degrees)
    jmax = max(degrees)
    oracle._window_check(mpres.gens, max(jmax, s + 1) + 1, model.t)
    # the t-model is asked first, so its size error comes first
    answer = _movable_answer(mpres, s, model)
    if answer != _movable_answer(mpres, s, model.above):
        raise oracle.OracleWindowError("oracle answers unstable under t -> t+1")
    cond_intersection, mu_n = answer
    _, mus = oracle.submodule_layer_data(model, mpres.gens, jmax)
    mu_nstar = sum(mus.values())
    if mu_nstar != len(degrees):
        raise BridgeError(
            f"oracle counts {mu_nstar} minimal initial generators, engine {len(degrees)}"
        )
    mu_condition = mu_nstar == mu_n
    path_b = cond_intersection and mu_condition
    if path_a != path_b:
        raise BridgeError("equigeneration criteria (i) and (iv) disagree")
    return EquigenReport(
        path_a, s, degrees, cond_intersection, mu_condition, mu_n, mu_nstar, model.t
    )
