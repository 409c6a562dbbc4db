"""Purity of the associated graded module, decided along two routes.

From a minimal local resolution of M one builds the associated graded
complex over A: the i-th differential is the initial matrix of phi_i and
the i-th free module is twisted by delta_i = s_1 + ... + s_i.  This complex
is a minimal A-free resolution of the associated graded module exactly when
that module is pure, so purity can be decided either by inspecting the
directly computed graded Betti table (route A) or by verifying the complex
(route B): the two must agree wherever both are conclusive, and a
disagreement is a build-failing error, not a result.

``verify_initial_complex`` is route B's one entry point: it resolves M one
step past the cutoff, builds the complex's differentials (``initial_complex``)
and verifies them up to the cutoff; its verdict carries that resolution.

Fibre products of local rings and the Koszul/fibre-product necessary
conditions live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import oracle
from .complexes import Matrix, ResolutionResult, check_complex, syzygy_columns
from .engine import standard_basis
from .graded import PurityReport, betti_analysis, minimal_graded_resolution
from .modules import (BridgeError, LocalModule, assoc_graded_module, initial_matrix,
                      local_minimal_resolution, submodule_initial)
from .orders import GREVLEX
from .poly import FreeLayout, Polynomial, PolyRing
from .rings import LocalRing, ideals_equal

PURE = "pure"
NOT_PURE = "not-pure"
INCONCLUSIVE = "inconclusive-at-cutoff"


def initial_complex(mpres: LocalModule, res: ResolutionResult) -> list:
    """The initial matrices of ``res``, a minimal resolution of ``mpres``: the
    differentials over A from F_0 = ``res.layout``, with F_i twisted by
    delta_i.  ``NotAComplexError`` unless they form a complex."""
    ring = mpres.ring
    target = res.layout
    mats = []
    for mat, d in zip(res.mats, res.delta[1:]):
        _, cols = initial_matrix(mat, ring)
        source = FreeLayout(mat.source.rank, (d,) * mat.source.rank)
        mats.append(Matrix(target, source, cols))
        target = source
    check_complex(mats, ring.graded_cover.nf_vector)
    return mats


@dataclass
class InitialComplexVerdict:
    """Route B's checks; the complex property itself is certified by
    ``initial_complex``, which raises when it fails."""

    resolution: ResolutionResult          # the local resolution checked, to cutoff + 1
    acyclic_up_to: int
    homology_witness: tuple = None        # (position, Vector)
    coker_matches: bool = True            # image of the first differential is the initial submodule
    is_minimal: bool = True
    purity_conclusion: str = INCONCLUSIVE
    acyclic_without_coker_match: bool = False


def _first_outside(vectors, cols, layout, A):
    """The first of the nonzero ``vectors`` outside the span of ``cols`` in
    ``layout`` over A, or None."""
    cols = [v for v in cols if v]
    if not cols:
        return vectors[0] if vectors else None
    basis = standard_basis(cols, GREVLEX, layout, modulus=A.ideal_sb)
    return next((v for v in vectors if not basis.contains(v)), None)


def verify_initial_complex(mpres: LocalModule, cutoff: int) -> InitialComplexVerdict:
    """Route B at the cutoff: homology, cokernel and minimality checks of the
    initial complex of M's resolution one step past the cutoff, so that
    homology at the cutoff position is compared with the image of the next
    map.  Homology at position i compares syzygies of the i-th differential
    with the column span of the (i+1)-st by normal-form containment over A;
    the kernel of the last differential is checked directly when the
    resolution is finite.
    """
    res = local_minimal_resolution(mpres, cutoff + 1)
    mats = initial_complex(mpres, res)
    A = mpres.ring.graded_cover
    n = len(mats)
    maxpos = min(cutoff, n if res.finite else n - 1)
    witness = None
    acyclic_up_to = 0
    for i in range(1, maxpos + 1):
        kernel_gens = syzygy_columns(mats[i - 1].columns, mats[i - 1].target, A)
        bad = _first_outside(kernel_gens, mats[i].columns if i < n else [], mats[i - 1].source, A)
        if bad is not None:
            witness = (i, bad)
            break
        acyclic_up_to = i
    # cokernel: the columns of the first initial matrix generate the initial submodule
    if mpres.is_free:
        coker = True
    else:
        init = submodule_initial(mpres)
        first_cols = mats[0].columns if mats else []
        coker = _first_outside(init.generators, first_cols, mpres.layout, A) is None
        # the reverse containment is a theorem; violation is a bug
        if not all(init.basis.contains(v) for v in first_cols if v):
            raise BridgeError("initial matrix columns escape the initial submodule")
    minimal = all(A.unit_component(v) is None for m in mats for v in m.columns)
    if witness is not None or not coker or not minimal:
        conclusion = NOT_PURE
    elif res.finite and maxpos >= n:
        conclusion = PURE
    else:
        conclusion = INCONCLUSIVE
    noteworthy = (witness is None and maxpos > 0) and not coker
    return InitialComplexVerdict(res, acyclic_up_to, witness, coker, minimal, conclusion,
                                 noteworthy)


@dataclass
class PurityVerdict:
    verdict: str
    route_a: PurityReport
    route_b: InitialComplexVerdict
    betti_transfer: dict = field(default_factory=dict)
    delta: tuple = ()

    @property
    def conclusive(self):
        return self.verdict != INCONCLUSIVE


def route_a_verdict(report: PurityReport) -> str:
    """Route A's verdict, read off a graded Betti table: one degree per
    homological position is pure once the resolution is complete."""
    if not report.is_pure:
        return NOT_PURE
    return PURE if report.complete else INCONCLUSIVE


def purity_verdict(mpres: LocalModule, cutoff: int) -> PurityVerdict:
    """Theorem-grade purity decision with mandatory route agreement."""
    route_b = verify_initial_complex(mpres, cutoff)
    res = route_b.resolution
    delta = tuple(res.delta)
    gm = assoc_graded_module(mpres)
    table = minimal_graded_resolution(gm, cutoff)
    route_a = betti_analysis(table)
    a_verdict = route_a_verdict(route_a)
    b_verdict = route_b.purity_conclusion
    if PURE in (a_verdict, b_verdict) and NOT_PURE in (a_verdict, b_verdict):
        raise BridgeError("purity routes disagree: graded table vs initial complex")
    if a_verdict == b_verdict == INCONCLUSIVE:
        verdict = INCONCLUSIVE
    elif a_verdict != INCONCLUSIVE:
        verdict = a_verdict
    else:
        verdict = b_verdict
    transfer = {}
    if verdict == PURE:
        for i, br in enumerate(res.ranks):
            a_count = table.entries.get((i, delta[i]), 0)
            transfer[i] = (br, a_count)
            if br != a_count:
                raise BridgeError("Betti transfer failed on a pure module")
            if table.degrees(i) != ([delta[i]] if br else []):
                raise BridgeError("pure degree placement differs from delta")
    return PurityVerdict(verdict, route_a, route_b, transfer, delta)


# ------------------------------------------------------ filtration checks


def syzygy_filtration_check(mpres: LocalModule, i: int, j_range=None,
                            truncation: int = 12, regbound: int = 10):
    """Per-degree check of (i-th syzygy) | m^j F = m^{j - s_i} (i-th syzygy).

    Subspace comparison in the truncation oracle, stability-checked at
    t and t+1.  The j = s_i row holds by definition.  When ``j_range`` is
    omitted it defaults to s_i <= j <= regbound + i - delta_{i-1}, the
    window that suffices under a regularity bound of ``regbound``.
    """
    if i < 1:
        raise ValueError("homological index must be >= 1")
    res = local_minimal_resolution(mpres, i)
    if len(res.mats) < i:
        return {}
    mat = res.mats[i - 1]
    gens = mat.columns
    s_i = res.s[i - 1]
    if j_range is None:
        j_range = range(s_i, regbound + i - res.delta[i - 1] + 1)
    out = {}
    model = oracle.stability_pair(mpres.ring, mat.target.rank, truncation)
    for j in j_range:
        if j < s_i:
            raise ValueError("j below the syzygy order")
        answers = []
        for fmodel in (model, model.above):
            inter = oracle.filtration_intersection(fmodel, gens, j)
            power = fmodel.submodule(gens, min_mult_deg=j - s_i)
            answers.append(inter.rank == power.rank)
        if answers[0] != answers[1]:
            raise oracle.OracleWindowError("filtration answer unstable under t -> t+1")
        out[j] = answers[0]
    return out


# ----------------------------------------------------------- fibre products


def fiber_product(r1: LocalRing, r2: LocalRing) -> LocalRing:
    """Fibre product over the residue field: union of variables, both ideals,
    and all mixed products of variables from the two sides.

    The tangent cone of the result is asserted to be the fibre product of
    the tangent cones.
    """
    if r1.cover.field != r2.cover.field:
        raise ValueError("fibre product needs a common coefficient field")
    names1 = list(r1.cover.names)
    names2 = []
    taken = set(names1)
    for nm in r2.cover.names:
        new = nm
        while new in taken:
            new = new + "'"
        names2.append(new)
        taken.add(new)
    cover = PolyRing(names1 + names2, r1.cover.field)
    n1, n2 = len(names1), len(names2)

    def embed(f: Polynomial, offset: int, side_n: int) -> Polynomial:
        terms = {}
        for e, c in f.terms.items():
            ee = [0] * (n1 + n2)
            for k, x in enumerate(e):
                ee[offset + k] = x
            terms[tuple(ee)] = c
        return Polynomial(cover, terms)

    ideal = [embed(g, 0, n1) for g in r1.ideal] + [embed(g, n1, n2) for g in r2.ideal]
    mixed = []
    for a in range(n1):
        for b in range(n2):
            e = [0] * (n1 + n2)
            e[a] = 1
            e[n1 + b] = 1
            mixed.append(Polynomial(cover, {tuple(e): 1}))
    ring = LocalRing(cover, ideal + mixed)
    expected = (
        [embed(g, 0, n1) for g in r1.tangent_cone()]
        + [embed(g, n1, n2) for g in r2.tangent_cone()]
        + mixed
    )
    if not ideals_equal(ring.tangent_cone(), expected):
        raise BridgeError("tangent cone of the fibre product is not the fibre product of tangent cones")
    return ring


@dataclass
class KoszulFibreReport:
    omega2_equigenerated: bool
    omega2_degrees: tuple
    omega2_linear_within_cutoff: bool
    column_orders_ok: dict                  # j > 2 -> every column of phi_j has order 1
    not_pure_certificate: bool
    cutoff: int


def koszul_fibre_check(mpres: LocalModule, cutoff: int) -> KoszulFibreReport:
    """Necessary conditions for purity over a fibre product of Koszul rings:
    the second graded syzygy must have a linear resolution, and every column
    of phi_j must have order 1 for j > 2.  Either failing certifies
    non-purity without the full pipeline.

    The ring is not checked: the report is computed over any local ring, and
    its certificate means non-purity only over such a fibre product, which
    the caller vouches for, as a session's ``koszulfp`` line does."""
    gm = assoc_graded_module(mpres)
    table = minimal_graded_resolution(gm, max(cutoff, 3))
    degs2 = tuple(table.degrees(2))
    equi = len(degs2) <= 1
    linear = equi
    if equi and degs2:
        d2 = degs2[0]
        for i in range(3, table.max_i + 1):
            di = table.degrees(i)
            if di and di != [d2 + (i - 2)]:
                linear = False
                break
    res = local_minimal_resolution(mpres, cutoff)
    orders_ok = {}
    for j in range(3, len(res.mats) + 1):
        orders_ok[j] = all(o == 1 for o in res.column_orders(j))
    certificate = (not linear) or (not all(orders_ok.values()) if orders_ok else False)
    return KoszulFibreReport(equi, degs2, linear, orders_ok, certificate, cutoff)
