"""Herzog-Kuhl coefficients and the finite-projective-dimension theorems.

All identities here are exact: coefficients are Fractions, multiplicities
integers.  The three-way equivalences are asserted, not merely reported; a
violation on an input passing the preconditions is a build-failing bug.
``hk_identities`` evaluates the Herzog-Kuhl equations and the multiplicity
identity of a finite resolution for every theorem that reads them.

Local depths are routed through Auslander-Buchsbaum: depth(R) is n minus
the projective dimension of R over the localized polynomial cover, and
depth(M) = depth(R) - pdim_R(M) whenever the latter is finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .complexes import ResolutionResult
from .graded import hilbert_series, numeric_invariants, ring_as_module
from .modules import BridgeError, LocalModule, assoc_graded_module, local_minimal_resolution
from .poly import FreeLayout
from .purity import NOT_PURE, PURE, purity_verdict
from .rings import LocalRing, cached


class PreconditionError(ValueError):
    """The theorem's hypotheses fail on this input (not a verdict)."""


@dataclass
class HKCoefficients:
    b: tuple                 # b_1..b_p, exact positive rationals
    delta: tuple             # (0, delta_1, ..., delta_p) strictly increasing


def hk_coefficients(delta) -> HKCoefficients:
    """b_i = (-1)^(i-1) prod_{j != i} delta_j / (delta_j - delta_i); none when p = 0."""
    delta = tuple(delta)
    if not delta or delta[0] != 0:
        raise ValueError("degree type must start at 0")
    if any(a >= b for a, b in zip(delta, delta[1:])):
        raise ValueError("degree type must be strictly increasing")
    p = len(delta) - 1
    bs = []
    for i in range(1, p + 1):
        val = Fraction((-1) ** (i - 1))
        for j in range(1, p + 1):
            if j == i:
                continue
            val *= Fraction(delta[j], delta[j] - delta[i])
        if val <= 0:
            raise BridgeError("Herzog-Kuhl coefficient came out nonpositive")
        bs.append(val)
    return HKCoefficients(tuple(bs), delta)


# ------------------------------------------------------- local invariants


@cached
def ring_pdim_over_cover(ring: LocalRing) -> int:
    """pdim of R over the localized polynomial cover (finite, <= n)."""
    if not ring.ideal:
        return 0
    base = LocalRing(ring.cover, ())
    mod = LocalModule(base, FreeLayout(1), list(ring.ideal))
    res = local_minimal_resolution(mod, ring.nvars + 1)
    if not res.finite:
        raise BridgeError("resolution over a regular cover must be finite")
    return res.pdim


@cached
def ring_local_invariants(ring: LocalRing):
    """(dim R, depth R, cmd R, e R): dimension and multiplicity through the
    associated graded ring, depth through Auslander-Buchsbaum over the cover."""
    hs = hilbert_series(ring_as_module(ring.graded_cover))
    depth = ring.nvars - ring_pdim_over_cover(ring)
    return hs.dim, depth, hs.dim - depth, hs.multiplicity


def _finite_pdim_data(mpres: LocalModule, cutoff: int):
    """(resolution of M, invariants of G(M), invariants of A, cmd M) for a
    module whose projective dimension is finite within the cutoff.  dim M and
    e(M) are those of G(M); depth M = depth R - pdim M."""
    res = local_minimal_resolution(mpres, cutoff)
    if not res.finite:
        raise PreconditionError(f"pdim not finite within cutoff {cutoff}")
    inv_gm = numeric_invariants(assoc_graded_module(mpres), cutoff)
    inv_a = numeric_invariants(ring_as_module(mpres.ring.graded_cover), cutoff)
    depth_m = ring_local_invariants(mpres.ring)[1] - res.pdim
    return res, inv_gm, inv_a, inv_gm.dim - depth_m


@dataclass
class HKIdentities:
    hk: HKCoefficients
    betti_holds: bool                # beta_i = b_i * beta_0 for all i
    multiplicity_sides: tuple        # (e(M), e(R) * beta_0 / p! * prod delta_i)

    @property
    def multiplicity_holds(self):
        return Fraction(self.multiplicity_sides[0]) == self.multiplicity_sides[1]


def hk_identities(res: ResolutionResult, e_ring: int, e_module: int) -> HKIdentities:
    """The Herzog-Kuhl equations and the multiplicity identity of a finite
    resolution of M, e(R) = ``e_ring`` and e(M) = ``e_module``.  At p = 0
    there is no b_i and the right side is e(R) * beta_0 (0! = 1, empty
    product)."""
    p = res.pdim
    betti = res.ranks
    hk = hk_coefficients(res.delta)
    holds = all(Fraction(betti[i]) == hk.b[i - 1] * betti[0] for i in range(1, p + 1))
    rhs = Fraction(e_ring * betti[0], factorial(p))
    for d in hk.delta[1:]:
        rhs *= d
    return HKIdentities(hk, holds, (e_module, rhs))


# ------------------------------------------------------------ the theorems


@dataclass
class HKReport:
    condition_cmd_module: bool       # cmd(M) = cmd(R)
    condition_betti: bool            # beta_i = b_i * beta_0 for all i
    condition_cmd_graded: bool       # cmd of the graded module = cmd(A)
    cmd_module: int
    cmd_ring: int
    cmd_graded_module: int
    cmd_graded_ring: int
    betti: tuple
    hk: HKCoefficients
    multiplicity_identity_holds: bool
    multiplicity_sides: tuple        # (e(M), e(R) * beta_0 / p! * prod delta_i)


def cmd_equivalence_report(mpres: LocalModule, cutoff: int = 8) -> HKReport:
    """The local Herzog-Kuhl equivalence for a pure module of finite pdim."""
    pv = purity_verdict(mpres, cutoff)
    if pv.verdict == NOT_PURE:
        raise PreconditionError("associated graded module does not have a pure resolution")
    if pv.verdict != PURE:
        raise PreconditionError("purity inconclusive at this cutoff")
    res, inv_gm, inv_a, cmd_m = _finite_pdim_data(mpres, cutoff)
    if res.pdim == 0:
        raise PreconditionError("free module: the degree type is empty")
    _, _, cmd_r, e_r = ring_local_invariants(mpres.ring)
    ident = hk_identities(res, e_r, inv_gm.multiplicity)
    cond1 = cmd_m == cmd_r
    cond2 = ident.betti_holds
    cond3 = inv_gm.cmd == inv_a.cmd
    if not (cond1 == cond2 == cond3):
        raise BridgeError("Herzog-Kuhl equivalence violated on a pure module")
    if cond1 and not ident.multiplicity_holds:
        raise BridgeError("multiplicity identity fails although the cmd conditions hold")
    return HKReport(
        cond1, cond2, cond3, cmd_m, cmd_r, inv_gm.cmd, inv_a.cmd,
        tuple(res.ranks), ident.hk, ident.multiplicity_holds, ident.multiplicity_sides,
    )


@dataclass
class CMPurityReport:
    """Tri-state verdicts (True / False / None=inconclusive) for the three
    equivalent characterizations of 'graded module pure and Cohen-Macaulay'."""

    condition_i: bool | None         # pure + CM graded module
    condition_ii: bool | None        # A CM + acyclic initial complex + HK + multiplicity
    condition_iii: bool | None       # pure + A CM + M CM
    detail: dict


def cm_purity_report(mpres: LocalModule, cutoff: int = 8) -> CMPurityReport:
    res, inv_gm, inv_a, cmd_m = _finite_pdim_data(mpres, cutoff)
    pv = purity_verdict(mpres, cutoff)
    a_cm = inv_a.cmd == 0
    m_cm = cmd_m == 0
    gm_cm = inv_gm.cmd == 0

    pure = {PURE: True, NOT_PURE: False}.get(pv.verdict)
    cond_i = None if pure is None and gm_cm else (bool(pure) and gm_cm)
    # (ii): the resolution is finite, so route B checked every position
    acyclic = pv.route_b.homology_witness is None
    ident = hk_identities(res, ring_local_invariants(mpres.ring)[3], inv_gm.multiplicity)
    cond_ii = a_cm and acyclic and ident.betti_holds and ident.multiplicity_holds
    cond_iii = None if pure is None and (a_cm and m_cm) else (bool(pure) and a_cm and m_cm)
    concl = [c for c in (cond_i, cond_ii, cond_iii) if c is not None]
    if len(set(concl)) > 1:
        raise BridgeError("pure+CM equivalent conditions disagree")
    detail = {
        "pure": pv.verdict,
        "graded_module_cm": gm_cm,
        "graded_ring_cm": a_cm,
        "module_cm": m_cm,
        "acyclic": acyclic,
        "hk_equations": ident.betti_holds,
        "multiplicity_identity": ident.multiplicity_holds,
    }
    return CMPurityReport(cond_i, cond_ii, cond_iii, detail)


@dataclass
class FinitePdimReport:
    hypothesis: bool | None          # pdim_R(M) == pdim_A(graded M), None = not verified within cutoff
    pdim_local: int
    pdim_graded: int | None
    codim: int
    codim_le_pdim: bool | None
    module_cm: bool
    ring_cm_verdict: bool | None


def finite_pdim_consequences(mpres: LocalModule, cutoff: int = 8) -> FinitePdimReport:
    """codim(M) <= pdim(M) under matching projective dimensions, and ring
    Cohen-Macaulayness when the module is CM; inconclusive when the graded
    pdim is unresolved within the cutoff."""
    res, inv_gm, inv_a, cmd_m = _finite_pdim_data(mpres, cutoff)
    p, pdim_graded = res.pdim, inv_gm.pdim
    hypothesis = None if pdim_graded is None else pdim_graded == p
    codim = inv_a.dim - inv_gm.dim
    m_cm = cmd_m == 0
    codim_le = None
    ring_cm = None
    if hypothesis:
        codim_le = codim <= p
        if not codim_le:
            raise BridgeError("codim exceeds pdim although the hypothesis holds")
        if m_cm:
            _, _, cmd_r, _ = ring_local_invariants(mpres.ring)
            ring_cm = cmd_r == 0
            if not ring_cm:
                raise BridgeError("CM module of finite pdim over a non-CM ring")
    return FinitePdimReport(hypothesis, p, pdim_graded, codim, codim_le, m_cm, ring_cm)
