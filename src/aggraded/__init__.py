"""Exact computation of associated graded modules and pure resolutions.

The package computes, over a prime field: tangent cones and associated
graded rings of local rings presented as localized polynomial quotients,
initial submodules and their equigeneration, minimal local and graded free
resolutions, the associated graded complex of a resolution with its purity
verdict, Hilbert series and Cohen-Macaulay-type invariants, and the local
Herzog-Kuhl equivalences -- all in exact arithmetic, with an independent
truncated linear-algebra oracle cross-checking the delicate bridges.
"""

__version__ = "0.1.0"

from .field import PrimeField, DEFAULT_CHARACTERISTIC
from .orders import OrderSpec, GLOBAL, LOCAL, GREVLEX, DS
from .poly import FreeLayout, PolyRing, Polynomial, Vector
from .engine import StandardBasis, SyzygyMatrix, normal_form, standard_basis, syzygies
from .complexes import Matrix, ResolutionResult, check_complex, minimalize, resolve_bounded
from .rings import GradedRing, LocalRing, ideals_equal
from .modules import (BridgeError, EquigenReport, InitialData, LocalModule,
                      assoc_graded_module, equigenerated_check, initial_matrix,
                      local_minimal_resolution, submodule_initial)
from .graded import (BettiTable, GradedModule, HilbertSeries, NumericInvariants,
                     PurityReport, betti_analysis, hilbert_series,
                     minimal_graded_resolution, numeric_invariants, ring_as_module)
from .purity import (InitialComplexVerdict, KoszulFibreReport, PurityVerdict,
                     fiber_product, initial_complex, koszul_fibre_check, purity_verdict,
                     syzygy_filtration_check, verify_initial_complex,
                     PURE, NOT_PURE, INCONCLUSIVE)
from .herzog_kuhl import (CMPurityReport, FinitePdimReport, HKCoefficients,
                          HKReport, PreconditionError, cmd_equivalence_report,
                          cm_purity_report, finite_pdim_consequences,
                          hk_coefficients, ring_local_invariants)
from .oracle import (FreeModel, OracleWindowError, Subspace, TruncatedModel,
                     build_model, filtration_intersection, submodule_layer_data)
