"""Numerical workbench for continuous controlled g-fusion frames.

Finite-dimensional complex Hilbert spaces only: families of weighted
(subspace, local operator) atoms under a pair of positive invertible
controls, their frame operators, optimal bounds, duals, pair operators,
multipliers, resolutions of the identity, and perturbation stability.
"""

__version__ = "0.1.0"

from .analysis import (
    CoefficientBundle,
    CrossDualityReport,
    EquivalenceReport,
    analysis,
    canonical_dual,
    controlled_plain_equivalence,
    cross_duality_check,
    frame_operator,
    gram_form,
    gram_form_samples,
    optimal_bounds,
    plain_frame_operator,
    recontrol_balanced,
    recontrol_product,
    synthesis,
    synthesis_matrix,
    transform_family,
)
from .errors import (
    ControlledStructureError,
    DimensionError,
    FamilyDocumentError,
    GFusionError,
    HypothesisError,
    NotAFrameError,
    NotPositiveError,
    PairingError,
    SingularOperatorError,
    ValidationError,
)
from .family import (
    ControlledFamily,
    FamilyDiagnostics,
    FrameReport,
    MeasureAtom,
    MultiplierSymbol,
    ball_partition_example,
    replace_controls,
    require_valid,
    total_v2,
    validate,
)
from .linalg import (
    SpectralSummary,
    Subspace,
    adjoint,
    herm_defect,
    hermitian_part,
    inverse,
    is_positive,
    operator_norm,
    operator_sqrt,
    orthonormal_columns,
    spectral_summary,
)
from .pairs import (
    BesselPair,
    MultiplierReport,
    PairBoundedBelowReport,
    PairOperatorReport,
    PairSumReport,
    multiplier,
    multiplier_frame_criterion,
    pair_bounded_below,
    pair_frame_operator,
    pair_operator_check,
    pair_sum_positivity,
)
from .perturbation import (
    PerturbationParams,
    PerturbationReport,
    perturb_check,
    perturb_check_simple,
)
from .resolution import (
    CanonicalResolutions,
    DualResolutionReport,
    OperatorFamily,
    ResolutionFrameReport,
    ResolutionReport,
    canonical_resolutions,
    dual_resolution_bounds,
    is_resolution,
    resolution_implies_frame,
)
from .serialization import (
    canonical_json,
    document_to_family,
    family_to_document,
    load_family,
    save_family,
)
