"""Exact computational pipeline for projected-embedding questions about
simplicial maps: double-point complexes with their swap involutions, mod-2
obstruction verdicts for equivariant sphere maps, certified lift construction
for simple fold maps, subdivision-based PL-ification of arbitrary lifts, and
general-position stability reports — all over rational arithmetic.
"""

from .complexes import (
    BarycentricPoint,
    GeometricComplex,
    InvolutionComplex,
    SimplicialComplex,
    standard_basis_realization,
    validate_complex,
)
from .double_points import (
    DoublePointModel,
    build_double_point_complex,
    check_star_condition,
    double_point_model,
    identified_vertex_pairs,
)
from .errors import (
    BlockedRefinement,
    CarrierError,
    CertificationError,
    ComplexError,
    DegenerateMap,
    InputNotInjective,
    InternalError,
    MapError,
    ModelInvalid,
    NotKPrem,
    NotSimpleFold,
    ParseError,
    PreconditionError,
    PremError,
    TriplePointsPresent,
)
from .lift import (
    LiftResult,
    StarBoundary,
    build_closure_model,
    construct_lift_3ptfree,
    fold_locus,
    has_triple_points,
    is_simple_fold,
    isovariant_pl_approximation,
)
from .maps import SemiLinearMap, SimplicialMap, as_semi_linear
from .mod2 import (
    ComponentReport,
    component_report,
    quotient_by_free_involution,
    w1_cocycle,
    yang_index,
)
from .obstruction import (
    PremReport,
    Verdict,
    equivariant_map_exists,
    equivariant_witness,
    prem_report,
    projection_degree_parity,
)
from .plify import PlifyResult, plify
from .stability import (
    StableToLineReport,
    fiber_configurations,
    is_fiberwise_general_position,
    is_general_position_config,
    perturb_to_general_position,
    stable_to_line_report,
)
from .subdivision import (
    SubdivisionRecord,
    barycentric_subdivide,
    barycentric_subdivide_map,
    relative_derived_subdivide,
    stellar_bisect_edge,
)
from .verify import VerificationResult, verify_embedding

__version__ = "0.1.0"

__all__ = [
    "BarycentricPoint",
    "BlockedRefinement",
    "CarrierError",
    "CertificationError",
    "ComplexError",
    "ComponentReport",
    "DegenerateMap",
    "DoublePointModel",
    "GeometricComplex",
    "InputNotInjective",
    "InternalError",
    "InvolutionComplex",
    "LiftResult",
    "MapError",
    "ModelInvalid",
    "NotKPrem",
    "NotSimpleFold",
    "ParseError",
    "PlifyResult",
    "PreconditionError",
    "PremError",
    "PremReport",
    "SemiLinearMap",
    "SimplicialComplex",
    "SimplicialMap",
    "StableToLineReport",
    "StarBoundary",
    "SubdivisionRecord",
    "TriplePointsPresent",
    "Verdict",
    "VerificationResult",
    "as_semi_linear",
    "barycentric_subdivide",
    "barycentric_subdivide_map",
    "build_closure_model",
    "build_double_point_complex",
    "check_star_condition",
    "component_report",
    "construct_lift_3ptfree",
    "double_point_model",
    "equivariant_map_exists",
    "equivariant_witness",
    "fiber_configurations",
    "fold_locus",
    "has_triple_points",
    "identified_vertex_pairs",
    "is_fiberwise_general_position",
    "is_general_position_config",
    "is_simple_fold",
    "isovariant_pl_approximation",
    "perturb_to_general_position",
    "plify",
    "prem_report",
    "projection_degree_parity",
    "quotient_by_free_involution",
    "relative_derived_subdivide",
    "stable_to_line_report",
    "standard_basis_realization",
    "stellar_bisect_edge",
    "validate_complex",
    "verify_embedding",
    "w1_cocycle",
    "yang_index",
]
