"""Exact computational pipeline for projected-embedding questions about
simplicial maps: pair models of the double points with their swap involution,
mod-2 verdicts for equivariant sphere maps read off those models, certified
lift construction for simple fold maps, subdivision-based PL-ification of
arbitrary lifts, and stability reports for linear maps to the line — all over
rational arithmetic.
"""

from .complexes import BarycentricPoint, SimplicialComplex
from .double_points import (
    DoublePointModel,
    check_star_condition,
    double_point_model,
    identified_vertex_pairs,
)
from .errors import (
    BlockedRefinement,
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
    construct_lift_3ptfree,
    has_triple_points,
    is_simple_fold,
)
from .maps import SemiLinearMap, SimplicialMap
from .mod2 import yang_index
from .obstruction import (
    PremReport,
    Verdict,
    equivariant_map_exists,
    equivariant_witness,
    prem_report,
    projection_degree_parity,
)
from .plify import PlifyResult
from .stability import StableToLineReport, stable_to_line_report
from .subdivision import SubdivisionRecord, barycentric_subdivide, barycentric_subdivide_map
from .verify import VerificationResult, verify_embedding

__version__ = "0.1.0"

__all__ = [
    "BarycentricPoint",
    "BlockedRefinement",
    "CertificationError",
    "ComplexError",
    "DegenerateMap",
    "DoublePointModel",
    "InputNotInjective",
    "InternalError",
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
    "barycentric_subdivide",
    "barycentric_subdivide_map",
    "check_star_condition",
    "construct_lift_3ptfree",
    "double_point_model",
    "equivariant_map_exists",
    "equivariant_witness",
    "has_triple_points",
    "identified_vertex_pairs",
    "is_simple_fold",
    "prem_report",
    "projection_degree_parity",
    "stable_to_line_report",
    "verify_embedding",
    "yang_index",
]
