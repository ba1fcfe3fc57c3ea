"""Exception hierarchy shared by every module.

Exit-code conventions used by the CLI:
  64  input files fail to parse,
  65  a documented precondition on the inputs fails,
  70  an internal contract is violated (a bug, never an input problem).
"""

from __future__ import annotations


class PremError(Exception):
    """Base class for all library errors."""

    exit_code = 70


class ParseError(PremError):
    """Input text does not match the file grammar."""

    exit_code = 64


class ComplexError(PremError):
    """A simplicial complex violates its structural invariants."""

    exit_code = 65


class MapError(PremError):
    """A vertex assignment does not define a simplicial map."""

    exit_code = 65


class CarrierError(PremError):
    """A semi-linear image is not contained in any single target simplex."""

    exit_code = 65


class PreconditionError(PremError):
    """A documented precondition of an operation fails on the given input."""

    exit_code = 65


class DegenerateMap(PreconditionError):
    """The map collapses an edge, so it has point-inverses of positive dimension."""


class TriplePointsPresent(PreconditionError):
    """Three pairwise disjoint simplices share one image; the lift construction
    only covers maps without such triples."""


class NotSimpleFold(PreconditionError):
    """Some identified pair has its second member on the fold locus."""


class InputNotInjective(PreconditionError):
    """Two distinct identified points carry equal lift values."""


class NotKPrem(PreconditionError):
    """The equivariant obstruction is nonzero, so no k extra coordinates
    make the map an embedding."""


class ModelInvalid(PreconditionError):
    """The combinatorial double-point model stayed invalid after the allowed
    number of subdivision retries."""


class BlockedRefinement(PreconditionError):
    """The linearization cascade needs a refinement step that this
    implementation does not support for the given input dimension."""


class CertificationError(PremError):
    """An exact certificate could not be produced after bounded retries."""

    exit_code = 70


class InternalError(PremError):
    """An internal consistency check failed; indicates a bug."""

    exit_code = 70
