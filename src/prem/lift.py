"""Construction of certified extra coordinates turning a simplicial map into
an embedding, for maps without triple points whose folds are simple.

Geometry of the construction.  For a non-degenerate simplicial map, two
distinct points share an image exactly when they are matched points of two
distinct simplices with the same image.  Glued along their intersections,
the ordered same-image pairs form a complex ``C`` on which the swap fixes
exactly the diagonal part ``F``, the pairs ``(x, x)`` of the fold locus
(the faces of intersections of distinct same-image simplices).  ``|C| - |F|``
is the deleted double point locus, and it retracts equivariantly onto the
full subcomplex ``D`` on the off-diagonal vertices, whose cells are those of
the disjoint same-image pairs: ``D`` is the walked pair model
(:class:`DoublePointModel`), built for any non-degenerate map.  Projection
to the second coordinate is injective on the pairs precisely when there are
no triple points (three pairwise disjoint same-image simplices) and no
identified vertex lies on the fold locus; both conditions are checked and
violations are reported with witnesses.

Given an antipodal witness ``alpha`` on the identified pairs whose values
certify every cell of ``D`` (the origin lies outside the convex hull of the
values on the cell), the lift assigns to each source vertex ``v`` the value
``alpha(u, v)`` of its unique partner pair, and zero elsewhere.  On matched
points the difference of lift values is a positive combination of certified
witness values, hence nonzero: verification cannot fail, and is run anyway
as a bug canary.

The straight-line homotopy from the witness to the realized pair-difference
map ``(u, v) -> g(v) - g(u)`` avoids zero too.  Its certificate is one
positive multiple per identified pair: ``g(v) - g(u) = c * alpha(u, v)`` with
``c > 0``, checked exactly.  No cell needs a second hull test, because the
witness certification already showed the origin outside the hull of the
witness values on every cell of ``D``, and for positive multiples ``c_p``
the hull of ``{alpha_p} u {c_p alpha_p}`` contains the origin exactly when
the hull of ``{alpha_p}`` does: either way the origin is a nonnegative,
nonzero combination of the ``alpha_p``.  Without a prescribed boundary each
``c`` is 2, as partners are unique and ``alpha`` is antipodal; a prescribed
boundary must give positive multiples, checked by the same exact ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import linalg
from .complexes import SimplicialComplex, Simplex
from .double_points import DoublePointModel, vertex_fibres
from .errors import (
    CertificationError,
    DegenerateMap,
    InternalError,
    NotKPrem,
    NotSimpleFold,
    PreconditionError,
    TriplePointsPresent,
)
from .maps import SemiLinearMap, SimplicialMap
from .obstruction import (
    NOT_EXISTS,
    certify_witness,
    equivariant_map_exists,
    equivariant_witness,
    require_positive_k,
    sheet_split_witness,
)
from .verify import VerificationResult, verify_embedding


# -- gates --------------------------------------------------------------------


def has_triple_points(f: SimplicialMap) -> Optional[Tuple[Simplex, Simplex, Simplex]]:
    """A witness triple of pairwise disjoint same-image simplices, or None.
    Three such simplices are matched vertex by vertex, so they hold three
    distinct vertices of one image, which are such a triple themselves: the
    witness is the first three preimages, by source rank, of the first
    target vertex, by rank, that has three."""
    fibres = vertex_fibres(f)
    for x in f.target.vertices:
        if len(fibres.get(x, ())) > 2:
            return tuple((v,) for v in fibres[x][:3])
    return None


def is_simple_fold(model: DoublePointModel) -> Tuple[bool, List[Tuple]]:
    """Whether no identified vertex lies on the fold locus, whose vertices
    are those that the model's skipped pairs share.  Returns the flag
    together with the offending identified pairs."""
    bad = [(u, v) for (u, v) in model.vertices if v in model.fold_vertices]
    return (not bad, bad)


# -- names kept for the benchmark set-up --------------------------------------


def build_closure_model(f: SimplicialMap) -> DoublePointModel:
    """The walked pair model of a non-degenerate map, on which the lift
    certifies.  The ``lift-sphere`` benchmark set-up
    (``perfbench/workloads.py``) builds its witness through this name and
    :func:`closure_witness`."""
    if not f.is_non_degenerate():
        raise DegenerateMap(f"map collapses edges {f.degenerate_edges()[:3]}")
    return DoublePointModel(f)


def closure_witness(model: DoublePointModel, k: int) -> Dict:
    """The moment-curve witness of :func:`equivariant_witness`."""
    return equivariant_witness(model, k)


# -- the lift -----------------------------------------------------------------


@dataclass
class StarBoundary:
    """Prescribed lift values on a subcomplex that the construction must
    reproduce verbatim."""

    subcomplex: SimplicialComplex
    values: Dict


@dataclass
class LiftResult:
    """A verified lift with its witness.  ``homotopy_evidence`` holds one
    record ``(pair, ok, c)`` per identified pair ``(u, v)`` of the pair
    model, in its vertex order: whether ``g(v) - g(u) = c * alpha(u, v)``
    for some ``c > 0`` (``c`` is ``None`` when not), and
    ``homotopy_certified`` is their conjunction."""

    lift: SemiLinearMap
    k: int
    model: DoublePointModel
    witness: Dict
    verification: VerificationResult
    homotopy_certified: bool
    homotopy_evidence: List[tuple] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


def _positive_multiple(diff: tuple, direction: tuple) -> Optional[Fraction]:
    """The ``c > 0`` with ``diff = c * direction``, or None when there is
    none."""
    ratio = None
    for d, w in zip(diff, direction):
        if w == 0:
            if d != 0:
                return None
            continue
        r = d / w
        if ratio is None:
            ratio = r
        elif r != ratio:
            return None
    return ratio if ratio is not None and ratio > 0 else None


def _homotopy_certificate(
    model: DoublePointModel, alpha: Dict, g_values: Dict
) -> Tuple[bool, list]:
    """Per identified pair ``(u, v)``: the realized difference
    ``g(v) - g(u)`` is a positive multiple of ``alpha(u, v)``, so the
    straight-line homotopy between them stays nonzero on every cell that
    the witness certification covered."""
    evidence = []
    for (u, v) in model.vertices:
        c = _positive_multiple(linalg.vec_sub(g_values[v], g_values[u]), alpha[(u, v)])
        evidence.append(((u, v), c is not None, c))
    return all(ok for _, ok, _ in evidence), evidence


def _raise_if_obstructed(model: DoublePointModel, k: int) -> None:
    """Raise :class:`NotKPrem` when the equivariant verdict on the pair model
    is a definite no; consulted only after the witness search has failed.
    The verdict does not read a map with folds, which fails the star
    condition."""
    if model.fold_vertices:
        return
    verdict = equivariant_map_exists(model, k)
    if verdict.answer == NOT_EXISTS:
        raise NotKPrem(
            f"not-k-prem: no equivariant map from the pair model to S^{k - 1} "
            f"exists ({verdict.reason}, Yang index {verdict.yang} >= k = {k}): "
            f"the map is not a {k}-prem"
        )


def construct_lift_3ptfree(
    f: SimplicialMap,
    k: int,
    alpha: Optional[Dict] = None,
    star: Optional[StarBoundary] = None,
) -> LiftResult:
    """Certified extra coordinates for a triple-point-free simple-fold map.

    Gates, in order: the map must be non-degenerate; must have no triple
    points (witness reported); every fold must be simple (offenders
    reported); and the witness must certify every walked cell of the pair
    model (a supplied witness that does not is an input fault,
    :class:`PreconditionError`).  When no moment-curve witness certifies, a
    sheet split of the pair model is tried (``+e1`` on one sheet, ``-e1`` on
    the other), which certifies whenever it is a trivial double cover;
    failing that, when the equivariant obstruction is nonzero,
    :class:`NotKPrem` reports that no lift exists.  The resulting lift is
    exact, verified, and accompanied by a homotopy certificate tying the
    realized separations back to the witness.
    """
    require_positive_k(k)
    if not f.is_non_degenerate():
        raise DegenerateMap(f"map collapses edges {f.degenerate_edges()[:3]}")
    triple = has_triple_points(f)
    if triple is not None:
        raise TriplePointsPresent(
            f"three pairwise disjoint simplices share an image: {triple}"
        )
    model = DoublePointModel(f)
    simple, offenders = is_simple_fold(model)
    if not simple:
        raise NotSimpleFold(
            f"identified vertices lie on the fold locus: {offenders[:3]}"
        )
    notes: List[str] = []

    if alpha is None:
        try:
            alpha = equivariant_witness(model, k)
            notes.append("witness: moment-curve construction")
        except CertificationError:
            alpha = sheet_split_witness(model, k)
            if alpha is None or not certify_witness(model, k, alpha)[0]:
                _raise_if_obstructed(model, k)
                raise
            notes.append("witness: sheet split")
    else:
        alpha = {p: tuple(Fraction(x) for x in val) for p, val in alpha.items()}
        ok, evidence = certify_witness(model, k, alpha)
        if not ok:
            raise PreconditionError(
                f"supplied witness fails certification: {evidence[-1][:2]}"
            )
        notes.append("witness: supplied, certified")

    # Second-coordinate projection must be injective (guaranteed by the gates).
    partner: Dict = {}
    for (u, v) in model.vertices:
        if v in partner:
            raise InternalError(
                f"two identified partners for {v}: {partner[v]} and {u}; gates are broken"
            )
        partner[v] = u

    g_values: Dict = {}
    for v in f.source.vertices:
        if v in partner:
            g_values[v] = alpha[(partner[v], v)]
        else:
            g_values[v] = tuple(Fraction(0) for _ in range(k))

    if star is not None:
        star_verts = set(star.subcomplex.vertices)
        for v in star_verts:
            if v not in f.source.rank:
                raise PreconditionError(f"boundary vertex {v!r} is not a source vertex")
        for v in sorted(star_verts, key=f.source.rank.__getitem__):
            if v not in star.values:
                raise PreconditionError(f"boundary vertex {v!r} has no value")
            val = tuple(Fraction(x) for x in star.values[v])
            if len(val) != k:
                raise PreconditionError(f"boundary value at {v!r} has wrong dimension")
            g_values[v] = val
        # Identified pairs must be boundary-closed and their prescribed
        # separations must point along the witness.
        for (u, v) in model.vertices:
            inside = (u in star_verts) + (v in star_verts)
            if inside == 1:
                raise PreconditionError(
                    f"identified pair ({u}, {v}) crosses the boundary subcomplex"
                )
            if inside == 2 and _positive_multiple(
                linalg.vec_sub(g_values[v], g_values[u]), alpha[(u, v)]
            ) is None:
                raise PreconditionError(
                    f"boundary separation at ({u}, {v}) is not a positive multiple "
                    "of the witness direction"
                )
        notes.append("boundary values reproduced verbatim")

    g = SemiLinearMap(f.source, g_values, out_dim=k)
    verification = verify_embedding(f, g)
    if not verification.ok:
        raise InternalError(
            "constructed lift failed verification although the witness was "
            f"certified; first violation: {verification.violations[0]}"
        )
    hok, hev = _homotopy_certificate(model, alpha, g_values)
    return LiftResult(
        lift=g,
        k=k,
        model=model,
        witness=alpha,
        verification=verification,
        homotopy_certified=hok,
        homotopy_evidence=hev,
        notes=notes,
    )
