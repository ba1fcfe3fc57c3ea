"""Construction of certified extra coordinates turning a simplicial map into
an embedding, for maps without triple points whose folds are simple.

Geometry of the construction.  For a non-degenerate simplicial map, two
distinct points share an image exactly when they are matched points of two
distinct simplices with the same image.  The *closure model* records all such
configurations: its vertices are the ordered identified vertex pairs together
with diagonal vertices ``(u, u)`` for vertices on the fold locus (faces of
intersections of distinct same-image simplices), and its cells are ordered
pairs of same-image simplices glued along their intersection.  Projection to
the second coordinate is injective on this model precisely when there are no
triple points (three pairwise disjoint same-image simplices) and no
identified vertex lies on the fold locus; both conditions are checked and
violations are reported with witnesses.

Given an antipodal witness ``alpha`` on the identified pairs whose values
certify every closure cell (the origin lies outside the convex hull of the
values on the cell's off-diagonal vertices), the lift assigns to each source
vertex ``v`` the value ``alpha(u, v)`` of its unique partner pair, and zero
elsewhere.  On matched points the difference of lift values is a positive
combination of certified witness values, hence nonzero: verification cannot
fail, and is run anyway as a bug canary.

The straight-line homotopy from the witness to the realized pair-difference
map ``(u, v) -> g(v) - g(u)`` avoids zero too.  Its certificate is one
positive multiple per identified pair: ``g(v) - g(u) = c * alpha(u, v)`` with
``c > 0``, checked exactly.  No cell needs a second hull test, because the
witness certification already showed the origin outside the hull of the
witness values on the free part of every closure cell, and for positive
multiples ``c_p`` the hull of ``{alpha_p} u {c_p alpha_p}`` contains the
origin exactly when the hull of ``{alpha_p}`` does: either way the origin is
a nonnegative, nonzero combination of the ``alpha_p``.  Without a prescribed
boundary each ``c`` is 2, as partners are unique and ``alpha`` is antipodal;
a prescribed boundary must give positive multiples, checked by the same
exact ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from . import linalg
from .complexes import InvolutionComplex, SimplicialComplex, Simplex
from .double_points import double_point_model, identified_vertex_pairs, pair_cells
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


# -- fold locus and gates -----------------------------------------------------


def fold_locus(f: SimplicialMap) -> SimplicialComplex:
    """Subcomplex of the source spanned by all faces of intersections of
    distinct same-image simplices."""
    faces: set = set()
    for fiber in f.fibers().values():
        for s, t in combinations(fiber, 2):
            shared = set(s) & set(t)
            if not shared:
                continue
            core = tuple(sorted(shared, key=f.source.rank.__getitem__))
            for size in range(1, len(core) + 1):
                faces.update(combinations(core, size))
    return f.source.subcomplex(faces)


def has_triple_points(f: SimplicialMap) -> Optional[Tuple[Simplex, Simplex, Simplex]]:
    """A witness triple of pairwise disjoint same-image simplices, or None."""
    for img, fiber in sorted(f.fibers().items(), key=lambda kv: f.target.sort_key(kv[0])):
        if len(fiber) < 3:
            continue
        for s, t, u in combinations(fiber, 3):
            if not (set(s) & set(t)) and not (set(s) & set(u)) and not (set(t) & set(u)):
                return (s, t, u)
    return None


def is_simple_fold(
    f: SimplicialMap, fold: Optional[SimplicialComplex] = None
) -> Tuple[bool, List[Tuple]]:
    """Whether no identified vertex lies on the fold locus (``fold``, when
    the caller has it already).  Returns the flag together with the
    offending identified pairs."""
    if fold is None:
        fold = fold_locus(f)
    fold_vertices = {s[0] for s in fold.simplices if len(s) == 1}
    bad = [(u, v) for (u, v) in identified_vertex_pairs(f) if v in fold_vertices]
    return (not bad, bad)


# -- closure model ------------------------------------------------------------


@dataclass
class DoublePointClosure:
    """Closure model: identified-pair cells glued along fold diagonals."""

    pair_complex: InvolutionComplex  # involution = coordinate swap
    fold: SimplicialComplex
    diagonal_vertices: list  # vertices (u, u)
    off_diagonal_vertices: list  # vertices (u, v), u != v

    @property
    def complex(self) -> SimplicialComplex:
        return self.pair_complex.complex


def build_closure_model(
    f: SimplicialMap, fold: Optional[SimplicialComplex] = None
) -> DoublePointClosure:
    """The closure model of ``f``, on the fold locus ``fold`` when the caller
    has it already."""
    if not f.is_non_degenerate():
        raise DegenerateMap(f"map collapses edges {f.degenerate_edges()[:3]}")
    rank = f.source.rank
    if fold is None:
        fold = fold_locus(f)
    off_diag = identified_vertex_pairs(f)
    diag = [(s[0], s[0]) for s in fold.simplices if len(s) == 1]
    vertices = sorted(off_diag + diag, key=lambda p: (rank[p[0]], rank[p[1]]))
    cells = pair_cells(f, vertices)
    diagonal = {p[0]: p for p in diag}
    cells += (tuple(map(diagonal.__getitem__, rho)) for rho in fold.simplices)
    complex_ = SimplicialComplex.from_canonical(vertices, cells)
    ic = InvolutionComplex(complex_, {(u, v): (v, u) for (u, v) in vertices})
    return DoublePointClosure(
        pair_complex=ic,
        fold=fold,
        diagonal_vertices=[p for p in vertices if p[0] == p[1]],
        off_diagonal_vertices=[p for p in vertices if p[0] != p[1]],
    )


# -- witnesses on the closure model -------------------------------------------


def closure_witness(closure: DoublePointClosure, k: int) -> Dict:
    """Moment-curve antipodal witness certified on every closure cell.  The
    generator is :func:`equivariant_witness`, since diagonal vertices are the
    fixed ones; this name stays for the lift and for the ``lift-sphere``
    benchmark set-up (``perfbench/workloads.py``), which builds its witness
    here."""
    return equivariant_witness(closure.pair_complex, k)


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
    record ``(pair, ok, c)`` per identified pair ``(u, v)`` of the closure
    model, in closure vertex order: whether ``g(v) - g(u) = c * alpha(u, v)``
    for some ``c > 0`` (``c`` is ``None`` when not), and
    ``homotopy_certified`` is their conjunction."""

    lift: SemiLinearMap
    k: int
    closure: DoublePointClosure
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


def _homotopy_certificate(closure: DoublePointClosure, alpha: Dict, g_values: Dict) -> Tuple[bool, list]:
    """Per identified pair ``(u, v)``: the realized difference
    ``g(v) - g(u)`` is a positive multiple of ``alpha(u, v)``, so the
    straight-line homotopy between them stays nonzero on every closure cell
    that the witness certification covered."""
    evidence = []
    for (u, v) in closure.off_diagonal_vertices:
        c = _positive_multiple(linalg.vec_sub(g_values[v], g_values[u]), alpha[(u, v)])
        evidence.append(((u, v), c is not None, c))
    return all(ok for _, ok, _ in evidence), evidence


def _raise_if_obstructed(f: SimplicialMap, k: int) -> None:
    """Raise :class:`NotKPrem` when the equivariant verdict on the pair model
    is a definite no; consulted only after the witness search has failed."""
    try:
        verdict = equivariant_map_exists(double_point_model(f), k)
    except PreconditionError:
        return
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
    reported); and the witness must certify every closure cell (a supplied
    witness that does not is an input fault, :class:`PreconditionError`).
    When no moment-curve witness certifies, a sheet split of the off-diagonal
    part is tried (``+e1`` on one sheet, ``-e1`` on the other), which
    certifies whenever that part is a trivial double cover; failing that,
    when the equivariant obstruction is nonzero, :class:`NotKPrem` reports
    that no lift exists.  The resulting lift is exact, verified, and
    accompanied by a homotopy certificate tying the realized separations
    back to the witness.
    """
    require_positive_k(k)
    if not f.is_non_degenerate():
        raise DegenerateMap(f"map collapses edges {f.degenerate_edges()[:3]}")
    triple = has_triple_points(f)
    if triple is not None:
        raise TriplePointsPresent(
            f"three pairwise disjoint simplices share an image: {triple}"
        )
    fold = fold_locus(f)
    simple, offenders = is_simple_fold(f, fold)
    if not simple:
        raise NotSimpleFold(
            f"identified vertices lie on the fold locus: {offenders[:3]}"
        )
    closure = build_closure_model(f, fold)
    notes: List[str] = []

    if alpha is None:
        try:
            alpha = closure_witness(closure, k)
            notes.append("witness: moment-curve construction")
        except CertificationError:
            alpha = sheet_split_witness(closure.pair_complex, k)
            if alpha is None or not certify_witness(closure.pair_complex, k, alpha)[0]:
                _raise_if_obstructed(f, k)
                raise
            notes.append("witness: sheet split")
    else:
        alpha = {p: tuple(Fraction(x) for x in val) for p, val in alpha.items()}
        ok, evidence = certify_witness(closure.pair_complex, k, alpha)
        if not ok:
            raise PreconditionError(
                f"supplied witness fails certification: {evidence[-1][:2]}"
            )
        notes.append("witness: supplied, certified")

    # Second-coordinate projection must be injective (guaranteed by the gates).
    partner: Dict = {}
    for (u, v) in closure.off_diagonal_vertices:
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
        for (u, v) in closure.off_diagonal_vertices:
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
    hok, hev = _homotopy_certificate(closure, alpha, g_values)
    return LiftResult(
        lift=g,
        k=k,
        closure=closure,
        witness=alpha,
        verification=verification,
        homotopy_certified=hok,
        homotopy_evidence=hev,
        notes=notes,
    )
