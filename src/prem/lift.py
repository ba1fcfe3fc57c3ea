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
fail, and is run anyway as a bug canary.  The same separation argument shows
the straight-line homotopy from the witness to the realized pair-difference
map avoids zero, which is recorded as an explicit certificate per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Optional, Tuple

from . import linalg, lp
from .complexes import (
    BarycentricPoint,
    InvolutionComplex,
    SimplicialComplex,
    Simplex,
)
from .double_points import double_point_model, identified_vertex_pairs, matched_pair_cells
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
    separation,
)
from .subdivision import SubdivisionRecord, stellar_bisect_edge
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


def is_simple_fold(f: SimplicialMap) -> Tuple[bool, List[Tuple]]:
    """Whether no identified vertex lies on the fold locus.  Returns the
    flag together with the offending identified pairs."""
    fold_vertices = {s[0] for s in fold_locus(f).simplices if len(s) == 1}
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


def build_closure_model(f: SimplicialMap) -> DoublePointClosure:
    if not f.is_non_degenerate():
        raise DegenerateMap(f"map collapses edges {f.degenerate_edges()[:3]}")
    rank = f.source.rank
    fold = fold_locus(f)
    off_diag = identified_vertex_pairs(f)
    diag = [(s[0], s[0]) for s in fold.simplices if len(s) == 1]
    vertices = sorted(off_diag + diag, key=lambda p: (rank[p[0]], rank[p[1]]))
    cells = {(p,) for p in vertices}
    cells.update(matched_pair_cells(f, vertices, overlapping=True))
    diagonal = {p[0]: p for p in diag}
    cells.update(tuple(map(diagonal.__getitem__, rho)) for rho in fold.simplices)
    complex_ = SimplicialComplex.from_canonical(vertices, cells)
    involution = {(u, v): (v, u) for (u, v) in vertices}
    ic = InvolutionComplex(complex_, involution)
    return DoublePointClosure(
        pair_complex=ic,
        fold=fold,
        diagonal_vertices=[p for p in vertices if p[0] == p[1]],
        off_diagonal_vertices=[p for p in vertices if p[0] != p[1]],
    )


# -- isovariant PL approximation ----------------------------------------------


@dataclass
class IsovariantResult:
    pair_complex: InvolutionComplex
    values: Dict
    record: SubdivisionRecord
    bisections: int

    @property
    def refined(self) -> bool:
        return self.bisections > 0


def isovariant_pl_approximation(
    ic: InvolutionComplex,
    values: Dict,
    evaluator: Optional[Callable[[BarycentricPoint], tuple]] = None,
    max_bisections: int = 64,
) -> IsovariantResult:
    """Refine an equivariant vertex assignment until the linear extension
    vanishes exactly on the fixed subcomplex: on every simplex the origin
    must avoid the convex hull of the values on the non-fixed vertices.
    Fixed simplices are never subdivided and never change their values.

    Preconditions (checked): values are antipodal under the involution, zero
    exactly on fixed vertices, and every involution-invariant simplex
    consists of fixed vertices.
    """
    cx = ic.complex
    t = ic.involution
    base_values = {v: tuple(Fraction(x) for x in values[v]) for v in cx.vertices}
    for v in cx.vertices:
        val = base_values[v]
        if tuple(-x for x in base_values[t[v]]) != val:
            raise PreconditionError(f"values are not antipodal at {v}")
        if (t[v] == v) != all(x == 0 for x in val):
            raise PreconditionError(
                f"value must vanish exactly on fixed vertices; fails at {v}"
            )
    for s in cx.simplices:
        if ic.map_simplex(s) == s and ic.free_part(s):
            raise PreconditionError(f"invariant simplex {s} has non-fixed vertices")

    record = SubdivisionRecord.identity(cx)
    cur_ic = ic
    cur_values = dict(base_values)
    counter = 0
    bisections = 0
    while True:
        cur = cur_ic.complex
        failing = None
        for s in cur.sorted_simplices():
            free = cur_ic.free_part(s)
            if free and separation([cur_values[v] for v in free])[0] == "origin-in-hull":
                failing = (s, free)
                break
        if failing is None:
            return IsovariantResult(
                pair_complex=cur_ic, values=cur_values, record=record, bisections=bisections
            )
        if bisections >= max_bisections:
            raise CertificationError(
                f"zero-set separation unreachable within {max_bisections} bisections; "
                f"offending simplex {failing[0]}"
            )
        s, free = failing
        if len(free) < 2:
            raise CertificationError(
                f"linear extension vanishes at the non-fixed vertex {free[0]}; "
                "no bisection can separate an exact zero crossing"
            )
        edge = min(
            combinations(free, 2),
            key=lambda e: (
                -linalg.dist_sq(cur_values[e[0]], cur_values[e[1]]),
                cur.sort_key(cur.canon(e)),
            ),
        )
        a, b = edge
        mid = ("iso", counter)
        tmid = ("iso", counter + 1)
        counter += 2
        half = Fraction(1, 2)
        t_map = dict(cur_ic.involution)
        new_cx = stellar_bisect_edge(cur, cur.canon((a, b)), mid)
        mirror = new_cx.canon((t_map[a], t_map[b]))
        new_cx = stellar_bisect_edge(new_cx, mirror, tmid)
        pos_mid = record.point_in_base(BarycentricPoint(cur.canon((a, b)), (half, half)))
        pos_tmid = record.point_in_base(BarycentricPoint(mirror, (half, half)))
        positions = dict(record.positions)
        positions[mid] = pos_mid
        positions[tmid] = pos_tmid
        record = SubdivisionRecord(record.base, new_cx, positions)
        if evaluator is not None:
            val_mid = tuple(Fraction(x) for x in evaluator(pos_mid))
            val_tmid = tuple(Fraction(x) for x in evaluator(pos_tmid))
            if val_tmid != tuple(-x for x in val_mid):
                raise PreconditionError("evaluator breaks antipodality at a bisection point")
        else:
            val_mid = linalg.vec_scale(half, linalg.vec_add(cur_values[a], cur_values[b]))
            val_tmid = tuple(-x for x in val_mid)
        cur_values[mid] = val_mid
        cur_values[tmid] = val_tmid
        t_map[mid] = tmid
        t_map[tmid] = mid
        cur_ic = InvolutionComplex(new_cx, t_map, check=False)
        bisections += 1


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
    lift: SemiLinearMap
    k: int
    closure: DoublePointClosure
    witness: Dict
    verification: VerificationResult
    homotopy_certified: bool
    homotopy_evidence: List[tuple] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


def _homotopy_certificate(closure: DoublePointClosure, alpha: Dict, g_values: Dict) -> Tuple[bool, list]:
    """Per cell: origin outside the hull of witness values together with
    realized pair differences, certifying the straight-line homotopy between
    them stays nonzero."""
    evidence = []
    ok = True
    for s in closure.complex.sorted_simplices():
        free = closure.pair_complex.free_part(s)
        if not free:
            continue
        pts = [alpha[p] for p in free]
        pts += [linalg.vec_sub(g_values[v], g_values[u]) for (u, v) in free]
        inside, cert = lp.zero_in_hull(pts)
        evidence.append((s, not inside, cert))
        if inside:
            ok = False
    return ok, evidence


def _raise_if_obstructed(f: SimplicialMap, k: int) -> None:
    """Raise :class:`NotKPrem` when the equivariant verdict on the pair model
    is a definite no; consulted only after the witness search has failed."""
    try:
        verdict = equivariant_map_exists(double_point_model(f).pair_complex, k)
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
    jobs: int = 1,
) -> LiftResult:
    """Certified extra coordinates for a triple-point-free simple-fold map.

    Gates, in order: the map must be non-degenerate; must have no triple
    points (witness reported); every fold must be simple (offenders
    reported); and the witness must certify every closure cell (a supplied
    witness that does not is an input fault, :class:`PreconditionError`).
    When no moment-curve witness certifies and the equivariant obstruction is
    nonzero, :class:`NotKPrem` reports that no lift exists.  The
    resulting lift is exact, verified, and accompanied by a homotopy
    certificate tying the realized separations back to the witness.
    """
    if k < 1:
        raise PreconditionError("the number of extra coordinates k must be >= 1")
    if not f.is_non_degenerate():
        raise DegenerateMap(f"map collapses edges {f.degenerate_edges()[:3]}")
    triple = has_triple_points(f)
    if triple is not None:
        raise TriplePointsPresent(
            f"three pairwise disjoint simplices share an image: {triple}"
        )
    simple, offenders = is_simple_fold(f)
    if not simple:
        raise NotSimpleFold(
            f"identified vertices lie on the fold locus: {offenders[:3]}"
        )
    closure = build_closure_model(f)
    notes: List[str] = []

    if alpha is None:
        try:
            alpha = closure_witness(closure, k)
        except CertificationError:
            _raise_if_obstructed(f, k)
            raise
        notes.append("witness: moment-curve construction")
    else:
        alpha = {p: tuple(Fraction(x) for x in val) for p, val in alpha.items()}
        ok, evidence = certify_witness(closure.pair_complex, k, alpha)
        if not ok:
            raise PreconditionError(
                f"supplied witness fails certification: {evidence[-1][:2]}"
            )
        notes.append("witness: supplied, certified")

    # Isovariant separation values on the closure model.  With a certified
    # witness this is a pure re-check (no refinement can occur because every
    # free part is itself a certified cell).
    a_values = {p: (alpha[p] if p[0] != p[1] else tuple(Fraction(0) for _ in range(k)))
                for p in closure.complex.vertices}
    iso = isovariant_pl_approximation(closure.pair_complex, a_values)
    if iso.refined:
        raise InternalError(
            "certified witness unexpectedly required refinement of the closure model"
        )

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
            if inside == 2:
                diff = linalg.vec_sub(g_values[v], g_values[u])
                ratio = None
                for d, w in zip(diff, alpha[(u, v)]):
                    if w == 0:
                        if d != 0:
                            ratio = None
                            break
                        continue
                    r = Fraction(d, 2) / w
                    if ratio is None:
                        ratio = r
                    elif r != ratio:
                        ratio = None
                        break
                if ratio is None or ratio <= 0:
                    raise PreconditionError(
                        f"boundary separation at ({u}, {v}) is not a positive multiple "
                        "of the witness direction"
                    )
        notes.append("boundary values reproduced verbatim")

    g = SemiLinearMap(f.source, g_values, out_dim=k)
    verification = verify_embedding(f, g, jobs=jobs)
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
