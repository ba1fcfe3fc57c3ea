"""Existence verdicts for equivariant maps from the pair model to spheres,
explicit antipodal witnesses in low dimension, and the combined report that
weighs the verdict against the dimension hypotheses of the lifting theorem.

Verdict logic, in order:

1. ``dim < k``: an equivariant map to the (k-1)-sphere always exists for a
   free complex of dimension below k (skeletal extension), so the answer is
   a definite yes and a witness can be constructed.
2. k-th cup power of the classifying class nonzero: definite no.
3. ``dim == k``, power vanishes, and the quotient is a closed mod-2 homology
   k-manifold (pure, ridges in two facets, strongly connected per component,
   vertex links with the mod-2 homology of the (k-1)-sphere): the top
   obstruction is the only one and it vanishes, so a definite yes.
4. Otherwise only the necessary mod-2 condition holds: inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2, linalg, lp, mod2
from .complexes import InvolutionComplex
from .double_points import DoublePointModel, double_point_model
from .errors import CertificationError, InternalError, PreconditionError
from .maps import SimplicialMap

EXISTS = "exists"
NOT_EXISTS = "not-exists"
INCONCLUSIVE = "inconclusive"


@dataclass
class Verdict:
    answer: str  # EXISTS | NOT_EXISTS | INCONCLUSIVE
    reason: str
    k: int
    dim: int
    yang: Optional[int] = None
    quotient_f_vector: Optional[tuple] = None
    quotient_betti: Optional[tuple] = None
    manifold_checked: Optional[bool] = None

    @property
    def exists(self) -> Optional[bool]:
        if self.answer == EXISTS:
            return True
        if self.answer == NOT_EXISTS:
            return False
        return None


def _links_look_like_sphere(q, k: int) -> bool:
    """Every vertex link has the mod-2 Betti numbers of the (k-1)-sphere."""
    if k == 1:
        want = [2]
    elif k == 2:
        want = [1, 1]
    else:
        want = [1] + [0] * (k - 2) + [1]
    for v in q.vertices:
        link = q.link_subcomplex(v)
        if gf2.betti_mod2(link) != want:
            return False
    return True


def quotient_is_homology_manifold(q, k: int) -> bool:
    """Closed mod-2 homology k-manifold test used by the complete-obstruction
    route: pure, pseudomanifold, and sphere-like vertex links."""
    if q.dim != k:
        return False
    if not q.is_closed_pseudomanifold():  # pure, among other things
        return False
    return _links_look_like_sphere(q, k)


def equivariant_map_exists(model: InvolutionComplex, k: int, with_betti: bool = False) -> Verdict:
    """Decide (when possible) whether an equivariant map from the free
    involution complex to the (k-1)-sphere exists.  Betti numbers of the
    quotient are informational and costly on large complexes, so they are
    filled in only on request."""
    if k < 1:
        raise ValueError("sphere dimension parameter k must be >= 1")
    cx = model.complex
    dim = cx.dim if cx.simplices else -1
    if dim < k:
        return Verdict(answer=EXISTS, reason="dimension-below-k", k=k, dim=dim)
    qr = mod2.quotient_by_free_involution(model)
    w = mod2.w1_cocycle(qr)
    yang = mod2.yang_index(qr.quotient, w)
    fv = qr.quotient.f_vector()
    betti = tuple(gf2.betti_mod2(qr.quotient)) if with_betti else None
    if yang >= k:
        return Verdict(
            answer=NOT_EXISTS,
            reason="cup-power-nonzero",
            k=k,
            dim=dim,
            yang=yang,
            quotient_f_vector=fv,
            quotient_betti=betti,
        )
    if dim == k:
        manifold = quotient_is_homology_manifold(qr.quotient, k)
        if manifold:
            return Verdict(
                answer=EXISTS,
                reason="manifold-complete-obstruction",
                k=k,
                dim=dim,
                yang=yang,
                quotient_f_vector=fv,
                quotient_betti=betti,
                manifold_checked=True,
            )
        return Verdict(
            answer=INCONCLUSIVE,
            reason="mod2-only",
            k=k,
            dim=dim,
            yang=yang,
            quotient_f_vector=fv,
            quotient_betti=betti,
            manifold_checked=False,
        )
    return Verdict(
        answer=INCONCLUSIVE,
        reason="mod2-only",
        k=k,
        dim=dim,
        yang=yang,
        quotient_f_vector=fv,
        quotient_betti=betti,
    )


# -- antipodal witnesses ------------------------------------------------------


def moment_vector(j: int, k: int, shift: int = 0) -> tuple:
    base = j + 1 + shift
    return tuple(Fraction(base) ** i for i in range(1, k + 1))


def separation(points: Sequence) -> Tuple[str, object]:
    """How the origin stays out of the convex hull of the points:
    ``("independent", None)`` for linearly independent points, else the exact
    hull test, ``("separated", cert)`` or ``("origin-in-hull", cert)``."""
    if linalg.linearly_independent(points):
        return "independent", None
    inside, cert = lp.zero_in_hull(points)
    return ("origin-in-hull" if inside else "separated"), cert


def certify_witness(model: InvolutionComplex, k: int, values: Dict) -> Tuple[bool, list]:
    """Check that the values on the non-fixed vertices form an antipodal
    witness: k-dimensional, nonzero, negated by the involution, and with the
    origin outside the convex hull of the values on the non-fixed part of
    every simplex.  Fixed vertices carry no value.  Returns (ok, evidence)
    where evidence lists one record per simplex with a non-fixed part."""
    t = model.involution
    free = [v for v in model.complex.vertices if t[v] != v]
    for v in free:
        val = values.get(v)
        if val is None or len(val) != k:
            return False, [("missing-or-bad-dimension", v)]
    for v in free:
        val = values[v]
        if all(x == 0 for x in val):
            return False, [("zero-value", v)]
        if tuple(values[t[v]]) != tuple(-x for x in val):
            return False, [("not-antipodal", v)]
    evidence = []
    for s in model.complex.sorted_simplices():
        part = model.free_part(s)
        if not part:
            continue
        kind, cert = separation([values[v] for v in part])
        evidence.append((s, kind, cert))
        if kind == "origin-in-hull":
            return False, evidence
    return True, evidence


def equivariant_witness(model: InvolutionComplex, k: int, max_shifts: int = 8) -> Dict:
    """Explicit antipodal map to nonzero vectors on the non-fixed vertices:
    orbit representatives, in vertex order, get moment-curve vectors, their
    partners the negatives.  Certified on every simplex; raises when no shift
    of the curve certifies."""
    t = model.involution
    reps = []
    seen = set()
    for v in model.complex.vertices:
        if v in seen or t[v] == v:
            continue
        reps.append(v)
        seen.add(t[v])
    last_evidence: list = []
    for shift in range(max_shifts):
        values: Dict = {}
        for j, v in enumerate(reps):
            mv = moment_vector(j, k, shift)
            values[v] = mv
            values[t[v]] = tuple(-x for x in mv)
        ok, evidence = certify_witness(model, k, values)
        if ok:
            return values
        last_evidence = evidence
    raise CertificationError(
        f"no antipodal witness found in {max_shifts} moment-curve draws; "
        f"last failure: {last_evidence[-1][:2] if last_evidence else None}"
    )


# -- projection-degree parity --------------------------------------------------


def projection_degree_parity(
    model: DoublePointModel, component, side: str = "first"
) -> int:
    """Mod-2 degree of the coordinate projection of one pair-complex component
    onto the (possibly subdivided) source.

    Counts, over every top simplex of the source, the component's top cells
    whose chosen-coordinate projection is a bijection onto that simplex, and
    checks the count's parity is the same everywhere; that shared bit is the
    degree parity.  Requires the source to be a closed pseudomanifold and the
    component to be pure of the same dimension with mod-2-cycle top cells.
    """
    if side not in ("first", "second"):
        raise PreconditionError(f"projection side must be first|second, got {side!r}")
    idx = 0 if side == "first" else 1
    source = model.map.source
    n = source.dim
    if not source.is_closed_pseudomanifold():
        raise PreconditionError(
            "projection degree parity needs a closed pseudomanifold source"
        )
    comp = set(component)
    piece = model.complex.full_subcomplex(comp)
    if piece.dim != n or not piece.is_pure():
        raise PreconditionError(
            f"component is not pure of dimension {n}: dim {piece.dim}"
        )
    cells = piece.simplices_of_dim(n)
    if n >= 1:
        ridge_count: Dict = {}
        for s in cells:
            for r in combinations(s, n):
                ridge_count[r] = ridge_count.get(r, 0) + 1
        odd = [r for r, c in ridge_count.items() if c % 2]
        if odd:
            raise PreconditionError(
                f"component top cells are not a mod-2 cycle: ridge {odd[0]}"
                f" lies in {ridge_count[odd[0]]} cells"
            )
    counts = {s: 0 for s in source.simplices_of_dim(n)}
    for cell in cells:
        proj = {v[idx] for v in cell}
        if len(proj) != n + 1:
            raise InternalError(
                f"pair cell {cell} does not project bijectively on side {side}"
            )
        key = source.canon(proj)
        if key not in counts:
            raise InternalError(f"pair cell {cell} projects outside the source")
        counts[key] += 1
    parities = {s: c % 2 for s, c in counts.items()}
    values = set(parities.values())
    if len(values) > 1:
        even = next(s for s, p in parities.items() if p == 0)
        odd_s = next(s for s, p in parities.items() if p == 1)
        raise PreconditionError(
            "projection degree parity is not constant: "
            f"{counts[even]} cells over {even} but {counts[odd_s]} over {odd_s}"
        )
    return values.pop()


# -- combined report ----------------------------------------------------------


@dataclass
class PremReport:
    k: int
    source_dim: int
    target_dim: int
    verdict: Verdict
    components: int
    invariant_components: int
    invariant_parities: Optional[List[int]]  # None when parity is not computable
    parity_reading: str  # "even" | "odd" | "both" | "neither" | "unavailable"
    hyp_codim: bool  # target_dim >= source_dim
    hyp_metastable: bool  # 2 (m + k) >= 3 (n + 1)
    conclusion: str  # "k-prem" | "not-k-prem" | "inconclusive"
    notes: List[str] = field(default_factory=list)
    subdivision_rounds: int = 0


def prem_report(
    f: SimplicialMap,
    k: int,
    model: Optional[DoublePointModel] = None,
    verdict: Optional[Verdict] = None,
) -> PremReport:
    """Weigh the equivariant verdict against the dimension hypotheses under
    which a positive verdict upgrades to an actual embedding lift."""
    if model is None:
        model = double_point_model(f)
    n = f.source.dim
    m = f.target.dim
    if verdict is None:
        verdict = equivariant_map_exists(model.pair_complex, k)
    comp = mod2.component_report(model.pair_complex)
    hyp_codim = m >= n
    hyp_meta = 2 * (m + k) >= 3 * (n + 1)
    notes: List[str] = []
    parities: Optional[List[int]]
    try:
        parities = [
            projection_degree_parity(model, c)
            for c, flag in zip(comp.components, comp.invariant_flags)
            if flag
        ]
    except PreconditionError as exc:
        parities = None
        notes.append(f"projection degree parities unavailable: {exc}")
    reading = "unavailable"
    if parities is not None and verdict.yang is not None:
        yang_small = verdict.yang < n
        even_ok = all(p == 0 for p in parities) == yang_small
        odd_ok = all(p == 1 for p in parities) == yang_small
        reading = {
            (True, True): "both",
            (True, False): "even",
            (False, True): "odd",
            (False, False): "neither",
        }[(even_ok, odd_ok)]
        vacuous = " (vacuously: no invariant components)" if not parities else ""
        notes.append(
            "parity reading of [Yang below source dimension] <=> [every "
            "invariant component projects with this degree parity] supported "
            f"by the computed Yang index: {reading}{vacuous}"
        )
    if not hyp_codim:
        notes.append(f"codimension hypothesis fails: target dim {m} < source dim {n}")
    if not hyp_meta:
        notes.append(
            f"dimension inequality 2(m+k) >= 3(n+1) fails: 2({m}+{k}) = {2 * (m + k)}"
            f" < {3 * (n + 1)} = 3({n}+1)"
        )
    if verdict.answer == NOT_EXISTS:
        conclusion = "not-k-prem"
        notes.append("no equivariant sphere map, so no embedding lift exists")
    elif verdict.answer == EXISTS and hyp_codim and hyp_meta:
        conclusion = "k-prem"
        notes.append(
            "equivariant sphere map exists and the dimension hypotheses hold, "
            "so the map admits an embedding lift"
        )
    elif verdict.answer == EXISTS:
        conclusion = "inconclusive"
        notes.append(
            "equivariant sphere map exists but the dimension hypotheses fail, "
            "so existence of an embedding lift is not decided"
        )
    else:
        conclusion = "inconclusive"
        notes.append("the mod-2 obstruction is silent and no complete route applies")
    return PremReport(
        k=k,
        source_dim=n,
        target_dim=m,
        verdict=verdict,
        components=len(comp.components),
        invariant_components=comp.invariant_count,
        invariant_parities=parities,
        parity_reading=reading,
        hyp_codim=hyp_codim,
        hyp_metastable=hyp_meta,
        conclusion=conclusion,
        notes=notes,
        subdivision_rounds=model.subdivision_rounds,
    )
