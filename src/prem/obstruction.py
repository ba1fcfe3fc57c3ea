"""Existence verdicts for equivariant maps from the pair model to spheres,
explicit antipodal witnesses in low dimension, and the combined report that
weighs the verdict against the dimension hypotheses of the lifting theorem.

Verdict logic, in order:

1. ``dim < k``: an equivariant map to the (k-1)-sphere always exists for a
   free complex of dimension below k (skeletal extension), so the answer is
   a definite yes and a witness can be constructed.
2. No connected component is mapped onto itself (``trivial-cover``): the
   double cover is trivial, so ``+e`` on one sheet and ``-e`` on the other
   is an equivariant map to every sphere, a definite yes with Yang index 0.
   The certificate is the sheet split, checked on the orbit vertices and
   the walked 1-cells only: in a face-closed complex a cell lies in the
   sheet exactly when each of its edges does.  No quotient is built.
3. k-th cup power of the classifying class nonzero: definite no.  The
   quotient by the swap and its ``w1`` are read off the pair model's walk,
   which needs no subdivision.
4. ``dim == k``, power vanishes, and the quotient is a closed mod-2 homology
   k-manifold (pure, ridges in two facets, strongly connected per component,
   vertex links with the mod-2 homology of the (k-1)-sphere): the top
   obstruction is the only one and it vanishes, so a definite yes.
5. Otherwise only the necessary mod-2 condition holds: inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2, linalg, lp, mod2
from .complexes import groups_are_pure
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


def require_positive_k(k: int) -> None:
    """The one rule on k, the number of extra coordinates and one more than
    the dimension of the sphere ``S^{k-1}``: a positive integer, else
    :class:`PreconditionError`.  The CLI checks it before it reads a map."""
    if k < 1:
        raise PreconditionError(f"k must be a positive integer, not {k}")


def equivariant_map_exists(model: DoublePointModel, k: int) -> Verdict:
    """Decide (when possible) whether an equivariant map from the pair
    model to the (k-1)-sphere exists, from what the model reads off its
    walk: its dimension, cell counts, vertices, components, 1-cells and the
    quotient by the swap with its ``w1``."""
    require_positive_k(k)
    dim = model.dim
    if dim < k:
        return Verdict(answer=EXISTS, reason="dimension-below-k", k=k, dim=dim)
    t = model.involution
    sheet = mod2.sheet_split(model.components, t)
    if sheet is not None:
        if not mod2.is_sheet_split(t, model.vertices, model.edges(), sheet):
            raise InternalError("the sheet split of a trivial double cover fails its check")
        # The sheet is a copy of the quotient, which needs no subdivision.
        return Verdict(
            answer=EXISTS,
            reason="trivial-cover",
            k=k,
            dim=dim,
            yang=0,
            quotient_f_vector=model.cell_counts,
        )
    quotient, w = model.swap_quotient
    yang = mod2.yang_index(quotient, w)
    fv = quotient.f_vector()
    if yang >= k:
        return Verdict(
            answer=NOT_EXISTS,
            reason="cup-power-nonzero",
            k=k,
            dim=dim,
            yang=yang,
            quotient_f_vector=fv,
        )
    if dim == k:
        manifold = quotient_is_homology_manifold(quotient, k)
        return Verdict(
            answer=EXISTS if manifold else INCONCLUSIVE,
            reason="manifold-complete-obstruction" if manifold else "mod2-only",
            k=k,
            dim=dim,
            yang=yang,
            quotient_f_vector=fv,
        )
    return Verdict(
        answer=INCONCLUSIVE,
        reason="mod2-only",
        k=k,
        dim=dim,
        yang=yang,
        quotient_f_vector=fv,
    )


# -- antipodal witnesses ------------------------------------------------------

# Shifts of the moment curve that :func:`equivariant_witness` tries.
WITNESS_SHIFTS = 8


def _moment_vector(j: int, k: int, shift: int = 0) -> tuple:
    base = j + 1 + shift
    return tuple(Fraction(base) ** i for i in range(1, k + 1))


def separation(points: Sequence) -> Tuple[str, object]:
    """How the origin stays out of the convex hull of the points:
    ``("independent", None)`` for linearly independent points, else the exact
    hull test, ``("separated", cert)`` or ``("origin-in-hull", cert)``.  A
    single point is independent exactly when it is nonzero, which needs no
    rank; a zero point goes through the hull test."""
    independent = any(points[0]) if len(points) == 1 else linalg.linearly_independent(points)
    if independent:
        return "independent", None
    inside, cert = lp.zero_in_hull(points)
    return ("origin-in-hull" if inside else "separated"), cert


def _first_failure(model: DoublePointModel, failures: list) -> tuple:
    """The hull failure that comes first in the order of the pair complex,
    whatever the order of the walk: a failing cell or its swap image, with
    its pairs and hull coefficients in vertex order.  The swap image carries
    the negated values, so the coefficients hold for it too."""
    rank = {p: i for i, p in enumerate(model.vertices)}.__getitem__
    forms = []
    for cell, _, coefficients in failures:
        for c in (cell, tuple(p[::-1] for p in cell)):
            forms.append((len(c), sorted(zip(map(rank, c), c, coefficients))))
    _, ranked = min(forms)
    return tuple(p for _, p, _ in ranked), "origin-in-hull", [x for _, _, x in ranked]


def certify_witness(model: DoublePointModel, k: int, values: Dict) -> Tuple[bool, list]:
    """Check that the values on the pair vertices form an antipodal
    witness: k-dimensional, nonzero, negated by the swap, and with the
    origin outside the convex hull of the values on every walked cell.  The
    swap image of a cell carries the negated values, so its hull test is the
    cell's own.  Returns (ok, evidence): one record per walked cell, in walk
    order, when the witness certifies, else the one failure, a hull failure
    as :func:`_first_failure` states it."""
    t = model.involution
    for v in model.vertices:
        val = values.get(v)
        if val is None or len(val) != k:
            return False, [("missing-or-bad-dimension", v)]
    for v in model.vertices:
        val = values[v]
        if all(x == 0 for x in val):
            return False, [("zero-value", v)]
        if tuple(values[t[v]]) != tuple(-x for x in val):
            return False, [("not-antipodal", v)]
    evidence: list = []
    failures: list = []
    for _, _, a, b in model.aligned_pairs():
        cell = tuple(zip(a, b))
        kind, cert = separation([values[p] for p in cell])
        (failures if kind == "origin-in-hull" else evidence).append((cell, kind, cert))
    if failures:
        return False, [_first_failure(model, failures)]
    return True, evidence


def equivariant_witness(model: DoublePointModel, k: int) -> Dict:
    """Explicit antipodal map to nonzero vectors on the pair vertices: orbit
    representatives ``(u, v)``, ``rank u < rank v``, in vertex order, get
    moment-curve vectors, their swap images the negatives.  Certified on
    every walked cell; raises when no shift of the curve certifies."""
    t = model.involution
    rank = model.map.source.rank
    reps = [(u, v) for u, v in model.vertices if rank[u] < rank[v]]
    last_evidence: list = []
    for shift in range(WITNESS_SHIFTS):
        values: Dict = {}
        for j, v in enumerate(reps):
            mv = _moment_vector(j, k, shift)
            values[v] = mv
            values[t[v]] = tuple(-x for x in mv)
        ok, evidence = certify_witness(model, k, values)
        if ok:
            return values
        last_evidence = evidence
    raise CertificationError(
        f"no antipodal witness found in {WITNESS_SHIFTS} moment-curve draws; "
        f"last failure: {last_evidence[-1][:2] if last_evidence else None}"
    )


def sheet_split_witness(model: DoublePointModel, k: int) -> Optional[Dict]:
    """``+e1`` on one sheet of the pair model and ``-e1`` on the other, when
    no component is mapped onto itself; ``None`` otherwise.  The values are
    not certified here: every walked cell lies in one sheet, which
    :func:`certify_witness` confirms."""
    sheet = mod2.sheet_split(model.components, model.involution)
    if sheet is None:
        return None
    e1 = (Fraction(1),) + (Fraction(0),) * (k - 1)
    minus_e1 = tuple(-x for x in e1)
    return {v: e1 if v in sheet else minus_e1 for v in model.vertices}


# -- projection-degree parity --------------------------------------------------


def projection_degree_parity(model: DoublePointModel, component) -> int:
    """Mod-2 degree of the first-coordinate projection of one pair-complex
    component onto the (possibly subdivided) source.

    Counts, over every top simplex of the source, the component's top cells
    whose first-coordinate projection is a bijection onto that simplex, and
    checks the count's parity is the same everywhere; that shared bit is the
    degree parity.  Requires the source to be a closed pseudomanifold and the
    component to be pure of the same dimension with mod-2-cycle top cells.
    On an invariant component the swap permutes the top cells and exchanges
    the two projections, so the second projection has the same degree.
    The cells are walked: a pair ``{s, t}`` gives the cells of ``(s, t)``
    over ``s`` and of ``(t, s)`` over ``t``.
    """
    source = model.map.source
    n = source.dim
    if not source.is_closed_pseudomanifold():
        raise PreconditionError(
            "projection degree parity needs a closed pseudomanifold source"
        )
    comp = set(component)
    counts = {s: 0 for s in source.simplices_of_dim(n)}
    groups: List[list] = []  # the component's cells by dimension
    for s, t, a, b in model.aligned_pairs():
        for x, y, under in ((a, b, s), (b, a, t)):
            if (x[0], y[0]) not in comp:
                continue
            cell = tuple(zip(x, y))
            if not comp.issuperset(cell):
                continue
            while len(groups) < len(cell):
                groups.append([])
            groups[len(cell) - 1].append(cell)
            if len(cell) == n + 1:
                if under not in counts:
                    raise InternalError(f"pair cell {cell} projects outside the source")
                counts[under] += 1
    if len(groups) != n + 1 or not groups_are_pure(groups):
        raise PreconditionError(
            f"component is not pure of dimension {n}: dim {len(groups) - 1}"
        )
    if n >= 1:
        # Count in the pair complex's order, which names the first odd ridge.
        rank = {p: i for i, p in enumerate(model.vertices)}.__getitem__
        top = sorted((tuple(sorted(c, key=rank)) for c in groups[n]), key=lambda c: [*map(rank, c)])
        ridge_count: Dict = {}
        for s in top:
            for r in combinations(s, n):
                ridge_count[r] = ridge_count.get(r, 0) + 1
        odd = [r for r, c in ridge_count.items() if c % 2]
        if odd:
            raise PreconditionError(
                f"component top cells are not a mod-2 cycle: ridge {odd[0]}"
                f" lies in {ridge_count[odd[0]]} cells"
            )
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


def prem_report(f: SimplicialMap, k: int) -> PremReport:
    """Weigh the equivariant verdict against the dimension hypotheses under
    which a positive verdict upgrades to an actual embedding lift.  A map
    without double points is an embedding already, whatever the dimensions."""
    model = double_point_model(f)
    n = f.source.dim
    m = f.target.dim
    verdict = equivariant_map_exists(model, k)
    hyp_codim = m >= n
    hyp_meta = 2 * (m + k) >= 3 * (n + 1)
    notes: List[str] = []
    parities: Optional[List[int]]
    try:
        parities = [
            projection_degree_parity(model, c)
            for c, flag in zip(model.components, model.invariant_flags)
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
    elif model.dim < 0:
        # A non-degenerate map that identifies no two vertices is injective.
        conclusion = "k-prem"
        notes.append(
            "the map has no double points, so it is already an embedding "
            "and g = 0 lifts it"
        )
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
        components=len(model.components),
        invariant_components=sum(model.invariant_flags),
        invariant_parities=parities,
        parity_reading=reading,
        hyp_codim=hyp_codim,
        hyp_metastable=hyp_meta,
        conclusion=conclusion,
        notes=notes,
        subdivision_rounds=model.subdivision_rounds,
    )
