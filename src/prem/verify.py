"""Exact verification that a simplicial map together with extra coordinates
is injective, i.e. that ``x -> (f(x), g(x))`` embeds the source complex.

The target polyhedron is embedded by sending each of its vertices to a
standard basis vector, so the combined map is affine on every source simplex
with rational values, and injectivity reduces to finitely many exact checks.
Each maximal simplex first gets an affine-independence check.  Then every
unordered pair ``(s, t)`` of maximal simplices is settled.  A pair whose
images touch no common target vertex cannot meet in a double point, so an
inverted index from target vertex to the maximal simplices over it yields
the candidate pairs, those sharing a target vertex, and the others are only
counted.  A candidate is settled by a cheap prefilter (``s u t`` is itself a
simplex and was already checked) or by exactly one LP over the pair polytope
``{(x, y) in s x t : f(x) = f(y), g(x) = g(y)}``:

* disjoint ``s`` and ``t``: a feasibility LP; any solution is a violation,
  and infeasibility comes with a Farkas certificate;
* shared face ``rho = s n t``: maximize the mass ``mu(x, y)`` of ``x`` on
  ``s \\ rho`` plus that of ``y`` on ``t \\ rho``.  ``mu = 0`` puts both points
  in ``rho``, a face of ``s``, and the per-simplex check has shown ``(f, g)``
  injective on ``s``, so ``x = y``.  ``mu > 0`` puts one point outside
  ``s n t``, so the maximizer is two distinct points with the same value.

Every maximal simplex and every candidate pair contributes one evidence
record; the pairs with disjoint images are a count.  Any violation carries an
exact witness pair of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg, lp
from .complexes import BarycentricPoint, Simplex
from .errors import InternalError, MapError
from .maps import SemiLinearMap, SimplicialMap

DISJOINT_IMAGES = "disjoint-images"
SAME_CARRIER = "same-carrier"
FARKAS = "farkas"
DIAGONAL_CONFINED = "diagonal-confined"
VIOLATION = "violation"
EMBEDDED_SIMPLEX = "embedded-simplex"


@dataclass
class ViolationWitness:
    simplex_x: Simplex
    simplex_y: Simplex
    x: BarycentricPoint
    y: BarycentricPoint
    g_value: tuple


@dataclass
class PairEvidence:
    pair: Tuple[Simplex, Simplex]
    kind: str
    witness: Optional[ViolationWitness] = None


@dataclass
class VerificationResult:
    """Outcome of :func:`verify_embedding`.

    ``pairs_checked`` counts every unordered pair of maximal simplices.
    ``evidence`` holds one record per maximal simplex, then one per candidate
    pair (images sharing a target vertex) in ``combinations`` order; the
    remaining ``disjoint_images`` pairs are counted, not recorded, and
    :meth:`kind_counts` reports them under ``disjoint-images``.
    """

    ok: bool
    simplices_checked: int
    pairs_checked: int
    evidence: List[PairEvidence] = field(default_factory=list)
    violations: List[ViolationWitness] = field(default_factory=list)
    disjoint_images: int = 0

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for e in self.evidence:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        if self.disjoint_images:
            counts[DISJOINT_IMAGES] = self.disjoint_images
        return counts


def _combined_columns(f: SimplicialMap, g: SemiLinearMap, s: Simplex, frame: list) -> list:
    """Value of (f, g) at each vertex of ``s`` in the given target-vertex
    frame (indicator part) followed by the g coordinates."""
    idx = {w: i for i, w in enumerate(frame)}
    cols = []
    for v in s:
        col = [0] * len(frame)
        col[idx[f.vertex_map[v]]] = 1
        cols.append(tuple(col) + tuple(g.values[v]))
    return cols


def _point_from_coeffs(s: Simplex, coeffs: Sequence[Fraction]) -> BarycentricPoint:
    pairs = [(v, c) for v, c in zip(s, coeffs) if c > 0]
    return BarycentricPoint(tuple(v for v, _ in pairs), tuple(c for _, c in pairs))


def _self_check(f: SimplicialMap, g: SemiLinearMap, s: Simplex) -> Optional[ViolationWitness]:
    """None when (f, g) is affine-injective on ``s``; otherwise two distinct
    points of ``s`` with the same image."""
    frame = sorted({f.vertex_map[v] for v in s}, key=f.target.rank.__getitem__)
    cols = _combined_columns(f, g, s, frame)
    if linalg.affinely_independent(cols):
        return None
    # Affine dependency: sum c_i cols_i = 0 with sum c_i = 0, c != 0.
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]
    rows.append([Fraction(1)] * len(cols))
    reduced, piv_cols, _ = linalg.rref(rows)
    j0 = next(j for j in range(len(cols)) if j not in piv_cols)
    dep = [Fraction(0)] * len(cols)
    dep[j0] = Fraction(1)
    for r, pc in enumerate(piv_cols):
        dep[pc] = -reduced[r][j0]
    pos = sum(c for c in dep if c > 0)
    lam = [max(c, Fraction(0)) / pos for c in dep]
    mu = [max(-c, Fraction(0)) / pos for c in dep]
    x = _point_from_coeffs(s, lam)
    y = _point_from_coeffs(s, mu)
    return ViolationWitness(simplex_x=s, simplex_y=s, x=x, y=y, g_value=g(x))


def _pair_check(
    f: SimplicialMap, g: SemiLinearMap, s: Simplex, t: Simplex, img_s: frozenset, img_t: frozenset
) -> PairEvidence:
    """Settle a candidate pair: ``img_s`` and ``img_t``, the target vertices
    under ``s`` and ``t``, meet."""
    src = f.source
    union = set(s) | set(t)
    if src.has_simplex(union):
        return PairEvidence(pair=(s, t), kind=SAME_CARRIER)

    frame = sorted(img_s | img_t, key=f.target.rank.__getitem__)
    cols_s = _combined_columns(f, g, s, frame)
    cols_t = _combined_columns(f, g, t, frame)
    d = len(cols_s[0])
    ns, nt = len(s), len(t)
    a = []
    for i in range(d):
        a.append([c[i] for c in cols_s] + [-c[i] for c in cols_t])
    a.append([1] * ns + [0] * nt)
    a.append([0] * ns + [1] * nt)
    b = [0] * d + [1, 1]

    def witness_from(xvec: Sequence[Fraction]) -> ViolationWitness:
        x = _point_from_coeffs(s, xvec[:ns])
        y = _point_from_coeffs(t, xvec[ns:])
        return ViolationWitness(simplex_x=s, simplex_y=t, x=x, y=y, g_value=g(x))

    shared = set(s) & set(t)
    if not shared:
        # Any common value of two disjoint simplices is a violation.
        res = lp.lp_feasible(a, b, n=ns + nt)
        if res.status == "infeasible":
            return PairEvidence(pair=(s, t), kind=FARKAS)
        return PairEvidence(pair=(s, t), kind=VIOLATION, witness=witness_from(res.x))

    # A shared face rho keeps the LP feasible (x = y = any vertex of rho), so
    # one LP decides the pair: maximize the mass mu off rho.  mu = 0 puts x
    # and y in rho, a face of s, on which (f, g) is affinely injective (every
    # maximal simplex passed its self-check before any pair), so x = y.
    # mu > 0 gives, say, x mass on a vertex of s outside t; then x is not in
    # t while y is, so the maximizer is two distinct points with one value.
    mu = [0 if v in shared else 1 for v in s + t]
    mx = lp.lp_max(a, b, mu)
    if mx.status != "optimal":
        raise InternalError(f"pair LP on a nonempty bounded polytope reported {mx.status}")
    if mx.value > 0:
        return PairEvidence(pair=(s, t), kind=VIOLATION, witness=witness_from(mx.x))
    return PairEvidence(pair=(s, t), kind=DIAGONAL_CONFINED)


def _candidate_pairs(images: List[frozenset]) -> List[Tuple[int, int]]:
    """Positions ``(i, j)``, ``i < j``, of the simplices whose images share a
    target vertex, in the order ``combinations`` visits them: only these pairs
    can meet in a double point."""
    over: Dict = {}
    for i, img in enumerate(images):
        for w in img:
            over.setdefault(w, []).append(i)
    candidates = []
    for i, img in enumerate(images):
        partners = {j for w in img for j in over[w] if j > i}
        candidates.extend((i, j) for j in sorted(partners))
    return candidates


_WORKER_STATE: dict = {}


def _worker_init(f: SimplicialMap, g: SemiLinearMap) -> None:
    _WORKER_STATE["f"] = f
    _WORKER_STATE["g"] = g


def _worker_run(candidate: tuple) -> PairEvidence:
    return _pair_check(_WORKER_STATE["f"], _WORKER_STATE["g"], *candidate)


def verify_embedding(f: SimplicialMap, g: SemiLinearMap, jobs: int = 1) -> VerificationResult:
    """Decide exactly whether ``x -> (f(x), g(x))`` is injective on the
    source polyhedron."""
    if g.source.vertices != f.source.vertices:
        raise MapError("lift values are not given on the source vertices")
    maximal = f.source.maximal_simplices()
    evidence: List[PairEvidence] = []
    violations: List[ViolationWitness] = []

    for s in maximal:
        w = _self_check(f, g, s)
        if w is None:
            evidence.append(PairEvidence(pair=(s, s), kind=EMBEDDED_SIMPLEX))
        else:
            evidence.append(PairEvidence(pair=(s, s), kind=VIOLATION, witness=w))
            violations.append(w)

    if violations:
        return VerificationResult(
            ok=False,
            simplices_checked=len(maximal),
            pairs_checked=0,
            evidence=evidence,
            violations=violations,
        )

    images = [frozenset(f.vertex_map[v] for v in s) for s in maximal]
    candidates = [
        (maximal[i], maximal[j], images[i], images[j]) for i, j in _candidate_pairs(images)
    ]
    if jobs > 1 and len(candidates) > 8:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        with ctx.Pool(jobs, initializer=_worker_init, initargs=(f, g)) as pool:
            pair_evidence = pool.map(_worker_run, candidates, chunksize=16)
    else:
        pair_evidence = [_pair_check(f, g, *c) for c in candidates]

    for ev in pair_evidence:
        evidence.append(ev)
        if ev.kind == VIOLATION:
            violations.append(ev.witness)
    pairs = comb(len(maximal), 2)
    return VerificationResult(
        ok=not violations,
        simplices_checked=len(maximal),
        pairs_checked=pairs,
        evidence=evidence,
        violations=violations,
        disjoint_images=pairs - len(candidates),
    )
