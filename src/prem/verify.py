"""Exact verification that a simplicial map together with extra coordinates
is injective, i.e. that ``x -> (f(x), g(x))`` embeds the source complex.

The target polyhedron is embedded by sending each of its vertices to a
standard basis vector, so the combined map is affine on every source simplex
with rational values, and injectivity reduces to finitely many exact checks.
Each maximal simplex first gets an affine-independence check.  Then every
unordered pair ``(s, t)`` of maximal simplices is settled by a cheap
prefilter (the images touch no common target vertex, or ``s u t`` is itself
a simplex and was already checked) or by exactly one LP over the pair
polytope ``{(x, y) in s x t : f(x) = f(y), g(x) = g(y)}``:

* disjoint ``s`` and ``t``: a feasibility LP; any solution is a violation,
  and infeasibility comes with a Farkas certificate;
* shared face ``rho = s n t``: maximize the mass ``mu(x, y)`` of ``x`` on
  ``s \\ rho`` plus that of ``y`` on ``t \\ rho``.  ``mu = 0`` puts both points
  in ``rho``, a face of ``s``, and the per-simplex check has shown ``(f, g)``
  injective on ``s``, so ``x = y``.  ``mu > 0`` puts one point outside
  ``s n t``, so the maximizer is two distinct points with the same value.

Every pair contributes one evidence record; any violation carries an exact
witness pair of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
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
    ok: bool
    simplices_checked: int
    pairs_checked: int
    evidence: List[PairEvidence] = field(default_factory=list)
    violations: List[ViolationWitness] = field(default_factory=list)

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for e in self.evidence:
            counts[e.kind] = counts.get(e.kind, 0) + 1
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


def _pair_check(f: SimplicialMap, g: SemiLinearMap, s: Simplex, t: Simplex) -> PairEvidence:
    src = f.source
    img_s = {f.vertex_map[v] for v in s}
    img_t = {f.vertex_map[w] for w in t}
    if not (img_s & img_t):
        return PairEvidence(pair=(s, t), kind=DISJOINT_IMAGES)
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


_WORKER_STATE: dict = {}


def _worker_init(f: SimplicialMap, g: SemiLinearMap, pairs: list) -> None:
    _WORKER_STATE["f"] = f
    _WORKER_STATE["g"] = g
    _WORKER_STATE["pairs"] = pairs


def _worker_run(idx: int) -> Tuple[int, PairEvidence]:
    f = _WORKER_STATE["f"]
    g = _WORKER_STATE["g"]
    s, t = _WORKER_STATE["pairs"][idx]
    return idx, _pair_check(f, g, s, t)


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

    pairs = list(combinations(maximal, 2))
    if violations:
        return VerificationResult(
            ok=False,
            simplices_checked=len(maximal),
            pairs_checked=0,
            evidence=evidence,
            violations=violations,
        )

    if jobs > 1 and len(pairs) > 8:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        with ctx.Pool(jobs, initializer=_worker_init, initargs=(f, g, pairs)) as pool:
            results = pool.map(_worker_run, range(len(pairs)), chunksize=16)
        results.sort(key=lambda r: r[0])
        pair_evidence = [ev for _, ev in results]
    else:
        pair_evidence = [_pair_check(f, g, s, t) for s, t in pairs]

    for ev in pair_evidence:
        evidence.append(ev)
        if ev.kind == VIOLATION:
            violations.append(ev.witness)
    return VerificationResult(
        ok=not violations,
        simplices_checked=len(maximal),
        pairs_checked=len(pairs),
        evidence=evidence,
        violations=violations,
    )
