"""Exact verification that a simplicial map together with extra coordinates
is injective, i.e. that ``x -> (f(x), g(x))`` embeds the source complex.

The target polyhedron is embedded by sending each of its vertices to a
standard basis vector, so the combined map is affine on every source simplex
with rational values, and injectivity reduces to finitely many exact checks.
Each maximal simplex must first be embedded.  A non-degenerate ``f`` sends
its vertices to distinct target vertices, that is to distinct basis vectors,
so ``(f, g)`` is affinely injective on it with no computation; a degenerate
``f`` gets an exact affine-independence check (the self-check).  Then only
pairs of distinct simplices with the same image can fail: two distinct points
with one value lie in the open simplices ``sigma`` and ``tau`` that carry
them, ``f`` sends each open simplex into the open simplex of its image, so
``f(sigma) = f(tau)``, and ``sigma = tau`` is ruled out by the check of a
maximal simplex containing it.  So one loop over the pairs of each fibre of
``f`` decides every pair of maximal simplices:

* non-degenerate ``f``: the matched bijection ``m: s -> t`` commutes with
  ``f`` and fixes ``s n t``, so ``f(x) = f(y)`` means ``y = m(x)``, and the
  pair meets exactly when the origin lies in the convex hull of
  ``g(m(v)) - g(v)`` over the vertices ``v`` of ``s`` outside ``t``.  That is
  ``obstruction.separation``: ``independent`` or ``separated``, or hull
  coefficients that put ``x`` on those vertices and ``y = m(x)``, a violation;
* degenerate ``f``: a prefilter (``s u t`` is itself a simplex and was already
  checked), else exactly one LP over the pair polytope
  ``{(x, y) in s x t : f(x) = f(y), g(x) = g(y)}``.  For disjoint ``s`` and
  ``t`` it is a feasibility LP; any solution is a violation, and
  infeasibility comes with a Farkas certificate.  For a shared face
  ``rho = s n t`` it maximizes the mass ``mu(x, y)`` of ``x`` on
  ``s \\ rho`` plus that of ``y`` on ``t \\ rho``.  ``mu = 0`` puts both points
  in ``rho``, a face of ``s``, on which ``(f, g)`` is injective, so ``x = y``.
  ``mu > 0`` puts one point outside ``s n t``, so the maximizer is two
  distinct points with the same value.

Every maximal simplex and every same-image pair contributes one evidence
record, and any violation carries an exact witness pair of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg, lp
from .complexes import BarycentricPoint, Simplex
from .errors import InternalError, MapError
from .maps import SemiLinearMap, SimplicialMap
from .obstruction import separation

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

    ``pairs_checked`` counts every unordered pair of maximal simplices; each
    is decided by the same-image pairs of its faces.  ``evidence`` holds one
    record per maximal simplex, then one per same-image pair, fibre by fibre
    in :meth:`SimplicialMap.fibers` order.
    """

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


def _combined_columns(f: SimplicialMap, g: SemiLinearMap, s: Simplex, frame: Sequence) -> list:
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
    # Affine dependency: sum c_i cols_i = 0 with sum c_i = 0, c != 0, that is
    # a linear one of the columns with a 1 appended.  The first column j0
    # that depends on the ones before it gives the unique dependency
    # supported on columns 0..j0 with c_j0 = 1.
    rows = list(zip(*cols)) + [(1,) * len(cols)]
    for j0 in range(1, len(cols)):
        t = linalg.solve([row[:j0] for row in rows], [row[j0] for row in rows])
        if t is not None:
            break
    dep = [-c for c in t] + [Fraction(1)] + [Fraction(0)] * (len(cols) - j0 - 1)
    pos = sum(c for c in dep if c > 0)
    lam = [max(c, Fraction(0)) / pos for c in dep]
    mu = [max(-c, Fraction(0)) / pos for c in dep]
    x = _point_from_coeffs(s, lam)
    y = _point_from_coeffs(s, mu)
    return ViolationWitness(simplex_x=s, simplex_y=s, x=x, y=y, g_value=g(x))


def _pair_check(f: SimplicialMap, g: SemiLinearMap, s: Simplex, t: Simplex) -> PairEvidence:
    """Settle a same-image pair of a degenerate map with one LP."""
    if f.source.has_simplex(set(s) | set(t)):
        return PairEvidence(pair=(s, t), kind=SAME_CARRIER)

    frame = f.image_simplex(s)
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


def _matched_pair_check(
    f: SimplicialMap, g: SemiLinearMap, s: Simplex, t: Simplex
) -> PairEvidence:
    """Settle a same-image pair of a non-degenerate map.  The matched
    bijection ``m: s -> t`` fixes ``s n t``, and ``x`` in ``s`` and ``m(x)``
    share a value exactly when the mass of ``x`` on the vertices of ``s``
    outside ``t`` combines the differences ``g(m(v)) - g(v)`` to zero."""
    m = f.matched_bijection(s, t)
    part = [v for v in s if v not in t]
    kind, cert = separation([linalg.vec_sub(g.values[m[v]], g.values[v]) for v in part])
    if kind != "origin-in-hull":
        return PairEvidence(pair=(s, t), kind=kind)
    x = _point_from_coeffs(part, cert)
    y_mass = {m[v]: c for v, c in zip(part, cert)}
    y = _point_from_coeffs(t, [y_mass.get(w, 0) for w in t])
    witness = ViolationWitness(simplex_x=s, simplex_y=t, x=x, y=y, g_value=g(x))
    return PairEvidence(pair=(s, t), kind=VIOLATION, witness=witness)


def verify_embedding(f: SimplicialMap, g: SemiLinearMap) -> VerificationResult:
    """Decide exactly whether ``x -> (f(x), g(x))`` is injective on the
    source polyhedron."""
    if g.source.vertices != f.source.vertices:
        raise MapError("lift values are not given on the source vertices")
    maximal = f.source.maximal_simplices()
    evidence: List[PairEvidence] = []
    violations: List[ViolationWitness] = []

    non_degenerate = f.is_non_degenerate()
    for s in maximal:
        # A non-degenerate f is injective on the vertices of s, so (f, g)
        # is affinely injective on s whatever g is.
        w = None if non_degenerate else _self_check(f, g, s)
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

    settle = _matched_pair_check if non_degenerate else _pair_check
    for fibre in f.fibers().values():
        for s, t in combinations(fibre, 2):
            ev = settle(f, g, s, t)
            evidence.append(ev)
            if ev.kind == VIOLATION:
                violations.append(ev.witness)
    return VerificationResult(
        ok=not violations,
        simplices_checked=len(maximal),
        pairs_checked=comb(len(maximal), 2),
        evidence=evidence,
        violations=violations,
    )
