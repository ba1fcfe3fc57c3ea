"""Exact rational linear programming and convex-hull predicates.

A two-phase simplex method over ``fractions.Fraction`` with Bland's
anti-cycling rule.  The tableau is stored densely, but a pivot updates only
the columns where the scaled pivot row is nonzero: the pair LPs of ``verify``
are mostly zeros, and ``a - factor * 0`` would build a new ``Fraction`` for
nothing.  Infeasibility is always returned together with a Farkas
certificate ``y`` (``y . A_j <= 0`` for every column, ``y . b > 0``) which is
re-verified exactly before being handed out.  On top of the solver sit the
hull predicates used throughout the library: membership of the origin,
intersection / strict separation of two hulls, and the exact minimum squared
norm over a hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import InternalError

Vec = List[Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[Vec] = None
    value: Optional[Fraction] = None
    farkas: Optional[Vec] = None


def _eliminate(row: list, factor: Fraction, prow: list, nz: list) -> None:
    """``row -= factor * prow`` in place, touching only the columns ``nz``
    where ``prow`` is nonzero."""
    for j in nz:
        row[j] -= factor * prow[j]


def _pivot(rows: list, objrow: list, basis: list, r: int, col: int) -> None:
    inv = 1 / rows[r][col]
    prow = rows[r] = [x * inv if x else x for x in rows[r]]
    nz = [j for j, x in enumerate(prow) if x]
    for i, row in enumerate(rows):
        if i != r:
            factor = row[col]
            if factor:
                _eliminate(row, factor, prow, nz)
    factor = objrow[col]
    if factor:
        _eliminate(objrow, factor, prow, nz)
    basis[r] = col


def _optimize(rows: list, objrow: list, basis: list, width: int):
    """Run simplex iterations with Bland's rule.  Returns ``None`` at
    optimality or the entering column index when unbounded."""
    while True:
        col = None
        for j in range(width):
            if objrow[j] < 0:
                col = j
                break
        if col is None:
            return None
        best_r = None
        best_ratio = None
        for r, row in enumerate(rows):
            if row[col] > 0:
                ratio = row[-1] / row[col]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_r])
                ):
                    best_r, best_ratio = r, ratio
        if best_r is None:
            return col
        _pivot(rows, objrow, basis, best_r, col)


def lp_solve(a: Sequence[Sequence], b: Sequence, c: Sequence) -> LPResult:
    """Minimize ``c . x`` subject to ``A x = b``, ``x >= 0`` (exact)."""
    m = len(a)
    n = len(c)
    a = [[_frac(x) for x in row] for row in a]
    b = [_frac(x) for x in b]
    c = [_frac(x) for x in c]
    if any(len(row) != n for row in a):
        raise InternalError("ragged constraint matrix")

    signs = [1 if bi >= 0 else -1 for bi in b]
    rows = []
    for i in range(m):
        base = a[i] if signs[i] > 0 else [-x for x in a[i]]
        art = [_ZERO] * m
        art[i] = _ONE
        rows.append(base + art + [signs[i] * b[i]])

    # Phase 1: minimize the sum of artificials (basis = artificials).
    width1 = n + m
    basis = [n + i for i in range(m)]
    objrow = [_ZERO] * (width1 + 1)
    for j in [*range(n), width1]:
        objrow[j] = -sum([v for row in rows if (v := row[j])], _ZERO)
    unb = _optimize(rows, objrow, basis, width1)
    if unb is not None:
        raise InternalError("phase-1 objective cannot be unbounded")
    phase1_value = -objrow[-1]
    if phase1_value > 0:
        # Simplex multipliers from the artificial columns' reduced costs.
        pi = [Fraction(1) - objrow[n + i] for i in range(m)]
        y = [signs[i] * pi[i] for i in range(m)]
        for j in range(n):
            if sum(y[i] * a[i][j] for i in range(m)) > 0:
                raise InternalError("Farkas certificate failed column check")
        if sum(y[i] * b[i] for i in range(m)) <= 0:
            raise InternalError("Farkas certificate failed objective check")
        return LPResult(status="infeasible", farkas=y)

    # Drive any degenerate artificial out of the basis, dropping redundant rows.
    r = 0
    while r < len(rows):
        if basis[r] >= n:
            col = next((j for j in range(n) if rows[r][j] != 0), None)
            if col is None:
                rows.pop(r)
                basis.pop(r)
                continue
            _pivot(rows, objrow, basis, r, col)
        r += 1

    # Phase 2 on original columns only.
    rows = [row[:n] + [row[-1]] for row in rows]
    objrow = list(c) + [_ZERO]
    for r, jb in enumerate(basis):
        factor = objrow[jb]
        if factor:
            _eliminate(objrow, factor, rows[r], [j for j, p in enumerate(rows[r]) if p])
    unb = _optimize(rows, objrow, basis, n)
    if unb is not None:
        return LPResult(status="unbounded")
    x = [Fraction(0)] * n
    for r, jb in enumerate(basis):
        x[jb] = rows[r][-1]
    return LPResult(status="optimal", x=x, value=-objrow[-1])


def lp_feasible(a: Sequence[Sequence], b: Sequence, n: Optional[int] = None) -> LPResult:
    """Feasibility of ``A x = b, x >= 0`` (zero objective)."""
    cols = n if n is not None else (len(a[0]) if a else 0)
    return lp_solve(a, b, [Fraction(0)] * cols)


def lp_max(a: Sequence[Sequence], b: Sequence, c: Sequence) -> LPResult:
    res = lp_solve(a, b, [-Fraction(x) for x in c])
    if res.status == "optimal":
        return LPResult(status="optimal", x=res.x, value=-res.value)
    return res


# -- hull predicates -------------------------------------------------------


def _hull_system(points: Sequence[Sequence]) -> Tuple[list, list]:
    d = len(points[0]) if points else 0
    a = [[Fraction(p[i]) for p in points] for i in range(d)]
    a.append([Fraction(1)] * len(points))
    b = [Fraction(0)] * d + [Fraction(1)]
    return a, b


def zero_in_hull(points: Sequence[Sequence]):
    """Whether the origin lies in the convex hull.  Returns
    ``(True, coefficients)`` or ``(False, (normal, threshold))`` where
    ``normal . p <= threshold < 0`` for every input point."""
    if not points:
        return False, (None, None)
    a, b = _hull_system(points)
    res = lp_feasible(a, b, n=len(points))
    if res.status == "optimal":
        return True, res.x
    y = res.farkas
    normal, alpha = y[:-1], y[-1]
    return False, (normal, -alpha)


def point_in_hull(p: Sequence, points: Sequence[Sequence]):
    shifted = [linalg.vec_sub(q, p) for q in points]
    return zero_in_hull(shifted)


def hulls_intersect(ps: Sequence[Sequence], qs: Sequence[Sequence]):
    """Whether two convex hulls meet.  Returns ``(True, (lams, mus))`` with
    convex combinations witnessing a common point, or ``(False, (normal, lo,
    hi))`` with ``normal . p <= lo < hi <= normal . q`` for all p, q."""
    if not ps or not qs:
        return False, (None, None, None)
    d = len(ps[0])
    np_, nq = len(ps), len(qs)
    a = []
    for i in range(d):
        a.append([Fraction(p[i]) for p in ps] + [-Fraction(q[i]) for q in qs])
    a.append([Fraction(1)] * np_ + [Fraction(0)] * nq)
    a.append([Fraction(0)] * np_ + [Fraction(1)] * nq)
    b = [Fraction(0)] * d + [Fraction(1), Fraction(1)]
    res = lp_feasible(a, b, n=np_ + nq)
    if res.status == "optimal":
        return True, (res.x[:np_], res.x[np_:])
    y = res.farkas
    normal, alpha, beta = y[:d], y[d], y[d + 1]
    return False, (normal, -alpha, beta)


def separate_hulls(ps: Sequence[Sequence], qs: Sequence[Sequence]):
    """Strictly separating functional for two disjoint hulls, or ``None``
    when they intersect."""
    hit, data = hulls_intersect(ps, qs)
    return None if hit else data


def min_sq_norm_in_hull(points: Sequence[Sequence]) -> Tuple[Fraction, Vec]:
    """Exact minimum of ``|x|^2`` over the convex hull, with minimizing
    convex coefficients.  Enumerates critical points of the quadratic on
    every affinely independent subset (sound by Caratheodory)."""
    if not points:
        raise InternalError("empty hull")
    pts = [tuple(Fraction(x) for x in p) for p in points]
    k = len(pts)
    gram = [[linalg.dot(pts[i], pts[j]) for j in range(k)] for i in range(k)]
    best_val: Optional[Fraction] = None
    best_lam: Optional[Vec] = None
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            sel = [pts[i] for i in subset]
            if not linalg.affinely_independent(sel):
                continue
            rows = []
            for a_i in subset:
                rows.append([2 * gram[a_i][b_i] for b_i in subset] + [Fraction(-1)])
            rows.append([Fraction(1)] * size + [Fraction(0)])
            rhs = [Fraction(0)] * size + [Fraction(1)]
            sol = linalg.solve(rows, rhs)
            if sol is None:
                continue
            lam = sol[:size]
            if any(l < 0 for l in lam):
                continue
            val = Fraction(0)
            for ai, la in zip(subset, lam):
                for bi, lb in zip(subset, lam):
                    val += la * lb * gram[ai][bi]
            if best_val is None or val < best_val:
                full = [Fraction(0)] * k
                for idx, la in zip(subset, lam):
                    full[idx] = la
                best_val, best_lam = val, full
    if best_val is None:
        raise InternalError("no critical point found over a nonempty hull")
    return best_val, best_lam
