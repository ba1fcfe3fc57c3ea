"""Exact rational linear programming and convex-hull predicates.

A two-phase simplex method with Bland's anti-cycling rule on a fraction-free
tableau (Edmonds 1967, Bareiss 1968).  Every row is a Python ``int`` vector
standing for the rational row it is a positive multiple of.  A constraint
row's multiple is its entry in its basic column, whose true value is 1; the
objective row keeps its multiple as one extra last entry.  A pivot replaces a
row ``r`` by ``p * r - f * q`` (``q`` the pivot row, ``p > 0`` its pivot
entry, ``f`` the entry of ``r`` in the pivot column) and divides it by the gcd
of its entries.  Bland's rule reads only the sign of each reduced cost and
the ratios ``rhs / entry`` within each row, which the multiple cancels from,
so ratios are compared by cross-multiplication and the pivots are the ones a
``fractions.Fraction`` tableau would take.  ``Fraction`` values are built
only for the result.  Infeasibility is always returned together with a
Farkas certificate ``y`` (``y . A_j <= 0`` for every column, ``y . b > 0``)
which is re-verified exactly before being handed out.  On top of the solver
sit the hull predicates used throughout the library: membership of the
origin, intersection / strict separation of two hulls, and the exact minimum
squared norm over a hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import InternalError
from .linalg import _int_row, _primitive

Vec = List[Fraction]


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[Vec] = None
    value: Optional[Fraction] = None
    farkas: Optional[Vec] = None


def _eliminate(row: list, f: int, prow: list, p: int) -> list:
    """The primitive integer row proportional to ``p * row - f * prow``.
    Entries of ``row`` past the end of ``prow`` (the objective's multiple)
    meet an implicit zero in ``prow``."""
    new = [p * x - f * y for x, y in zip(row, prow)]
    new += [p * x for x in row[len(prow):]]
    return _primitive(new)


def _pivot(rows: list, objrow: list, basis: list, r: int, col: int) -> list:
    """Pivot on ``rows[r][col]`` in place; returns the new objective row."""
    prow = rows[r]
    p = prow[col]
    if p < 0:
        p = -p
        prow = rows[r] = [-x for x in prow]
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            if f:
                rows[i] = _eliminate(row, f, prow, p)
    basis[r] = col
    f = objrow[col]
    return _eliminate(objrow, f, prow, p) if f else objrow


def _optimize(rows: list, objrow: list, basis: list, width: int):
    """Run simplex iterations with Bland's rule.  Returns the final objective
    row and ``None`` at optimality or the entering column when unbounded."""
    while True:
        col = None
        for j in range(width):
            if objrow[j] < 0:
                col = j
                break
        if col is None:
            return objrow, None
        best_r = None
        for r, row in enumerate(rows):
            e = row[col]
            if e > 0:
                if best_r is None:
                    best_r, best_rhs, best_e = r, row[-1], e
                    continue
                # row[-1] / e against best_rhs / best_e, both divisors > 0.
                lhs, rhs = row[-1] * best_e, best_rhs * e
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best_r]):
                    best_r, best_rhs, best_e = r, row[-1], e
        if best_r is None:
            return objrow, col
        objrow = _pivot(rows, objrow, basis, best_r, col)


def lp_solve(a: Sequence[Sequence], b: Sequence, c: Sequence) -> LPResult:
    """Minimize ``c . x`` subject to ``A x = b``, ``x >= 0`` (exact)."""
    m = len(a)
    n = len(c)
    if any(len(row) != n for row in a):
        raise InternalError("ragged constraint matrix")

    # Row i of [A | b], scaled to integers by s_i > 0 and negated when b_i < 0,
    # followed by its artificial column (true value 1, so entry s_i).
    signs = []
    scales = []
    rows = []
    for i in range(m):
        ints, s = _int_row([*a[i], b[i]])
        sign = 1 if ints[-1] >= 0 else -1
        if sign < 0:
            ints = [-x for x in ints]
        art = [0] * m
        art[i] = s
        signs.append(sign)
        scales.append(s)
        rows.append(ints[:n] + art + [ints[-1]])
    start = [row[:n] + [row[-1]] for row in rows]

    # Phase 1: minimize the sum of artificials (basis = artificials).  Its
    # reduced costs are minus the column sums of the true rows, held over the
    # common multiple d of the row scales.
    width1 = n + m
    basis = [n + i for i in range(m)]
    d = lcm(*scales)
    weights = [d // s for s in scales]
    sums = [-sum([w * row[k] for w, row in zip(weights, start)]) for k in range(n + 1)]
    objrow = _primitive(sums[:n] + [0] * m + [sums[n], d])
    objrow, unb = _optimize(rows, objrow, basis, width1)
    if unb is not None:
        raise InternalError("phase-1 objective cannot be unbounded")
    if objrow[width1] < 0:
        # Simplex multipliers from the artificial columns' reduced costs:
        # pi_i = 1 - objrow[n + i] / den = num[i] / den.
        den = objrow[-1]
        num = [den - objrow[n + i] for i in range(m)]
        # y . A_j and y . b, times den * d > 0, on the integer rows.
        v = [ni * w for ni, w in zip(num, weights)]
        for j in range(n):
            if sum([vi * row[j] for vi, row in zip(v, start) if row[j]]) > 0:
                raise InternalError("Farkas certificate failed column check")
        if sum([vi * row[-1] for vi, row in zip(v, start)]) <= 0:
            raise InternalError("Farkas certificate failed objective check")
        y = [Fraction(sign * ni, den) for sign, ni in zip(signs, num)]
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
            objrow = _pivot(rows, objrow, basis, r, col)
        r += 1

    # Phase 2 on original columns only.
    rows = [_primitive(row[:n] + [row[-1]]) for row in rows]
    ints, s = _int_row(c)
    objrow = ints + [0, s]
    for r, jb in enumerate(basis):
        f = objrow[jb]
        if f:
            objrow = _eliminate(objrow, f, rows[r], rows[r][jb])
    objrow, unb = _optimize(rows, objrow, basis, n)
    if unb is not None:
        return LPResult(status="unbounded")
    x = [Fraction(0)] * n
    for r, jb in enumerate(basis):
        x[jb] = Fraction(rows[r][-1], rows[r][jb])
    return LPResult(status="optimal", x=x, value=Fraction(-objrow[n], objrow[-1]))


def lp_feasible(a: Sequence[Sequence], b: Sequence, n: Optional[int] = None) -> LPResult:
    """Feasibility of ``A x = b, x >= 0`` (zero objective)."""
    cols = n if n is not None else (len(a[0]) if a else 0)
    return lp_solve(a, b, [0] * cols)


def lp_max(a: Sequence[Sequence], b: Sequence, c: Sequence) -> LPResult:
    res = lp_solve(a, b, [-x for x in c])
    if res.status == "optimal":
        return LPResult(status="optimal", x=res.x, value=-res.value)
    return res


# -- hull predicates -------------------------------------------------------


def _hull_system(points: Sequence[Sequence]) -> Tuple[list, list]:
    d = len(points[0]) if points else 0
    a = [[p[i] for p in points] for i in range(d)]
    a.append([1] * len(points))
    b = [0] * d + [1]
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


def _hulls_intersect(ps: Sequence[Sequence], qs: Sequence[Sequence]):
    """Whether two convex hulls meet.  Returns ``(True, (lams, mus))`` with
    convex combinations witnessing a common point, or ``(False, (normal, lo,
    hi))`` with ``normal . p <= lo < hi <= normal . q`` for all p, q."""
    if not ps or not qs:
        return False, (None, None, None)
    d = len(ps[0])
    np_, nq = len(ps), len(qs)
    a = []
    for i in range(d):
        a.append([p[i] for p in ps] + [-q[i] for q in qs])
    a.append([1] * np_ + [0] * nq)
    a.append([0] * np_ + [1] * nq)
    b = [0] * d + [1, 1]
    res = lp_feasible(a, b, n=np_ + nq)
    if res.status == "optimal":
        return True, (res.x[:np_], res.x[np_:])
    y = res.farkas
    normal, alpha, beta = y[:d], y[d], y[d + 1]
    return False, (normal, -alpha, beta)


def separate_hulls(ps: Sequence[Sequence], qs: Sequence[Sequence]):
    """Strictly separating functional for two disjoint hulls, or ``None``
    when they intersect."""
    hit, data = _hulls_intersect(ps, qs)
    return None if hit else data


def min_sq_norm_in_hull(points: Sequence[Sequence]) -> Tuple[Fraction, Vec]:
    """Exact minimum of ``|x|^2`` over the convex hull, with minimizing
    convex coefficients.  Enumerates critical points of the quadratic on
    every affinely independent subset (sound by Caratheodory)."""
    if not points:
        raise InternalError("empty hull")
    pts = [tuple(Fraction(x) for x in p) for p in points]
    k = len(pts)
    if k == 1:
        return linalg.norm_sq(pts[0]), [Fraction(1)]
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
