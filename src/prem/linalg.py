"""Exact linear algebra over the rationals.

Inputs are sequences of ``int`` and :class:`fractions.Fraction` entries
(anything else is read through ``Fraction``).  ``rank`` eliminates
fraction-free: each row is scaled to integers once, and elimination replaces
a row by ``p * row - f * pivot_row`` divided by the gcd of its entries, so no
``Fraction`` is built.  ``rref`` and ``solve`` do plain Gaussian elimination
over ``Fraction`` and return ``Fraction`` entries; the systems of this
library have at most a few dozen unknowns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Tuple

Vec = tuple
Q0 = Fraction(0)
Q1 = Fraction(1)


def vec(xs) -> tuple:
    return tuple(Fraction(x) for x in xs)


def vec_add(a: Sequence, b: Sequence) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence, b: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a: Sequence) -> tuple:
    c = Fraction(c)
    return tuple(c * x for x in a)


def dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Q0)


def norm_sq(a: Sequence) -> Fraction:
    return dot(a, a)


def dist_sq(a: Sequence, b: Sequence) -> Fraction:
    return norm_sq(vec_sub(a, b))


def _int_row(xs: Sequence) -> Tuple[list, int]:
    """``(ints, scale)``: the integer row ``scale * xs`` for the least
    ``scale > 0`` that clears every denominator."""
    qs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in xs]
    scale = lcm(*[q.denominator for q in qs])
    return [q.numerator * (scale // q.denominator) for q in qs], scale


def _primitive(row: list) -> list:
    """``row`` divided by the gcd of its entries (unchanged when that is 0
    or 1)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(m: Sequence[Sequence]) -> tuple[list, list[int], int]:
    """Reduced row echelon form.

    Returns ``(matrix, pivot_columns, rank)``.  Pivots are chosen left to
    right, so the result is deterministic.
    """
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = Q1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots, r


def rank(m: Sequence[Sequence]) -> int:
    """Rank of the matrix with rows ``m``, by fraction-free elimination on
    integer rows."""
    rows = [_int_row(row)[0] for row in m]
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = _primitive([p * x - f * y for x, y in zip(rows[i], prow)])
        r += 1
        if r == len(rows):
            break
    return r


def solve(a: Sequence[Sequence], b: Sequence) -> Optional[list]:
    """One exact solution of ``a x = b``, or ``None`` when inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    rows = len(a)
    if rows == 0:
        return []
    cols = len(a[0])
    aug = [list(map(Fraction, row)) + [Fraction(bv)] for row, bv in zip(a, b)]
    red, pivots, r = rref(aug)
    # Inconsistent iff a pivot lands in the augmented column.
    if r and pivots and pivots[-1] == cols:
        return None
    x = [Q0] * cols
    for i, c in enumerate(pivots):
        x[c] = red[i][cols]
    return x


def affinely_independent(points: Sequence[Sequence]) -> bool:
    """True iff the points span an affine subspace of dimension ``len-1``."""
    pts = [vec(p) for p in points]
    if len(pts) <= 1:
        return True
    diffs = [list(vec_sub(p, pts[0])) for p in pts[1:]]
    return rank(diffs) == len(pts) - 1


def linearly_independent(vectors: Sequence[Sequence]) -> bool:
    return rank(vectors) == len(vectors)


def point_to_affine_hull_dist_sq(p: Sequence, hull_points: Sequence[Sequence]) -> Fraction:
    """Exact squared Euclidean distance from ``p`` to the affine hull of
    ``hull_points`` (which must be non-empty)."""
    p = vec(p)
    base = vec(hull_points[0])
    dirs = [vec_sub(q, base) for q in hull_points[1:]]
    r = vec_sub(p, base)
    if not dirs:
        return norm_sq(r)
    # Normal equations G t = rhs; consistent because G is a Gram matrix.
    g = [[dot(u, v) for v in dirs] for u in dirs]
    rhs = [dot(u, r) for u in dirs]
    t = solve(g, rhs)
    if t is None:  # pragma: no cover - Gram systems are always consistent
        raise ArithmeticError("inconsistent Gram system")
    proj = base
    for c, u in zip(t, dirs):
        proj = vec_add(proj, vec_scale(c, u))
    return dist_sq(p, proj)
