"""Exact linear algebra over the rationals.

Inputs are sequences of ``int`` and :class:`fractions.Fraction` entries;
the elimination reads anything else through ``Fraction``, the distance
helpers take their entries as they are.  One fraction-free elimination,
``_echelon``, serves ``_rank`` and ``solve``: each row is scaled to integers
once, and elimination replaces a row by ``p * row - f * pivot_row`` divided
by the gcd of its entries, so no ``Fraction`` is built until ``solve``
back-substitutes.  Pivots are taken left to right.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Tuple

Vec = tuple
Q0 = Fraction(0)


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


def _echelon(m: Sequence[Sequence]) -> Tuple[list, list]:
    """``(rows, pivots)``: a row echelon form of the matrix with rows ``m``,
    in integer rows, by fraction-free elimination, and its pivot columns.
    Row ``i`` of ``rows`` has its leading entry in column ``pivots[i]``;
    the rows past ``len(pivots)`` are zero."""
    rows = [_int_row(row)[0] for row in m]
    cols = len(rows[0]) if rows else 0
    pivots: list = []
    for c in range(cols):
        r = len(pivots)
        if r == len(rows):
            break
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
        pivots.append(c)
    return rows, pivots


def _rank(m: Sequence[Sequence]) -> int:
    """Rank of the matrix with rows ``m``."""
    return len(_echelon(m)[1])


def solve(a: Sequence[Sequence], b: Sequence) -> Optional[list]:
    """One exact solution of ``a x = b`` in ``Fraction`` entries, or ``None``
    when inconsistent.

    Free variables are set to zero, so the result is deterministic: the
    pivot columns of ``[a | b]`` do not depend on how it is reduced.
    """
    if not a:
        return []
    cols = len(a[0])
    rows, pivots = _echelon([list(row) + [bv] for row, bv in zip(a, b)])
    # Inconsistent iff a pivot lands in the augmented column.
    if pivots and pivots[-1] == cols:
        return None
    x = [Q0] * cols
    for i in reversed(range(len(pivots))):
        row, c = rows[i], pivots[i]
        x[c] = (row[cols] - sum((row[j] * x[j] for j in pivots[i + 1:]), Q0)) / row[c]
    return x


def affinely_independent(points: Sequence[Sequence]) -> bool:
    """True iff the points span an affine subspace of dimension ``len-1``."""
    pts = [vec(p) for p in points]
    if len(pts) <= 1:
        return True
    diffs = [list(vec_sub(p, pts[0])) for p in pts[1:]]
    return _rank(diffs) == len(pts) - 1


def linearly_independent(vectors: Sequence[Sequence]) -> bool:
    return _rank(vectors) == len(vectors)


def point_to_affine_hull_dist_sq(p: Sequence, hull_points: Sequence[Sequence]) -> Fraction:
    """Exact squared Euclidean distance from ``p`` to the affine hull of
    ``hull_points`` (which must be non-empty).  Entries must already be
    ``int`` or ``Fraction``; they are not read through ``Fraction`` again."""
    base = hull_points[0]
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
