from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from prem import linalg
from prem.lp import (
    LPResult,
    _hulls_intersect,
    lp_feasible,
    lp_max,
    lp_solve,
    min_sq_norm_in_hull,
    separate_hulls,
    zero_in_hull,
)

F = Fraction


def test_lp_solve_unique_optimum():
    # minimize 3x + 2y subject to x + y = 4, x - y = 2, x,y >= 0.
    res = lp_solve([[1, 1], [1, -1]], [4, 2], [3, 2])
    assert res.status == "optimal"
    assert res.x == [F(3), F(1)]
    assert res.value == F(11)


def test_lp_solve_redundant_row():
    # Second constraint is twice the first; solver must drop it, not fail.
    res = lp_solve([[1, 1], [2, 2]], [2, 4], [1, 0])
    assert res.status == "optimal"
    assert res.value == F(0)
    assert res.x[0] == F(0)


def test_lp_solve_infeasible_farkas():
    res = lp_solve([[1, 1]], [-1], [0, 0])
    assert res.status == "infeasible"
    y = res.farkas
    # Certificate: y.A <= 0 componentwise while y.b > 0.
    assert y[0] * 1 <= 0 and y[0] * 1 <= 0
    assert y[0] * (-1) > 0


def test_lp_solve_unbounded():
    # minimize -x subject to x - y = 1: x = 1 + y grows without bound.
    res = lp_solve([[1, -1]], [1], [-1, 0])
    assert res.status == "unbounded"


def test_lp_feasible_and_max():
    res = lp_feasible([[1, 1, 1]], [6])
    assert res.status == "optimal"
    assert sum(res.x) == F(6)
    res = lp_max([[1, 1, 1]], [5], [1, 1, 0])
    assert res.status == "optimal"
    assert res.value == F(5)


def test_zero_in_hull_inside():
    pts = [(1, 0), (-1, 1), (-1, -1)]
    hit, lam = zero_in_hull(pts)
    assert hit
    assert all(l >= 0 for l in lam)
    assert sum(lam) == F(1)
    for i in range(2):
        assert sum(l * F(p[i]) for l, p in zip(lam, pts)) == F(0)


def test_zero_in_hull_outside_certificate():
    pts = [(1, 1), (2, 1), (1, 2)]
    hit, (normal, threshold) = zero_in_hull(pts)
    assert not hit
    assert threshold < 0
    for p in pts:
        assert sum(n * F(x) for n, x in zip(normal, p)) <= threshold


def test_hulls_intersect_with_witness():
    ps = [(0, 0), (2, 0), (0, 2)]
    qs = [(1, 1), (3, 1), (1, 3)]
    hit, (lams, mus) = _hulls_intersect(ps, qs)
    assert hit
    p_point = [sum(l * F(p[i]) for l, p in zip(lams, ps)) for i in range(2)]
    q_point = [sum(m * F(q[i]) for m, q in zip(mus, qs)) for i in range(2)]
    assert p_point == q_point
    assert sum(lams) == F(1) and sum(mus) == F(1)
    assert all(l >= 0 for l in lams) and all(m >= 0 for m in mus)


def test_hulls_touching_count_as_intersecting():
    # Closed hulls sharing a single point.
    hit, _ = _hulls_intersect([(0, 0), (1, 0)], [(1, 0), (2, 0)])
    assert hit


def test_separate_hulls_functional():
    ps = [(0, 0), (1, 0), (0, 1)]
    qs = [(1, 1), (2, 1), (1, 2)]
    got = separate_hulls(ps, qs)
    assert got is not None
    normal, lo, hi = got
    assert lo < hi
    for p in ps:
        assert sum(n * F(x) for n, x in zip(normal, p)) <= lo
    for q in qs:
        assert sum(n * F(x) for n, x in zip(normal, q)) >= hi
    # Intersecting hulls yield no separator.
    assert separate_hulls([(0, 0), (2, 2)], [(0, 2), (2, 0)]) is None


def test_min_sq_norm_single_point():
    val, lam = min_sq_norm_in_hull([(3, 4)])
    assert val == F(25)
    assert lam == [F(1)]


def test_min_sq_norm_segment_midpoint():
    val, lam = min_sq_norm_in_hull([(1, -1), (1, 1)])
    assert val == F(1)
    assert lam == [F(1, 2), F(1, 2)]


def test_min_sq_norm_diagonal_segment():
    # Closest point of the segment (2,0)-(0,2) to the origin is (1,1).
    val, lam = min_sq_norm_in_hull([(2, 0), (0, 2)])
    assert val == F(2)
    assert lam == [F(1, 2), F(1, 2)]


def test_min_sq_norm_vertex_optimum():
    val, lam = min_sq_norm_in_hull([(2, 1), (4, 1)])
    assert val == F(5)
    assert lam == [F(1), F(0)]


def test_min_sq_norm_zero_inside():
    val, lam = min_sq_norm_in_hull([(1, 0), (-1, 1), (-1, -1)])
    assert val == F(0)
    assert all(l >= 0 for l in lam) and sum(lam) == F(1)


# -- properties on random small LPs ------------------------------------------


# Integers, and rationals with denominators up to 6, which lp_solve must
# scale to integer rows by the lcm of each row's denominators.
ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)


@st.composite
def small_lps(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    a = [[draw(ENTRIES) for _ in range(n)] for _ in range(m)]
    b = [draw(ENTRIES) for _ in range(m)]
    c = [draw(ENTRIES) for _ in range(n)]
    return a, b, c


def basic_feasible_solutions(a, b):
    """Every x >= 0 with A x = b whose support columns are linearly
    independent, by brute force over column subsets."""
    m, n = len(a), len(a[0])
    found = []
    for size in range(0, min(m, n) + 1):
        for cols in combinations(range(n), size):
            if size == 0:
                sol = [] if all(bi == 0 for bi in b) else None
            else:
                if not linalg.linearly_independent([[row[j] for row in a] for j in cols]):
                    continue
                sol = linalg.solve([[row[j] for j in cols] for row in a], b)
            if sol is None or any(v < 0 for v in sol):
                continue
            x = [F(0)] * n
            for j, v in zip(cols, sol):
                x[j] = v
            found.append(x)
    return found


@settings(deadline=None, max_examples=150)
@given(small_lps())
def test_lp_solve_agrees_with_vertex_enumeration(lp):
    a, b, c = lp
    res = lp_solve(a, b, c)
    vertices = basic_feasible_solutions(a, b)
    if res.status == "infeasible":
        assert vertices == []
        y = res.farkas
        for j in range(len(c)):
            assert sum(yi * row[j] for yi, row in zip(y, a)) <= 0
        assert sum(yi * bi for yi, bi in zip(y, b)) > 0
        return
    assert vertices
    if res.status == "unbounded":
        # Some ray d >= 0 with A d = 0, normalised by sum(d) = 1, descends.
        rays = basic_feasible_solutions(a + [[1] * len(c)], [0] * len(b) + [1])
        assert min(sum(cj * dj for cj, dj in zip(c, d)) for d in rays) < 0
        return
    assert res.status == "optimal"
    x = res.x
    assert all(isinstance(v, Fraction) and v >= 0 for v in x)
    for row, bi in zip(a, b):
        assert sum(aij * xj for aij, xj in zip(row, x)) == bi
    assert res.value == sum(cj * xj for cj, xj in zip(c, x))
    assert res.value == min(sum(cj * xj for cj, xj in zip(c, v)) for v in vertices)


# -- the Fraction simplex as the oracle of the integer one -----------------------
#
# The two-phase Bland simplex over ``Fraction`` that ``lp_solve`` replaced.
# It takes the same pivots, so every result, Farkas certificates included,
# must be identical.


def _ref_pivot(rows, objrow, basis, r, col):
    inv = 1 / rows[r][col]
    prow = rows[r] = [x * inv for x in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[col]:
            f = row[col]
            rows[i] = [x - f * y for x, y in zip(row, prow)]
    f = objrow[col]
    objrow[:] = [x - f * y for x, y in zip(objrow, prow)]
    basis[r] = col


def _ref_optimize(rows, objrow, basis, width):
    while True:
        col = next((j for j in range(width) if objrow[j] < 0), None)
        if col is None:
            return None
        best_r = best_ratio = None
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
        _ref_pivot(rows, objrow, basis, best_r, col)


def reference_lp_solve(a, b, c) -> LPResult:
    m, n = len(a), len(c)
    a = [[F(x) for x in row] for row in a]
    b = [F(x) for x in b]
    c = [F(x) for x in c]
    signs = [1 if bi >= 0 else -1 for bi in b]
    rows = []
    for i in range(m):
        art = [F(0)] * m
        art[i] = F(1)
        rows.append([signs[i] * x for x in a[i]] + art + [signs[i] * b[i]])
    width1 = n + m
    basis = [n + i for i in range(m)]
    objrow = [F(0)] * (width1 + 1)
    for j in [*range(n), width1]:
        objrow[j] = -sum((row[j] for row in rows), F(0))
    assert _ref_optimize(rows, objrow, basis, width1) is None
    if -objrow[-1] > 0:
        y = [signs[i] * (1 - objrow[n + i]) for i in range(m)]
        return LPResult(status="infeasible", farkas=y)
    r = 0
    while r < len(rows):
        if basis[r] >= n:
            col = next((j for j in range(n) if rows[r][j] != 0), None)
            if col is None:
                rows.pop(r)
                basis.pop(r)
                continue
            _ref_pivot(rows, objrow, basis, r, col)
        r += 1
    rows = [row[:n] + [row[-1]] for row in rows]
    objrow = c + [F(0)]
    for r, jb in enumerate(basis):
        f = objrow[jb]
        objrow = [x - f * y for x, y in zip(objrow, rows[r])]
    if _ref_optimize(rows, objrow, basis, n) is not None:
        return LPResult(status="unbounded")
    x = [F(0)] * n
    for r, jb in enumerate(basis):
        x[jb] = rows[r][-1]
    return LPResult(status="optimal", x=x, value=-objrow[-1])


@settings(deadline=None, max_examples=300)
@given(small_lps())
def test_lp_solve_matches_fraction_simplex(lp):
    a, b, c = lp
    got = lp_solve(a, b, c)
    assert got == reference_lp_solve(a, b, c)
    values = [*(got.x or ()), *(got.farkas or ()), got.value]
    assert all(type(v) is Fraction for v in values if v is not None)
