from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from prem import linalg

from conftest import rref, rref_solve

F = Fraction


def test_rank_and_rref():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert linalg._rank(rows) == 2
    assert linalg._rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert linalg._rank([[F(0), F(0)]]) == 0


def test_solve_inconsistent():
    a = [[F(1), F(1)], [F(2), F(2)]]
    assert linalg.solve(a, [F(1), F(3)]) is None


def test_affinely_independent():
    assert linalg.affinely_independent([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    assert not linalg.affinely_independent([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))])
    assert linalg.affinely_independent([(F(3), F(7))])


def test_point_to_affine_hull_dist_sq():
    hull = [(F(0), F(0)), (F(1), F(0))]
    assert linalg.point_to_affine_hull_dist_sq((F(5), F(3)), hull) == F(9)
    assert linalg.point_to_affine_hull_dist_sq((F(2), F(0)), hull) == F(0)


def test_dist_sq():
    assert linalg.dist_sq((F(0), F(0)), (F(3), F(4))) == F(25)


RATIONALS = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)


@st.composite
def rational_matrices(draw):
    """Random rational rows, then rational combinations of pairs of them,
    so that rank-deficient matrices are common."""
    cols = draw(st.integers(1, 5))
    rows = [[draw(RATIONALS) for _ in range(cols)] for _ in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        p, q = draw(RATIONALS), draw(RATIONALS)
        rows.append([p * x + q * y for x, y in zip(u, v)])
    return rows


@settings(deadline=None, max_examples=200)
@given(rational_matrices())
def test_rank_matches_rref(m):
    expected = rref(m)[2]
    assert linalg._rank(m) == expected
    assert linalg._rank([row[::-1] for row in m[::-1]]) == expected


@st.composite
def linear_systems(draw):
    """A matrix from ``rational_matrices`` and a right-hand side: a
    rational combination of its columns (consistent) or random entries
    (often inconsistent when the matrix is rank-deficient)."""
    a = draw(rational_matrices())
    cols = len(a[0]) if a else 0
    if draw(st.booleans()):
        x = [draw(RATIONALS) for _ in range(cols)]
        b = [sum((c * y for c, y in zip(row, x)), F(0)) for row in a]
    else:
        b = [draw(RATIONALS) for _ in a]
    return a, b


@settings(deadline=None, max_examples=300)
@given(linear_systems())
def test_solve_matches_the_rref_solution(system):
    """``solve`` back-substitutes on the fraction-free echelon form, and
    gives exactly the solution ``rref`` reads off with free variables zero,
    or ``None`` exactly when ``rref`` finds the system inconsistent."""
    a, b = system
    x = linalg.solve(a, b)
    assert x == rref_solve(a, b)
    if x is not None:
        assert all(type(c) is Fraction for c in x)
        assert [sum((c * y for c, y in zip(row, x)), F(0)) for row in a] == b
