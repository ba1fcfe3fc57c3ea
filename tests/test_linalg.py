from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from prem import linalg

F = Fraction


def test_rank_and_rref():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert linalg.rank(rows) == 2
    assert linalg.rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert linalg.rank([[F(0), F(0)]]) == 0


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
    expected = linalg.rref(m)[2] if m else 0
    assert linalg.rank(m) == expected
    assert linalg.rank([row[::-1] for row in m[::-1]]) == expected
