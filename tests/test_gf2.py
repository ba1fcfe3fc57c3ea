from hypothesis import given, settings
from hypothesis import strategies as st

from prem.gf2 import betti_mod2, boundary_rank, pack, rank_gf2, solve_gf2, unpack

from conftest import complex_from_facets, octahedron, projective_plane_6, torus_7


def test_pack_unpack_roundtrip():
    bits = [1, 0, 1, 1, 0]
    assert unpack(pack(bits), 5) == bits
    assert pack([]) == 0
    assert unpack(0, 3) == [0, 0, 0]


def test_rank_examples():
    # Rows 101, 011, 110: third is the sum of the first two.
    rows = [pack([1, 0, 1]), pack([0, 1, 1]), pack([1, 1, 0])]
    assert rank_gf2(rows) == 2
    assert rank_gf2([]) == 0
    assert rank_gf2([0, 0]) == 0
    assert rank_gf2([pack([1, 1]), pack([0, 1])]) == 2


def test_solve_consistent():
    # x0 + x1 = 1, x1 + x2 = 1, x0 + x2 = 0 has solution (0, 1, 0).
    rows = [pack([1, 1, 0]), pack([0, 1, 1]), pack([1, 0, 1])]
    sol = solve_gf2(rows, [1, 1, 0], 3)
    assert sol is not None
    for mask, bit in zip(rows, [1, 1, 0]):
        assert bin(mask & sol).count("1") % 2 == bit


def test_solve_inconsistent():
    # x0 = 0 and x0 = 1 cannot both hold.
    assert solve_gf2([1, 1], [0, 1], 1) is None


@st.composite
def gf2_systems(draw):
    ncols = draw(st.integers(1, 8))
    m = draw(st.integers(0, 8))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), min_size=m, max_size=m))
    rhs = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    return rows, rhs, ncols


@settings(deadline=None, max_examples=300)
@given(gf2_systems())
def test_solve_gf2_solves_or_is_inconsistent(system):
    rows, rhs, ncols = system
    sol = solve_gf2(rows, rhs, ncols)
    augmented = [mask | (bit << ncols) for mask, bit in zip(rows, rhs)]
    inconsistent = rank_gf2(augmented) > rank_gf2(rows)
    assert (sol is None) == inconsistent
    if sol is not None:
        assert 0 <= sol < 1 << ncols
        for mask, bit in zip(rows, rhs):
            assert (mask & sol).bit_count() % 2 == bit


def test_boundary_ranks_triangle():
    c = complex_from_facets([("a", "b", "c")])
    # Three edges map onto a 2-dimensional cycle space complement.
    assert boundary_rank(c, 1) == 2
    assert boundary_rank(c, 2) == 1
    assert boundary_rank(c, 0) == 0
    assert boundary_rank(c, 3) == 0


def test_betti_sphere():
    assert betti_mod2(octahedron()) == [1, 0, 1]


def test_betti_torus():
    assert betti_mod2(torus_7()) == [1, 2, 1]


def test_betti_projective_plane():
    # Mod-2 coefficients see the nonorientable cycle in every degree.
    assert betti_mod2(projective_plane_6()) == [1, 1, 1]


def test_betti_circle_and_disjoint_points():
    circle = complex_from_facets([("a", "b"), ("b", "c"), ("c", "a")])
    assert betti_mod2(circle) == [1, 1]
    points = complex_from_facets([("a",), ("b",), ("c",)])
    assert betti_mod2(points) == [3]
