from hypothesis import given, settings
from hypothesis import strategies as st

from prem.gf2 import betti_mod2, _boundary_rank, row_basis

from conftest import complex_from_facets, octahedron, projective_plane_6, solve_gf2, torus_7


def pack(bits) -> int:
    return sum(1 << i for i, b in enumerate(bits) if b & 1)


def unpack(x: int, ncols: int) -> list:
    return [(x >> i) & 1 for i in range(ncols)]


def solvable(rows, rhs) -> bool:
    """Whether ``rows . x = rhs`` has a solution, asked the library's way:
    the right-hand side in bit 0, the columns above it, and no combination
    of the rows equal to the bare bit 0."""
    return 0 not in row_basis((bit & 1) | mask << 1 for mask, bit in zip(rows, rhs))


def test_pack_unpack_roundtrip():
    bits = [1, 0, 1, 1, 0]
    assert unpack(pack(bits), 5) == bits
    assert pack([]) == 0
    assert unpack(0, 3) == [0, 0, 0]


def test_rank_examples():
    # Rows 101, 011, 110: third is the sum of the first two.  The second
    # shares the first's highest bit and is kept reduced by it.
    rows = [pack([1, 0, 1]), pack([0, 1, 1]), pack([1, 1, 0])]
    assert row_basis(rows) == {2: pack([1, 0, 1]), 1: pack([1, 1, 0])}
    assert row_basis([]) == {}
    assert row_basis([0, 0]) == {}
    assert len(row_basis([pack([1, 1]), pack([0, 1])])) == 2


def test_solve_consistent():
    # x0 + x1 = 1, x1 + x2 = 1, x0 + x2 = 0 has solution (0, 1, 0).
    rows = [pack([1, 1, 0]), pack([0, 1, 1]), pack([1, 0, 1])]
    assert solvable(rows, [1, 1, 0])
    sol = pack([0, 1, 0])
    for mask, bit in zip(rows, [1, 1, 0]):
        assert bin(mask & sol).count("1") % 2 == bit
    # Flipping one right-hand side breaks the sum of all three equations.
    assert not solvable(rows, [1, 1, 1])


def test_solve_inconsistent():
    # x0 = 0 and x0 = 1 cannot both hold.
    assert not solvable([1, 1], [0, 1])
    assert solvable([1, 1], [1, 1])
    # A zero row with right-hand side 1 is the bare bit itself.
    assert not solvable([0], [1])


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
    """The oracle solver solves exactly the systems whose augmented rows
    have the rank of the rows, and its solutions check."""
    rows, rhs, ncols = system
    sol = solve_gf2(rows, rhs, ncols)
    augmented = [mask | (bit << ncols) for mask, bit in zip(rows, rhs)]
    inconsistent = len(row_basis(augmented)) > len(row_basis(rows))
    assert (sol is None) == inconsistent
    if sol is not None:
        assert 0 <= sol < 1 << ncols
        for mask, bit in zip(rows, rhs):
            assert (mask & sol).bit_count() % 2 == bit


@settings(deadline=None, max_examples=300)
@given(gf2_systems())
def test_row_basis_decides_what_the_oracle_solves(system):
    """Bit 0 in the span of the packed system is exactly the oracle's
    inconsistency; every basis row's pivot is its highest bit, and the
    basis spans the rows."""
    rows, rhs, ncols = system
    assert solvable(rows, rhs) == (solve_gf2(rows, rhs, ncols) is not None)
    basis = row_basis(rows)
    assert all(row.bit_length() - 1 == p for p, row in basis.items())
    assert len(row_basis([*basis.values(), *rows])) == len(basis)


def test_boundary_ranks_triangle():
    c = complex_from_facets([("a", "b", "c")])
    # Three edges map onto a 2-dimensional cycle space complement.
    assert _boundary_rank(c, 1) == 2
    assert _boundary_rank(c, 2) == 1
    assert _boundary_rank(c, 0) == 0
    assert _boundary_rank(c, 3) == 0


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
