"""Shared builders for the test suite."""

from fractions import Fraction

import pytest

from prem import mod2
from prem.complexes import SimplicialComplex


def F(x) -> Fraction:
    return Fraction(x)


def euler_characteristic(c: SimplicialComplex) -> int:
    return sum((-1) ** (len(s) - 1) for s in c.simplices)


def regularity_failures(cx: SimplicialComplex, action: dict, order: int) -> list:
    """The R1/R2 failures of the orbit map of a cyclic action; empty when
    the orbit map of simplices yields a simplicial complex."""
    return mod2._regularity(*mod2._ranked(cx, action), order, cx.vertices)[0]


def walked_cells(model) -> list:
    """The cell of ``(s, t)`` for every pair ``{s, t}`` a pair model walks;
    the cell of ``(t, s)``, its swap image, is not listed."""
    return [tuple(zip(a, b)) for _, _, a, b in model.aligned_pairs()]


def complex_from_facets(facets):
    vertices = []
    seen = set()
    for s in facets:
        for v in s:
            if v not in seen:
                seen.add(v)
                vertices.append(v)
    return SimplicialComplex.from_maximal(sorted(vertices, key=str), facets)


def octahedron() -> SimplicialComplex:
    """Boundary of the 3-dimensional cross-polytope: a 2-sphere."""
    facets = [
        (a, b, c)
        for a in ("n", "s")
        for b in ("a", "c")
        for c in ("b", "d")
    ]
    return SimplicialComplex.from_maximal(["n", "s", "a", "b", "c", "d"], facets)


def torus_7() -> SimplicialComplex:
    """Moebius-Kantor 7-vertex triangulation of the torus."""
    facets = []
    for i in range(7):
        facets.append((i, (i + 1) % 7, (i + 3) % 7))
        facets.append((i, (i + 1) % 7, (i + 5) % 7))
    return SimplicialComplex.from_maximal(list(range(7)), facets)


def projective_plane_6() -> SimplicialComplex:
    """Six-vertex triangulation of the real projective plane."""
    facets = [
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 5),
        (1, 4, 6),
        (1, 5, 6),
        (2, 3, 6),
        (2, 4, 5),
        (2, 5, 6),
        (3, 4, 5),
        (3, 4, 6),
    ]
    return SimplicialComplex.from_maximal([1, 2, 3, 4, 5, 6], facets)


def segment_complex():
    return SimplicialComplex.from_maximal(["a", "b"], [("a", "b")])


def triangle_complex():
    return SimplicialComplex.from_maximal(["a", "b", "c"], [("a", "b", "c")])


@pytest.fixture
def oct_complex():
    return octahedron()
