from fractions import Fraction

import pytest

from prem import linalg
from prem.complexes import SimplicialComplex
from prem.errors import ComplexError
from prem.subdivision import barycentric_subdivide

from conftest import (
    InvolutionComplex,
    closed_star_vertices,
    euler_characteristic,
    torus_7,
    triangle_complex,
)

F = Fraction


def test_from_maximal_closes_under_faces():
    c = SimplicialComplex.from_maximal(["a", "b", "c"], [("a", "b", "c")])
    assert c.dim == 2
    assert c.f_vector() == (3, 3, 1)
    assert ("a", "b") in c.simplices


def test_vertex_order_is_declaration_order():
    c = SimplicialComplex.from_maximal(["z", "a", "m"], [("z", "a"), ("a", "m")])
    assert c.vertices == ("z", "a", "m")
    assert c.canon(("m", "a")) == ("a", "m")


def test_unknown_vertex_rejected():
    c = triangle_complex()
    with pytest.raises(ComplexError):
        c.canon(("a", "zz"))


def test_octahedron_counts(oct_complex):
    assert oct_complex.f_vector() == (6, 12, 8)
    assert euler_characteristic(oct_complex) == 2
    assert oct_complex.is_pure()
    assert oct_complex.is_closed_pseudomanifold()


def test_octahedron_barycentric_counts(oct_complex):
    rec = barycentric_subdivide(oct_complex)
    assert rec.refined.f_vector() == (26, 72, 48)
    assert euler_characteristic(rec.refined) == 2


def test_torus_is_closed_but_not_sphere():
    t = torus_7()
    assert t.f_vector() == (7, 21, 14)
    assert euler_characteristic(t) == 0
    assert t.is_closed_pseudomanifold()


def test_open_surface_not_closed():
    c = triangle_complex()
    assert not c.is_closed_pseudomanifold()


def test_link_of_octahedron_vertex_is_square(oct_complex):
    link = oct_complex.link_subcomplex("n")
    assert link.f_vector() == (4, 4)
    assert link.is_closed_pseudomanifold()


def test_star_subcomplex(oct_complex):
    # The closed star: the simplices containing ``n`` with all their faces.
    near = closed_star_vertices(oct_complex, "n")
    star = SimplicialComplex.from_maximal(
        [v for v in oct_complex.vertices if v in near], oct_complex.star_simplices("n"))
    assert star.f_vector() == (5, 8, 4)


def test_connected_components():
    c = SimplicialComplex.from_maximal(
        ["a", "b", "c", "d"], [("a", "b"), ("c", "d")]
    )
    comps = c.connected_components()
    assert sorted(sorted(comp) for comp in comps) == [["a", "b"], ["c", "d"]]


def test_maximal_simplices_mixed_dimensions():
    c = SimplicialComplex.from_maximal(
        ["a", "b", "c", "d"], [("a", "b", "c"), ("c", "d")]
    )
    assert c.maximal_simplices() == [("c", "d"), ("a", "b", "c")]


def test_full_subcomplex(oct_complex):
    sub = oct_complex.full_subcomplex({"a", "b", "n"})
    assert sub.f_vector() == (3, 3, 1)


def test_mesh_shrinks_under_barycentric_subdivision():
    c = triangle_complex()
    coords = {"a": (F(0), F(0)), "b": (F(1), F(0)), "c": (F(0), F(1))}
    rec = barycentric_subdivide(c)
    refined_coords = rec.interpolate(coords)

    def mesh_sq(cx, xs):
        return max(linalg.dist_sq(xs[u], xs[v]) for u, v in cx.edges())

    assert mesh_sq(rec.refined, refined_coords) < mesh_sq(c, coords)


# The stored involution complex is a test oracle (``conftest.py``); these
# check its construction-time rejections.


def test_missing_image_rejected():
    c = SimplicialComplex.from_maximal(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(ComplexError, match="defined on every vertex"):
        InvolutionComplex(c, {"a": "c", "c": "a"})


def test_image_outside_the_complex_rejected():
    path = SimplicialComplex.from_maximal(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    with pytest.raises(ComplexError, match="image 'z' is not a vertex"):
        InvolutionComplex(path, {"a": "z", "b": "b", "c": "c", "d": "d"})
    # Swapping the ends of the path moves both end edges off it; the least
    # of them is named, whatever order the simplices are hashed in.
    with pytest.raises(ComplexError, match=r"does not map simplex \('a', 'b'\) to a simplex"):
        InvolutionComplex(path, {"a": "d", "b": "b", "c": "c", "d": "a"})
