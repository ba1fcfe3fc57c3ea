from fractions import Fraction

import pytest

from prem import linalg
from prem.complexes import SimplicialComplex
from prem.errors import ComplexError
from prem.subdivision import barycentric_subdivide

from conftest import torus_7, triangle_complex

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
    assert oct_complex.euler_characteristic() == 2
    assert oct_complex.is_pure()
    assert oct_complex.is_closed_pseudomanifold()


def test_octahedron_barycentric_counts(oct_complex):
    rec = barycentric_subdivide(oct_complex)
    assert rec.refined.f_vector() == (26, 72, 48)
    assert rec.refined.euler_characteristic() == 2


def test_torus_is_closed_but_not_sphere():
    t = torus_7()
    assert t.f_vector() == (7, 21, 14)
    assert t.euler_characteristic() == 0
    assert t.is_closed_pseudomanifold()


def test_open_surface_not_closed():
    c = triangle_complex()
    assert not c.is_closed_pseudomanifold()


def test_link_of_octahedron_vertex_is_square(oct_complex):
    link = oct_complex.link_subcomplex("n")
    assert link.f_vector() == (4, 4)
    assert link.is_closed_pseudomanifold()


def test_star_subcomplex(oct_complex):
    star = oct_complex.star_subcomplex("n")
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
