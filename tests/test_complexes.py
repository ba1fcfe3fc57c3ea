from fractions import Fraction

import pytest

from prem import linalg
from prem.complexes import InvolutionComplex, SimplicialComplex
from prem.errors import ComplexError
from prem.generators import cross_polytope_boundary
from prem.subdivision import barycentric_subdivide

from conftest import euler_characteristic, torus_7, triangle_complex

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
    near = oct_complex.closed_star_vertices("n")
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


def _octahedron_images():
    """The antipodal octahedron, its involution, a copy of its simplex
    images, and two triangles from different orbits."""
    ic = cross_polytope_boundary(2)
    a, b = [s for s in ic.complex.simplices_of_dim(2) if "p0" in s][:2]
    assert ic.simplex_images()[a] != b
    return ic.complex, ic.involution, dict(ic.simplex_images()), a, b


def test_supplied_simplex_images_are_accepted():
    cx, t, images, _, _ = _octahedron_images()
    ic = InvolutionComplex(cx, t, images=images)
    assert ic.simplex_images() is images
    assert not ic.fixed_simplices()


def test_swapped_images_rejected():
    cx, t, images, a, b = _octahedron_images()
    images[a], images[b] = images[b], images[a]
    with pytest.raises(ComplexError, match="pair up"):
        InvolutionComplex(cx, t, images=images)


@pytest.mark.parametrize("how", ["fixed", "crossed"])
def test_paired_images_that_are_not_the_involution_rejected(how):
    cx, t, images, a, b = _octahedron_images()
    a2, b2 = images[a], images[b]
    if how == "fixed":
        images[a], images[a2] = a, a2
    else:
        images[a], images[b2], images[b], images[a2] = b2, a, a2, b
    with pytest.raises(ComplexError, match="is not the image of simplex"):
        InvolutionComplex(cx, t, images=images)


def test_missing_image_rejected():
    cx, t, images, a, _ = _octahedron_images()
    del images[a]
    with pytest.raises(ComplexError, match="exactly the simplices"):
        InvolutionComplex(cx, t, images=images)


def test_image_outside_the_complex_rejected():
    cx, t, images, a, _ = _octahedron_images()
    images[a] = ("p0", "p1", "m0")
    # The partner of ``a`` no longer pairs up either; set order decides
    # which of the two faults is reported.
    with pytest.raises(ComplexError, match="is not a simplex|do not pair up"):
        InvolutionComplex(cx, t, images=images)
