from fractions import Fraction

from prem.generators import cycle_cover
from prem.subdivision import barycentric_subdivide, barycentric_subdivide_map

from conftest import octahedron, segment_complex, triangle_complex

F = Fraction


def test_barycentric_triangle_counts():
    rec = barycentric_subdivide(triangle_complex())
    assert rec.refined.f_vector() == (7, 12, 6)


def test_barycentric_octahedron_counts():
    rec = barycentric_subdivide(octahedron())
    assert rec.refined.f_vector() == (26, 72, 48)


def test_positions_interpolate_to_base():
    c = triangle_complex()
    rec = barycentric_subdivide(c)
    center = rec.positions[c.canon(("a", "b", "c"))]
    # The barycentre of the whole triangle.
    assert set(center.coord_map().values()) == {F(1, 3)}


def test_record_compose_matches_double_subdivision():
    c = segment_complex()
    rec1 = barycentric_subdivide(c)
    rec2 = barycentric_subdivide(rec1.refined)
    combined = rec1.compose(rec2)
    assert combined.base is c
    assert combined.refined is rec2.refined
    # Spot check: the midpoint of the first half lies at 1/4 in the base.
    quarter = [
        v
        for v in rec2.refined.vertices
        if combined.positions[v].coord_map().get("a") == F(3, 4)
    ]
    assert len(quarter) == 1


def test_barycentric_subdivide_map_stays_simplicial():
    f = cycle_cover(2, 4)
    fm, rec_src, rec_tgt = barycentric_subdivide_map(f)
    assert fm.source.f_vector() == (16, 16)
    assert fm.target.f_vector() == (8, 8)
    assert fm.is_non_degenerate()
    # Refined map projects compatibly with the records.
    for v in fm.source.vertices:
        img = fm.vertex_map[v]
        assert rec_tgt.positions[img].support == tuple(
            sorted(
                {f.vertex_map[u] for u in rec_src.positions[v].support},
                key=lambda w: f.target.rank[w],
            )
        )
