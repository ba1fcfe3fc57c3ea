from fractions import Fraction

import pytest

from prem.errors import MapError
from prem.generators import cycle_cover, fold_path_map
from prem.maps import SemiLinearMap, SimplicialMap

from conftest import complex_from_facets

F = Fraction


def test_cycle_cover_is_simplicial_and_nondegenerate():
    f = cycle_cover(3, 3)
    assert f.source.f_vector() == (9, 9)
    assert f.target.f_vector() == (3, 3)
    assert f.is_non_degenerate()
    assert f.degenerate_edges() == []


def test_cycle_cover_edge_carriers():
    # Each source edge {i, i+1} lands on the target edge {i mod 3, (i+1) mod 3}.
    f = cycle_cover(3, 3)
    for i in range(9):
        s = f.source.canon((f"n{i}", f"n{(i + 1) % 9}"))
        expected = f.target.canon((f"b{i % 3}", f"b{(i + 1) % 3}"))
        assert f.image_simplex(s) == expected


def test_non_simplicial_vertex_map_rejected():
    src = complex_from_facets([("a", "b")])
    tgt = complex_from_facets([("x", "y"), ("z",)])
    with pytest.raises(MapError):
        SimplicialMap(src, tgt, {"a": "x", "b": "z"})


def test_degenerate_map_detected():
    f = fold_path_map()
    assert f.is_non_degenerate()
    src = complex_from_facets([("a", "b")])
    tgt = complex_from_facets([("x", "y")])
    g = SimplicialMap(src, tgt, {"a": "x", "b": "x"})
    assert not g.is_non_degenerate()
    assert g.degenerate_edges() == [("a", "b")]


def test_matched_bijection_on_cover():
    f = cycle_cover(2, 4)
    s = f.source.canon(("n0", "n1"))
    t = f.source.canon(("n4", "n5"))
    match = f.matched_bijection(s, t)
    assert match == {"n0": "n4", "n1": "n5"}
    assert f.matched_bijection(s, f.source.canon(("n1", "n2"))) is None


def test_fibers_partition_source():
    f = cycle_cover(3, 3)
    fib = f.fibers()
    total = sum(len(v) for v in fib.values())
    assert total == len(f.source.simplices)
    assert all(len(v) == 3 for v in fib.values())


def test_semi_linear_carrier_and_values():
    f = fold_path_map()
    g = SemiLinearMap(f.source, {"a": (F(0),), "b": (F(1),), "c": (F(2),)})
    assert g.out_dim == 1
    assert g.values["c"] == (F(2),)
