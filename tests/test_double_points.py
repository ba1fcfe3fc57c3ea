import re

import pytest

from prem import mod2
from prem.complexes import SimplicialComplex
from prem.double_points import (
    check_star_condition,
    double_point_model,
    identified_vertex_pairs,
)
from prem.errors import DegenerateMap, ModelInvalid
from prem.generators import cycle_cover, figure_eight_map, fold_path_map
from prem.lift import build_closure_model
from prem.maps import SimplicialMap

from conftest import closure_model, fixed_simplices, pair_complex, walked_cells


def test_identified_pairs_triple_cover():
    f = cycle_cover(3, 3)
    pairs = identified_vertex_pairs(f)
    # Nine source vertices in orbits of three: 6 ordered pairs per orbit.
    assert len(pairs) == 18
    assert ("n0", "n3") in pairs and ("n3", "n0") in pairs
    assert all(u != v for u, v in pairs)


def test_star_condition_on_covers():
    assert check_star_condition(cycle_cover(3, 3)) == []
    assert check_star_condition(cycle_cover(2, 4)) == []


def test_star_condition_violation():
    # Map both endpoints of a path onto one edge endpoint pairwise: the path
    # a-b-c with a,c identified has neighboring stars through b.
    src = SimplicialComplex.from_maximal(["a", "b", "c"], [("a", "b"), ("b", "c")])
    tgt = SimplicialComplex.from_maximal(["x", "y"], [("x", "y")])
    f = SimplicialMap(src, tgt, {"a": "x", "b": "y", "c": "x"})
    assert check_star_condition(f) == [("a", "c"), ("c", "a")]


def test_pair_model_triple_cover():
    model = double_point_model(cycle_cover(3, 3))
    assert model.subdivision_rounds == 0
    assert model.complex.f_vector() == (18, 18)
    assert model.cell_counts == (9, 9)
    assert model.invariant_flags == [False, False]


def test_pair_model_double_cover():
    model = double_point_model(cycle_cover(2, 4))
    assert model.subdivision_rounds == 0
    assert model.complex.f_vector() == (8, 8)
    assert model.cell_counts == (4, 4)
    assert model.invariant_flags == [True]


def test_pair_model_cells_are_disjoint_pairs():
    model = double_point_model(cycle_cover(2, 4))
    for e in model.complex.simplices_of_dim(1):
        (u1, v1), (u2, v2) = e
        assert {u1, u2}.isdisjoint({v1, v2})
        # Edges project to genuine source edges on both coordinates.
        src = model.map.source
        assert src.canon((u1, u2)) in src.simplices
        assert src.canon((v1, v2)) in src.simplices


def test_involution_is_free_and_swaps():
    model = double_point_model(cycle_cover(3, 3))
    t = model.involution
    for (u, v) in model.complex.vertices:
        assert t[(u, v)] == (v, u)
        assert t[(u, v)] != (u, v)
    assert fixed_simplices(pair_complex(model)) == []


def test_degenerate_map_rejected():
    src = SimplicialComplex.from_maximal(["a", "b"], [("a", "b")])
    tgt = SimplicialComplex.from_maximal(["x"], [("x",)])
    f = SimplicialMap(src, tgt, {"a": "x", "b": "x"})
    with pytest.raises(DegenerateMap):
        double_point_model(f)


def test_fold_stays_unmodellable():
    # The fold vertex b neighbours both a and c, which share an image; no
    # subdivision repairs that, and the error names the input's vertices.
    with pytest.raises(ModelInvalid, match=re.escape("violations: [('a', 'c'), ('c', 'a')])")):
        double_point_model(fold_path_map())


def test_figure_eight_single_double_point():
    # The two passages through the wedge image lie on different source
    # circles, so their stars are already disjoint: the pair space is two
    # swapped points over the one transverse double point.
    model = double_point_model(figure_eight_map())
    assert model.subdivision_rounds == 0
    assert model.complex.f_vector() == (2,)
    assert model.dim == 0
    assert model.invariant_flags == [False, False]


def test_closure_model_of_a_cover_is_its_pair_model():
    # A covering map folds nothing, so the closure model adds no diagonal
    # to the pair model, and both have the same pair cells; the lift walks
    # the same model.
    f = cycle_cover(2, 5)
    model = double_point_model(f)
    assert model.complex.f_vector() == (10, 10)
    assert fixed_simplices(pair_complex(model)) == []
    closure = closure_model(f)
    assert closure.diagonal_vertices == []
    assert closure.complex == model.complex
    walked = build_closure_model(f)
    assert walked.fold_vertices == set()
    assert walked.complex == model.complex


def test_streamed_sheet_check_rejects_damaged_sheets():
    # Two circles that the swap exchanges; the check reads the walked
    # 1-cells, as the verdict does.
    model = double_point_model(cycle_cover(3, 3))
    t = model.involution
    sheet = mod2.sheet_split(model.components, t)

    def passes(candidate):
        return mod2.is_sheet_split(t, model.vertices, model.edges(), candidate)

    assert passes(sheet)
    for v in model.vertices:
        # One orbit flipped: every orbit is still split, but each edge at
        # ``v`` now has one end on either side.
        assert not passes(sheet ^ {v, t[v]})
    for cell in walked_cells(model):
        # A whole cell moved across: the edges next to it are split.
        moved = {w for v in cell for w in (v, t[v])}
        assert not passes(sheet ^ moved)
    v = model.vertices[0]
    assert not passes(sheet | {t[v]})
    assert not passes(sheet - {v, t[v]})
