from fractions import Fraction

import pytest

from prem.complexes import SimplicialComplex
from prem.errors import (
    DegenerateMap,
    NotSimpleFold,
    PreconditionError,
    TriplePointsPresent,
)
from prem.generators import cycle_cover, figure_eight_map, fold_path_map
from prem import lift
from prem.double_points import DoublePointModel
from prem.lift import (
    StarBoundary,
    build_closure_model,
    closure_witness,
    construct_lift_3ptfree,
    has_triple_points,
    is_simple_fold,
)
from prem.maps import SimplicialMap
from prem.obstruction import certify_witness

from conftest import closure_model, fold_locus

F = Fraction


def zigzag_map() -> SimplicialMap:
    """Path folded twice, so identified vertices land on the fold locus."""
    src = SimplicialComplex.from_maximal(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]
    )
    tgt = SimplicialComplex.from_maximal(["x", "y"], [("x", "y")])
    return SimplicialMap(src, tgt, {"a": "x", "b": "y", "c": "x", "d": "y"})


def test_fold_locus():
    """The oracle's fold locus, and the model's fold vertices: those that
    its skipped pairs share."""
    assert [s for s in fold_locus(fold_path_map()).simplices] == [("b",)]
    assert fold_locus(cycle_cover(3, 3)).simplices == frozenset()
    assert set(fold_locus(zigzag_map()).simplices) == {("b",), ("c",)}
    assert DoublePointModel(fold_path_map()).fold_vertices == {"b"}
    assert DoublePointModel(cycle_cover(3, 3)).fold_vertices == set()
    assert DoublePointModel(zigzag_map()).fold_vertices == {"b", "c"}


def test_triple_point_detection():
    triple = has_triple_points(cycle_cover(3, 3))
    assert triple == (("n0",), ("n3",), ("n6",))
    assert has_triple_points(cycle_cover(2, 4)) is None
    assert has_triple_points(figure_eight_map()) is None
    assert has_triple_points(fold_path_map()) is None


def test_simple_fold_flag():
    ok, bad = is_simple_fold(DoublePointModel(fold_path_map()))
    assert ok and bad == []
    ok, bad = is_simple_fold(DoublePointModel(zigzag_map()))
    assert not ok
    assert ("a", "c") in bad


def test_lift_finds_the_fold_locus_and_the_fibres_once(monkeypatch):
    """One pair model, which finds the fold vertices too, per lift."""
    f = fold_path_map()
    calls = []
    real = lift.DoublePointModel
    monkeypatch.setattr(lift, "DoublePointModel", lambda g: calls.append(g) or real(g))
    res = construct_lift_3ptfree(f, 1)
    assert calls == [f]
    assert res.model.fold_vertices == {"b"}
    assert f.fibers() is f.fibers()


def test_closure_model_fold_path():
    closure = closure_model(fold_path_map())
    assert set(closure.off_diagonal_vertices) == {("a", "c"), ("c", "a")}
    assert closure.diagonal_vertices == [("b", "b")]
    # Two mirror cells glued along the diagonal fold vertex.
    assert set(closure.complex.simplices_of_dim(1)) == {
        (("a", "c"), ("b", "b")),
        (("b", "b"), ("c", "a")),
    }
    # Without the diagonal, two swapped points: the walked model.
    model = build_closure_model(fold_path_map())
    assert model.vertices == [("a", "c"), ("c", "a")]
    assert (model.dim, model.cell_counts) == (0, (1,))
    assert model.components == [{("a", "c")}, {("c", "a")}]
    assert model.components == closure.off_diagonal().connected_components()


def test_closure_witness_certifies():
    model = build_closure_model(fold_path_map())
    alpha = closure_witness(model, 1)
    ok, evidence = certify_witness(model, 1, alpha)
    assert ok
    assert alpha[("a", "c")] == tuple(-x for x in alpha[("c", "a")])


def test_lift_fold_path():
    res = construct_lift_3ptfree(fold_path_map(), 1)
    g = res.lift.values
    assert g["b"] == (F(0),)
    assert g["a"] == tuple(-x for x in g["c"])
    assert g["a"] != (F(0),)
    assert res.verification.ok
    assert res.homotopy_certified
    assert any("moment-curve" in note for note in res.notes)


def test_lift_figure_eight():
    res = construct_lift_3ptfree(figure_eight_map(), 1)
    g = res.lift.values
    assert g["n0"] == (F(-1),)
    assert g["n4"] == (F(1),)
    for v in ("n1", "n2", "n3", "n5", "n6", "n7"):
        assert g[v] == (F(0),)
    assert res.verification.ok
    assert res.homotopy_certified
    assert all(flag for _, flag, _ in res.homotopy_evidence)


def test_lift_by_sheet_split_when_moment_curve_fails():
    # Two disjoint edges of cycle-cover 2 3, declared so that the moment
    # curve puts equal signs on pairs that share a source vertex.  The pair
    # model is a trivial double cover (Yang index 0), so a lift exists.
    f = cycle_cover(2, 3)
    src = SimplicialComplex.from_maximal(["n0", "n2", "n3", "n5"], [("n0", "n5"), ("n2", "n3")])
    g = SimplicialMap(src, f.target, {v: f.vertex_map[v] for v in src.vertices})
    res = construct_lift_3ptfree(g, 1)
    assert res.notes == ["witness: sheet split"]
    assert {val for val in res.witness.values()} == {(F(1),), (F(-1),)}
    assert res.verification.ok
    assert res.homotopy_certified


def test_lift_gates():
    with pytest.raises(TriplePointsPresent):
        construct_lift_3ptfree(cycle_cover(3, 3), 1)
    with pytest.raises(NotSimpleFold):
        construct_lift_3ptfree(zigzag_map(), 1)
    with pytest.raises(PreconditionError):
        construct_lift_3ptfree(fold_path_map(), 0)
    src = SimplicialComplex.from_maximal(["a", "b"], [("a", "b")])
    tgt = SimplicialComplex.from_maximal(["x"], [("x",)])
    collapse = SimplicialMap(src, tgt, {"a": "x", "b": "x"})
    with pytest.raises(DegenerateMap):
        construct_lift_3ptfree(collapse, 1)


def test_lift_with_supplied_witness():
    alpha = {("n0", "n4"): (F(2),), ("n4", "n0"): (F(-2),)}
    res = construct_lift_3ptfree(figure_eight_map(), 1, alpha=alpha)
    assert res.lift.values["n4"] == (F(2),)
    assert res.lift.values["n0"] == (F(-2),)
    assert any("supplied, certified" in note for note in res.notes)


def test_lift_rejects_bad_witness():
    # A supplied witness that fails certification is an input fault.
    alpha = {("n0", "n4"): (F(0),), ("n4", "n0"): (F(0),)}
    with pytest.raises(PreconditionError, match="zero-value"):
        construct_lift_3ptfree(figure_eight_map(), 1, alpha=alpha)


def test_lift_reproduces_star_boundary():
    star = StarBoundary(
        SimplicialComplex.from_maximal(["n0", "n4"], [("n0",), ("n4",)]),
        {"n0": (F(-3),), "n4": (F(3),)},
    )
    res = construct_lift_3ptfree(figure_eight_map(), 1, star=star)
    assert res.lift.values["n0"] == (F(-3),)
    assert res.lift.values["n4"] == (F(3),)
    assert res.verification.ok
    assert any("reproduced verbatim" in note for note in res.notes)


def test_star_boundary_must_close_pairs():
    star = StarBoundary(
        SimplicialComplex.from_maximal(["n4"], [("n4",)]), {"n4": (F(3),)}
    )
    with pytest.raises(PreconditionError):
        construct_lift_3ptfree(figure_eight_map(), 1, star=star)


def test_star_boundary_must_follow_witness_direction():
    star = StarBoundary(
        SimplicialComplex.from_maximal(["n0", "n4"], [("n0",), ("n4",)]),
        {"n0": (F(3),), "n4": (F(-3),)},
    )
    with pytest.raises(PreconditionError):
        construct_lift_3ptfree(figure_eight_map(), 1, star=star)
