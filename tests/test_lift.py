from fractions import Fraction

import pytest

from prem.complexes import InvolutionComplex, SimplicialComplex
from prem.errors import (
    CertificationError,
    DegenerateMap,
    NotSimpleFold,
    PreconditionError,
    TriplePointsPresent,
)
from prem.generators import cycle_complex, cycle_cover, figure_eight_map, fold_path_map
from prem.lift import (
    StarBoundary,
    build_closure_model,
    closure_witness,
    construct_lift_3ptfree,
    fold_locus,
    has_triple_points,
    is_simple_fold,
    isovariant_pl_approximation,
)
from prem.maps import SimplicialMap
from prem.obstruction import certify_witness

F = Fraction


def zigzag_map() -> SimplicialMap:
    """Path folded twice, so identified vertices land on the fold locus."""
    src = SimplicialComplex.from_maximal(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]
    )
    tgt = SimplicialComplex.from_maximal(["x", "y"], [("x", "y")])
    return SimplicialMap(src, tgt, {"a": "x", "b": "y", "c": "x", "d": "y"})


def octagon_involution():
    c = cycle_complex(8)
    t = {f"n{i}": f"n{(i + 4) % 8}" for i in range(8)}
    return InvolutionComplex(c, t)


def test_fold_locus():
    assert [s for s in fold_locus(fold_path_map()).simplices] == [("b",)]
    assert fold_locus(cycle_cover(3, 3)).simplices == frozenset()
    assert set(fold_locus(zigzag_map()).simplices) == {("b",), ("c",)}


def test_triple_point_detection():
    triple = has_triple_points(cycle_cover(3, 3))
    assert triple == (("n0",), ("n3",), ("n6",))
    assert has_triple_points(cycle_cover(2, 4)) is None
    assert has_triple_points(figure_eight_map()) is None
    assert has_triple_points(fold_path_map()) is None


def test_simple_fold_flag():
    ok, bad = is_simple_fold(fold_path_map())
    assert ok and bad == []
    ok, bad = is_simple_fold(zigzag_map())
    assert not ok
    assert ("a", "c") in bad


def test_closure_model_fold_path():
    closure = build_closure_model(fold_path_map())
    assert set(closure.off_diagonal_vertices) == {("a", "c"), ("c", "a")}
    assert closure.diagonal_vertices == [("b", "b")]
    # Two mirror cells glued along the diagonal fold vertex.
    assert set(closure.complex.simplices_of_dim(1)) == {
        (("a", "c"), ("b", "b")),
        (("b", "b"), ("c", "a")),
    }


def test_closure_witness_certifies():
    closure = build_closure_model(fold_path_map())
    alpha = closure_witness(closure, 1)
    ok, evidence = certify_witness(closure.pair_complex, 1, alpha)
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


def test_isovariant_certified_without_refinement():
    ic = octagon_involution()
    octagon = {
        "n0": (F(1), F(0)),
        "n1": (F(1), F(1)),
        "n2": (F(0), F(1)),
        "n3": (F(-1), F(1)),
    }
    values = dict(octagon)
    for i in range(4):
        values[f"n{i + 4}"] = tuple(-x for x in octagon[f"n{i}"])
    res = isovariant_pl_approximation(ic, values)
    assert res.bisections == 0
    assert not res.refined
    assert res.values == {v: tuple(values[v]) for v in values}


def test_isovariant_impossible_assignment_hits_budget():
    # One-dimensional antipodal values on the nontrivial double cover of the
    # circle must cross zero somewhere; no refinement can separate that.
    ic = octagon_involution()
    values = {f"n{i}": (F(1),) if i < 4 else (F(-1),) for i in range(8)}
    with pytest.raises(CertificationError):
        isovariant_pl_approximation(ic, values, max_bisections=8)


def test_isovariant_preconditions():
    ic = octagon_involution()
    good = {f"n{i}": (F(1),) if i < 4 else (F(-1),) for i in range(8)}
    broken = dict(good)
    broken["n0"] = (F(2),)  # no longer the negative of its partner
    with pytest.raises(PreconditionError):
        isovariant_pl_approximation(ic, broken)
    zeroed = dict(good)
    zeroed["n0"] = (F(0),)
    zeroed["n4"] = (F(0),)
    with pytest.raises(PreconditionError):
        isovariant_pl_approximation(ic, zeroed)
    seg = SimplicialComplex.from_maximal(["a", "b"], [("a", "b")])
    invariant_edge = InvolutionComplex(seg, {"a": "b", "b": "a"})
    with pytest.raises(PreconditionError):
        isovariant_pl_approximation(invariant_edge, {"a": (F(1),), "b": (F(-1),)})


def test_isovariant_evaluator_antipodality_guard():
    ic = octagon_involution()
    values = {f"n{i}": (F(1),) if i < 4 else (F(-1),) for i in range(8)}
    with pytest.raises(PreconditionError):
        isovariant_pl_approximation(
            ic, values, evaluator=lambda bp: (F(1),), max_bisections=8
        )
