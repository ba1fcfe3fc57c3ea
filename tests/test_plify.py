import time
import types
from fractions import Fraction

import pytest

from prem.complexes import SimplicialComplex
from prem.errors import BlockedRefinement, DegenerateMap, InputNotInjective, PreconditionError
from prem.generators import cycle_cover, figure_eight_map, fold_path_map, wiggly_figure_eight
from prem.lift import construct_lift_3ptfree
from prem.maps import SemiLinearMap, SimplicialMap
from prem.plify import plify

F = Fraction


def figure_eight_input():
    f = figure_eight_map()
    vals = {v: (F(0),) for v in f.source.vertices}
    vals["n0"] = (F(-1),)
    vals["n4"] = (F(1),)
    return f, SemiLinearMap(f.source, vals)


def two_triangles_onto_one():
    src = SimplicialComplex.from_maximal(
        list("abcdef"), [("a", "b", "c"), ("d", "e", "f")]
    )
    tgt = SimplicialComplex.from_maximal(list("xyz"), [("x", "y", "z")])
    f = SimplicialMap(
        src, tgt, {"a": "x", "b": "y", "c": "z", "d": "x", "e": "y", "f": "z"}
    )
    return src, f


def fold_path_input():
    f = fold_path_map()
    return f, SemiLinearMap(f.source, {"a": (F(-1),), "b": (F(0),), "c": (F(1),)})


def triangle_identity_input():
    tgt = SimplicialComplex.from_maximal(list("xyz"), [("x", "y", "z")])
    ident = SimplicialMap(tgt, tgt, {v: v for v in tgt.vertices})
    return ident, SemiLinearMap(tgt, {v: (F(0),) for v in tgt.vertices})


def flat_triangles_input():
    src, f = two_triangles_onto_one()
    return f, SemiLinearMap(src, {v: (F(1),) if v in "abc" else (F(-1),) for v in src.vertices})


def wedge_input(h=F(9)):
    """Two triangles onto two triangles that share the vertex ``x``, lifted
    to the plane at heights 0 and ``h``."""
    src = SimplicialComplex.from_maximal(list("abcdef"), [("a", "b", "c"), ("d", "e", "f")])
    tgt = SimplicialComplex.from_maximal(list("xyzuw"), [("x", "y", "z"), ("x", "u", "w")])
    f = SimplicialMap(src, tgt, {"a": "x", "b": "y", "c": "z", "d": "x", "e": "u", "f": "w"})
    vals = {"a": (0, 0), "b": (1, 0), "c": (0, 0), "d": (0, h), "e": (1, h), "f": (0, h)}
    return f, SemiLinearMap(src, {v: tuple(map(F, x)) for v, x in vals.items()})


def test_figure_eight_cascade_trace():
    # The pair (n0, n4) over w has sep 4; its four edges rise by 1, so
    # Lambda_p = 1 / 2 and r_p = 4 / (16 / 2) = 1 / 2.  n = ceil(sqrt(2 / r_p))
    # = 2 cuts the four base edges at w in half, and no other edge: the
    # eight-cycle gains four vertices, and every refined edge keeps an
    # original vertex, so stage 1 measures nothing.
    f, g = figure_eight_input()
    res = plify(f, g)
    s0, s1 = res.stages
    assert (s0.stage, s0.pair_count, s0.cuts_added) == (0, 1, 4)
    assert s0.d_max_sq == F(4) and s0.separation_sq == F(4)
    assert s0.lambda_sq == F(1, 2)
    assert s0.r_nominal_sq == F(2) and s0.r_applied_sq == F(1, 2)
    assert (s0.w_simplices, s0.b_simplices) == (16, 15)
    assert (s1.stage, s1.pair_count, s1.cuts_added) == (1, 0, 0)
    assert (s1.w_simplices, s1.b_simplices) == (24, 23)
    assert res.refined_map.source.f_vector() == (12, 12)
    assert res.derived_complex.f_vector() == (24, 24)
    assert res.ok
    assert res.vertex_agreement and res.hulls_disjoint and res.verification.ok
    assert [(h.pair, h.disjoint) for h in res.hull_evidence] == [(("n0", "n4"), True)]
    # The derived lift still takes the input values at the original vertices.
    assert res.derived_lift.values["n0"] == (F(-1),)
    assert res.derived_lift.values["n4"] == (F(1),)


def test_fold_path_cascade_trace():
    # Stage 0: (a, c) over x has sep 4 and Lambda_p = 1 / 2, so r_p = 1 / 2
    # and the one base edge is cut at 1 / 2 from x; y carries no pair.
    # Stage 1: the two cut vertices have sep 1 and Lambda_p = 1 / 2, so
    # r_p = 1 / 8, but both pieces are end pieces and stay whole.
    res = plify(*fold_path_input())
    s0, s1 = res.stages
    assert (s0.pair_count, s0.cuts_added, s0.w_simplices, s0.b_simplices) == (1, 1, 5, 3)
    assert s0.r_applied_sq == F(1, 2)
    assert (s1.pair_count, s1.cuts_added, s1.w_simplices, s1.b_simplices) == (1, 0, 9, 5)
    assert s1.d_max_sq == F(1) and s1.separation_sq == F(1)
    assert s1.r_nominal_sq == F(1, 2) and s1.r_applied_sq == F(1, 8)
    assert res.refined_map.source.f_vector() == (5, 4)
    assert res.derived_complex.f_vector() == (9, 8)
    assert res.ok
    # Stage-1 protection keeps the stage-0 cut vertices in place: every pair
    # in the evidence is certified disjoint.
    assert all(h.disjoint for h in res.hull_evidence)
    assert len(res.hull_evidence) == 2


def test_wiggly_figure_eight_no_cuts_needed():
    # The edges at n4 rise by 3 / 8, the steepest of the four edges at n0
    # and n4, so Lambda_p = (9 / 64) / 2 = 9 / 128 and r_p = 4 / (16 * 9 /
    # 128) = 32 / 9.  Then n = ceil(sqrt(2 / r_p)) = 1: each edge at w is
    # already within the radius.
    f, g = wiggly_figure_eight()
    res = plify(f, g)
    s0, s1 = res.stages
    assert s0.lambda_sq == F(9, 128)
    assert s0.r_nominal_sq == F(128, 9) and s0.r_applied_sq == F(32, 9)
    assert (s0.cuts_added, s1.cuts_added) == (0, 0)
    assert (s0.w_simplices, s0.b_simplices) == (64, 63)
    assert res.refined_map.source.f_vector() == (32, 32)
    assert res.derived_complex.f_vector() == (64, 64)
    assert res.ok


def test_cycle_cover_2_3_cascade_trace():
    # The lift -k 2 values: n0..n2 at (-1, -1), (-2, -4), (-3, -9) and
    # n3..n5 at the negatives.  An edge's Lambda is |dg|^2 / 2: 5 on n0n1 and
    # n3n4, 13 on n1n2 and n4n5, 58 on n2n3 and n5n0.
    f = cycle_cover(2, 3)
    res = plify(f, construct_lift_3ptfree(f, 2).lift)
    s0, s1 = res.stages
    # Stage 0: (n0, n3) has sep 8 and Lambda_p 58, r_p = 1 / 116; (n1, n4)
    # 80 and 13, r_p = 5 / 13; (n2, n5) 360 and 58, r_p = 45 / 116.  So
    # n = 16 at b0 and 3 at b1 and b2: each base edge gets two cuts, at
    # 1 / 16 and 2 / 3 on b0b1 and b0b2, at 1 / 3 and 2 / 3 on b1b2.
    assert (s0.pair_count, s0.cuts_added, s0.w_simplices, s0.b_simplices) == (3, 6, 12, 6)
    assert (s0.d_max_sq, s0.separation_sq, s0.lambda_sq) == (F(360), F(8), F(58))
    assert (s0.r_nominal_sq, s0.r_applied_sq) == (F(1, 29), F(1, 116))
    # Stage 1: six cut-vertex pairs and three interior-piece pairs.  Over
    # b0b2 the difference (2 - 8t, 2 - 20t) comes closest to 0 at t = 7 / 58
    # inside the piece [1 / 16, 2 / 3]: sep 36 / 29, Lambda_p 58, r_p =
    # 9 / 6728, so the piece of length 29 / 48 is cut into 24 parts.  Over
    # b0b1 the piece's smallest radius is 65 / 512 (sep 325 / 32 at t = 1 /
    # 16, Lambda_p 5), so 3 parts; over b1b2 the piece [1 / 3, 2 / 3] is
    # within 13 / 18 and stays whole.  The largest sep is 2192 / 9, at t =
    # 2 / 3 on b1b2.
    assert (s1.pair_count, s1.cuts_added, s1.w_simplices, s1.b_simplices) == (9, 25, 36, 18)
    assert (s1.d_max_sq, s1.separation_sq, s1.lambda_sq) == (F(2192, 9), F(36, 29), F(58))
    assert (s1.r_nominal_sq, s1.r_applied_sq) == (F(9, 1682), F(9, 6728))
    # 3 + 31 base edges, each covered twice.
    assert res.refined_map.target.f_vector() == (34, 34)
    assert res.refined_map.source.f_vector() == (68, 68)
    assert res.derived_complex.f_vector() == (136, 136)
    assert len(res.hull_evidence) == 34
    assert res.ok


@pytest.mark.parametrize(
    "make",
    [
        figure_eight_input,
        fold_path_input,
        wiggly_figure_eight,
        triangle_identity_input,
        flat_triangles_input,
        wedge_input,
    ],
)
def test_stage_cells_count_the_measured_complex(make):
    # Stage 0 measures the input map and stage i what stage i-1 left; the
    # last stage leaves the refined map.  A stage that refines nothing
    # leaves what it measured.
    f, g = make()
    res = plify(f, g)
    measured = [(t.w_simplices, t.b_simplices) for t in res.stages]
    assert measured[0] == (len(f.source.simplices), len(f.target.simplices))
    refined = res.refined_map
    left = measured[1:] + [(len(refined.source.simplices), len(refined.target.simplices))]
    for t, before, after in zip(res.stages, measured, left):
        assert (after == before) == (t.cuts_added == 0)


def test_barycentric_rounds_stop_at_the_budget():
    # Five rounds would leave 15 552 triangles; the fifth is refused before
    # it runs, after four rounds that take well under a second.
    f, g = wedge_input(F(1))
    start = time.perf_counter()
    with pytest.raises(BlockedRefinement, match="round 5 would leave 15552 top simplices"):
        plify(f, g)
    assert time.perf_counter() - start < 1


def test_positions_map_back_to_source():
    f, g = figure_eight_input()
    res = plify(f, g)
    src = f.source
    for v, bp in res.positions.items():
        assert set(bp.support) <= set(src.vertices)
        assert sum(bp.coords) == F(1)


def test_wraparound_crossing_rejected():
    # A lift graded around the covering circle collides with itself halfway
    # around, so the combined map is not injective.
    f = cycle_cover(2, 4)
    g = SemiLinearMap(f.source, {f"n{i}": (F(i),) for i in range(8)})
    with pytest.raises(InputNotInjective):
        plify(f, g)


def test_zero_separation_rejected():
    # One wording names a zero vertex pair, on graphs and above.
    f = cycle_cover(2, 4)
    g = SemiLinearMap(f.source, {v: (F(0),) for v in f.source.vertices})
    with pytest.raises(InputNotInjective) as graph:
        plify(f, g)
    assert str(graph.value) == "identified simplices (('n0',), ('n4',)) carry equal lift values"
    src, f = two_triangles_onto_one()
    vals = {"a": 1, "b": 0, "c": 2, "d": -1, "e": 0, "f": -2}
    with pytest.raises(InputNotInjective) as surface:
        plify(f, SemiLinearMap(src, {v: (F(x),) for v, x in vals.items()}))
    assert str(surface.value) == "identified simplices (('b',), ('e',)) carry equal lift values"


def test_lift_values_must_cover_source():
    f = fold_path_map()
    wrong = SemiLinearMap(f.target, {v: (F(0),) for v in f.target.vertices})
    with pytest.raises(PreconditionError):
        plify(f, wrong)


def test_degenerate_map_rejected():
    src = SimplicialComplex.from_maximal(["a", "b"], [("a", "b")])
    tgt = SimplicialComplex.from_maximal(["x"], [("x",)])
    f = SimplicialMap(src, tgt, {"a": "x", "b": "x"})
    with pytest.raises(DegenerateMap):
        plify(f, SemiLinearMap(src, {"a": (F(0),), "b": (F(1),)}))


def test_surface_identity_passes():
    res = plify(*triangle_identity_input())
    assert res.ok
    # One stage per dimension, none needing cuts.
    assert [s.stage for s in res.stages] == [0, 1, 2]
    assert all(s.cuts_added == 0 for s in res.stages)


def test_surface_pair_with_flat_lift_passes():
    res = plify(*flat_triangles_input())
    assert res.ok
    assert res.verification.ok and res.vertex_agreement


def test_surface_varying_lift_blocks():
    # Identification strata of positive dimension would need local cuts that
    # a global barycentric scheme cannot provide while keeping f simplicial.
    src, f = two_triangles_onto_one()
    vals = {
        "a": (F(-1),),
        "b": (F(-9, 8),),
        "c": (F(-5, 4),),
        "d": (F(1),),
        "e": (F(9, 8),),
        "f": (F(5, 4),),
    }
    with pytest.raises(BlockedRefinement):
        plify(f, SemiLinearMap(src, vals))


def test_plify_submodule_is_not_shadowed():
    """The package exports ``PlifyResult`` but not the function ``plify``,
    so the name ``prem.plify`` stays the submodule."""
    import prem.plify as m

    assert isinstance(m, types.ModuleType)
    assert m.plify is plify
