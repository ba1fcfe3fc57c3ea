from fractions import Fraction

from prem.generators import _path_complex
from prem.stability import stable_to_line_report

from conftest import octahedron

F = Fraction


def test_monotone_path_is_stable():
    p = _path_complex(["a", "b", "c", "d"])
    rep = stable_to_line_report(p, {"a": F(0), "b": F(1), "c": F(2), "d": F(3)})
    assert rep.stable
    assert rep.verdict == "stable"
    assert rep.embeds_all_edges
    assert rep.critical_vertices == []
    assert rep.undecided_vertices == []


def test_collapsed_edge_is_degenerate():
    p = _path_complex(["a", "b", "c", "d"])
    rep = stable_to_line_report(p, {"a": F(0), "b": F(0), "c": F(1), "d": F(2)})
    assert not rep.stable
    assert rep.verdict == "not stable (degenerate edge)"
    assert rep.degenerate_edges == [("a", "b")]


def test_w_shape_reports_tension():
    w = _path_complex(["p", "q", "r", "s", "t"])
    rep = stable_to_line_report(
        w, {"p": F(0), "q": F(2), "r": F(1), "s": F(2), "t": F(0)}
    )
    assert not rep.stable
    assert rep.embeds_all_edges
    assert rep.critical_vertices == ["q", "r", "s"]
    assert rep.critical_values_injective is False
    assert rep.verdict.startswith("tension")


def test_octahedron_height_report():
    rep = stable_to_line_report(
        octahedron(),
        {"n": F(2), "s": F(-2), "a": F(0), "b": F(1), "c": F(1, 2), "d": F(3)},
    )
    assert rep.stable
    assert rep.critical_vertices == ["s", "d"]
    assert rep.undecided_vertices == []
    assert rep.critical_values_injective
    assert any("links of dimension at most one" in c for c in rep.caveats)
