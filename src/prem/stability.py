"""Stability report for linear maps to the line.

The report gives the two halves of the stability certificate separately:
whether every edge embeds, and whether the vertices flagged by a
combinatorial regularity proxy take pairwise distinct values.  The proxy
inspects the link of each vertex: in a link of dimension zero the regular
patterns are one neighbor above and one below, or a single neighbor on one
side (a boundary collar); in a link of dimension one the parts of the link
above and below the vertex value must both be nonempty and connected, with
exactly two crossing edges when the link is a circle and exactly one when it
is a path.  Links of higher dimension are classified only by the extremum
test, and the report carries an explicit caveat that cone-type regularity is
decided only for links of dimension at most one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .complexes import SimplicialComplex
from .errors import PreconditionError


@dataclass
class StableToLineReport:
    embeds_all_edges: bool
    degenerate_edges: List[tuple]
    critical_vertices: List
    undecided_vertices: List
    critical_values_injective: bool
    verdict: str
    caveats: List[str] = field(default_factory=list)

    @property
    def stable(self) -> bool:
        return self.verdict == "stable"


def _scalar(values: Dict, v) -> Fraction:
    x = values[v]
    if isinstance(x, (tuple, list)):
        if len(x) != 1:
            raise PreconditionError("line report requires 1-dimensional values")
        x = x[0]
    return Fraction(x)


def _link_graph_kind(link: SimplicialComplex) -> Optional[str]:
    """"circle", "path", or None for any other one-dimensional link."""
    if len(link.connected_components()) != 1:
        return None
    degrees = [len(link.neighbors(u)) for u in link.vertices]
    if all(d == 2 for d in degrees):
        return "circle"
    if degrees.count(1) == 2 and all(d in (1, 2) for d in degrees):
        return "path"
    return None


def _vertex_is_critical(
    c: SimplicialComplex, values: Dict, v
) -> Tuple[Optional[bool], str]:
    """(critical?, reason); None means undecided (link dimension too high and
    the vertex is not an extremum)."""
    fv = _scalar(values, v)
    link = c.link_subcomplex(v)
    link_vals = {u: _scalar(values, u) for u in link.vertices}
    if any(x == fv for x in link_vals.values()):
        return True, "level set contains a neighboring vertex"
    up = [u for u, x in link_vals.items() if x > fv]
    down = [u for u, x in link_vals.items() if x < fv]
    if not link.vertices:
        return True, "isolated vertex"
    if link.dim == 0:
        # Regular patterns: one neighbor on each side (interior collar) or a
        # single neighbor on one side (boundary collar).
        if (len(up), len(down)) in ((1, 1), (1, 0), (0, 1)):
            return False, "collar pattern"
        return True, "level set splits the link into a non-collar pattern"
    if not up or not down:
        return True, "local extremum"
    if link.dim == 1:
        kind = _link_graph_kind(link)
        if kind is None:
            return True, "link is not a circle or a path"
        if len(link.full_subcomplex(up).connected_components()) != 1:
            return True, "upper part of the link is disconnected"
        if len(link.full_subcomplex(down).connected_components()) != 1:
            return True, "lower part of the link is disconnected"
        crossing = sum(
            1
            for e in link.simplices_of_dim(1)
            if (e[0] in link_vals and e[1] in link_vals)
            and ((link_vals[e[0]] > fv) != (link_vals[e[1]] > fv))
        )
        want = 2 if kind == "circle" else 1
        if crossing != want:
            return True, f"level set crosses the link {crossing} times, expected {want}"
        return False, "collar pattern"
    return None, "link dimension above one"


def stable_to_line_report(c: SimplicialComplex, values: Dict) -> StableToLineReport:
    """Stability certificate for the linear map to the line given by vertex
    values."""
    degenerate = [e for e in c.edges() if _scalar(values, e[0]) == _scalar(values, e[1])]
    embeds = not degenerate
    critical: List = []
    undecided: List = []
    for v in c.vertices:
        flag, _reason = _vertex_is_critical(c, values, v)
        if flag is None:
            undecided.append(v)
        elif flag:
            critical.append(v)
    crit_vals = [_scalar(values, v) for v in critical]
    injective = len(set(crit_vals)) == len(crit_vals)
    if not embeds:
        verdict = "not stable (degenerate edge)"
    elif injective:
        verdict = "stable"
    else:
        verdict = "tension: every edge embeds but critical values collide; stability undecided"
    caveats = [
        "cone-type regularity is decided only for links of dimension at most one; "
        "higher-dimensional links are classified only by the extremum test"
    ]
    if undecided:
        caveats.append(
            f"{len(undecided)} vertex link(s) of dimension above one were not classified"
        )
    return StableToLineReport(
        embeds_all_edges=embeds,
        degenerate_edges=degenerate,
        critical_vertices=critical,
        undecided_vertices=undecided,
        critical_values_injective=injective,
        verdict=verdict,
        caveats=caveats,
    )
