"""Decision procedures for general-position configurations and for the
stability of linear maps, including the maps-to-the-line certificate.

A finite configuration in rational m-space is in general position when every
subset of at most m+1 points is affinely independent (so in particular the
points are pairwise distinct as soon as m >= 1).  A semi-linear map into a
geometrically realized target is fiberwise general position when, for every
target simplex, the vertices carried into that simplex land in a
general-position configuration of the simplex's affine hull.  Fiberwise
general position is an open condition and certifies stability of the map;
its failure leaves stability undecided.

For linear maps to the line the module reports the two halves of the
stability certificate separately: whether every edge embeds, and whether the
vertices flagged by a combinatorial regularity proxy take pairwise distinct
values.  The proxy inspects the link of each vertex: in a link of dimension
zero the regular patterns are one neighbor above and one below, or a single
neighbor on one side (a boundary collar); in a link of dimension one the
parts of the link above and below the vertex value must both be nonempty and
connected, with exactly two crossing edges when the link is a circle and
exactly one when it is a path.  Links of higher dimension are classified
only by the extremum test, and the report carries an explicit caveat that
cone-type regularity is decided only for links of dimension at most one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .complexes import GeometricComplex, SimplicialComplex
from .errors import CarrierError, InternalError, PreconditionError

Point = Tuple[Fraction, ...]


def _as_points(points: Sequence) -> List[Point]:
    out = [tuple(Fraction(x) for x in p) for p in points]
    if out and any(len(p) != len(out[0]) for p in out):
        raise PreconditionError("points of mixed dimension")
    return out


def is_general_position_config(points: Sequence, dim: Optional[int] = None) -> bool:
    """True iff every subset of at most ``dim + 1`` of the points is affinely
    independent, where ``dim`` defaults to the ambient dimension m."""
    pts = _as_points(points)
    if len(pts) <= 1:
        return True
    k = min(len(pts), (len(pts[0]) if dim is None else dim) + 1)
    if k < 2:
        # Dimension zero: general position means pairwise distinct points
        # (impossible for two or more in a zero-dimensional ambient space).
        return len(set(pts)) == len(pts)
    # A subset of an affinely independent set is affinely independent, so
    # checking the subsets of size exactly k covers all smaller subsets.
    return all(linalg.affinely_independent(sub) for sub in combinations(pts, k))


def general_position_violation(points: Sequence) -> Optional[Tuple[int, ...]]:
    """Indices of a smallest affinely dependent subset of size <= m+1, or
    None when the configuration is in general position."""
    pts = _as_points(points)
    if len(pts) <= 1:
        return None
    m = len(pts[0])
    if m == 0:
        seen: Dict[Point, int] = {}
        for i, p in enumerate(pts):
            if p in seen:
                return (seen[p], i)
            seen[p] = i
        return None
    for size in range(2, min(len(pts), m + 1) + 1):
        for idx in combinations(range(len(pts)), size):
            if not linalg.affinely_independent([pts[i] for i in idx]):
                return idx
    return None


def perturb_to_general_position(
    points: Sequence, max_steps: int = 64
) -> Tuple[List[Point], int]:
    """Deterministic repair: add ``2^-t`` times the moment-curve direction
    ``(c, c^2, ..., c^m)`` with ``c = i+1`` to the i-th point, increasing
    t until the configuration is in general position.  Returns the repaired
    points and the t used (0 when no repair was needed)."""
    pts = _as_points(points)
    if is_general_position_config(pts):
        return pts, 0
    m = len(pts[0]) if pts else 0
    for t in range(1, max_steps + 1):
        eps = Fraction(1, 2**t)
        cand = [
            tuple(x + eps * Fraction(i + 1) ** (j + 1) for j, x in enumerate(p))
            for i, p in enumerate(pts)
        ]
        if is_general_position_config(cand):
            return cand, t
    raise InternalError("perturbation schedule did not reach general position")


def fiber_configurations(
    source: SimplicialComplex, values: Dict, target: GeometricComplex
) -> Dict:
    """For each target simplex, the value points of the source vertices whose
    carrier lies in that simplex (the vertex set of the preimage
    subcomplex)."""
    carriers = {}
    for v in source.vertices:
        bp = target.locate(tuple(Fraction(x) for x in values[v]))
        if bp is None:
            raise CarrierError(f"value of vertex {v!r} lies outside the target complex")
        carriers[v] = frozenset(bp.support)
    configs: Dict = {}
    for s in target.complex.simplices:
        sset = set(s)
        configs[s] = [
            tuple(Fraction(x) for x in values[v])
            for v in source.vertices
            if carriers[v] <= sset
        ]
    return configs


def is_fiberwise_general_position(
    source: SimplicialComplex, values: Dict, target: GeometricComplex
) -> bool:
    """True iff for every target simplex the configuration of carried source
    vertices is in general position within the simplex's affine hull."""
    for s, pts in fiber_configurations(source, values, target).items():
        if not is_general_position_config(pts, len(s) - 1):
            return False
    return True


# -- maps to the line -----------------------------------------------------------


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

    def lines(self) -> List[str]:
        out = [
            f"edges embed: {self.embeds_all_edges}",
            f"critical vertices: {self.critical_vertices or 'none'}",
            f"critical values pairwise distinct: {self.critical_values_injective}",
            f"verdict: {self.verdict}",
        ]
        if self.undecided_vertices:
            out.append(f"regularity undecided at: {self.undecided_vertices}")
        out.extend(f"caveat: {c}" for c in self.caveats)
        return out


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
