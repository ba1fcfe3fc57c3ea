"""Combinatorial model of the space of ordered pairs of distinct points with
equal image under a non-degenerate simplicial map.

Vertices of the model are ordered pairs ``(u, v)`` of distinct source
vertices with ``f(u) = f(v)``; cells are ordered pairs of *disjoint* source
simplices with equal image, encoded by the vertex pairs of the unique
image-compatible bijection between them.  Swapping coordinates is a free
simplicial involution.

Swap images come from the builder, not from a second pass: one walk over
the fibres of the map's image index meets each unordered same-image pair
``{s, t}`` once and enters the cells of ``(s, t)`` and ``(t, s)`` together,
each as the other's image.  The involution complex then checks these images
exactly instead of canonicalising every swapped cell again.

The pair model is a faithful model of the identified-pair space only when
identified vertices are combinatorially far apart: for every pair ``u, v`` of
distinct vertices with equal image, the closed vertex stars of ``u`` and
``v`` must be disjoint.  When this star condition fails the wrapper
subdivides source and target barycentrically and retries; maps that fold an
edge onto half of itself keep violating the condition at every subdivision
depth, and are reported as unmodellable rather than silently mis-modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .complexes import InvolutionComplex, SimplicialComplex, Simplex
from .errors import DegenerateMap, ModelInvalid
from .maps import SimplicialMap
from .subdivision import barycentric_subdivide_map


def identified_vertex_pairs(f: SimplicialMap) -> List[Tuple]:
    """Ordered pairs (u, v), u != v, f(u) = f(v), sorted by source ranks."""
    by_image: Dict = {}
    for v in f.source.vertices:
        by_image.setdefault(f.vertex_map[v], []).append(v)
    pairs = []
    for group in by_image.values():
        for u in group:
            for v in group:
                if u != v:
                    pairs.append((u, v))
    rank = f.source.rank
    pairs.sort(key=lambda p: (rank[p[0]], rank[p[1]]))
    return pairs


def check_star_condition(f: SimplicialMap) -> List[Tuple]:
    """Violating identified vertex pairs whose closed stars meet."""
    violations = []
    for u, v in identified_vertex_pairs(f):
        star_u = f.source.closed_star_vertices(u)
        star_v = f.source.closed_star_vertices(v)
        if star_u & star_v:
            violations.append((u, v))
    return violations


def swap_paired_cells(
    f: SimplicialMap, vertices: List[Tuple], overlapping: bool = False
) -> Dict[Simplex, Simplex]:
    """Pair cells of a non-degenerate map, each mapped to its swap image.
    For every unordered pair ``{s, t}`` of distinct source simplices with
    the same image, the cell of ``(s, t)`` is the vertex pairs ``(u, m(u))``
    of the image-compatible bijection ``m: s -> t``, listed in the order of
    ``s``; its swap image is the cell of ``(t, s)``, and the two are entered
    together.  Only disjoint pairs are included unless ``overlapping`` is
    set, in which case shared vertices give diagonal pairs ``(u, u)``.  Every
    pair must be one of ``vertices``, whose tuple objects the cells reuse.

    Since ``s`` is rank-sorted without repeats, each cell is canonical in any
    complex whose pair vertices are ordered by the ranks of their first, then
    second, coordinates.  The 0-cells are the pairs of same-image vertices,
    so every off-diagonal pair vertex appears as a cell."""
    pair = {p: p for p in vertices}
    vm = f.vertex_map
    # Cells are keyed by content, so the fibres need not be sorted as
    # ``f.fibers()`` sorts them.
    fibres: Dict = {}
    for s, img in f.simplex_images().items():
        fibres.setdefault(img, []).append(s)
    images: Dict = {}
    for fibre in fibres.values():
        if len(fibre) < 2:
            continue
        members = []
        for s in fibre:
            s_targets = tuple(map(vm.__getitem__, s))
            members.append((s, s_targets, dict(zip(s_targets, s))))
        for i, (s, s_targets, s_by_target) in enumerate(members):
            shared = None if overlapping else set(s)
            for t, t_targets, t_by_target in members[i + 1:]:
                if shared is not None and not shared.isdisjoint(t):
                    continue
                st = tuple(map(pair.__getitem__, zip(s, map(t_by_target.__getitem__, s_targets))))
                ts = tuple(map(pair.__getitem__, zip(t, map(s_by_target.__getitem__, t_targets))))
                images[st] = ts
                images[ts] = st
    return images


def _pair_complex(f: SimplicialMap) -> InvolutionComplex:
    """The pair model itself, for a map already checked to be non-degenerate
    and to satisfy the star condition."""
    vertices = identified_vertex_pairs(f)
    images = swap_paired_cells(f, vertices)
    complex_ = SimplicialComplex.from_canonical(vertices, images)
    involution = {(u, v): (v, u) for (u, v) in vertices}
    return InvolutionComplex(complex_, involution, images=images)


# Barycentric subdivisions of a map after which a star violation that
# remains is reported as unmodellable.
SUBDIVISION_ROUNDS = 2


@dataclass
class DoublePointModel:
    pair_complex: InvolutionComplex
    map: SimplicialMap  # the (possibly subdivided) map actually modelled
    subdivision_rounds: int

    @property
    def complex(self) -> SimplicialComplex:
        return self.pair_complex.complex

    @property
    def involution(self) -> Dict:
        return self.pair_complex.involution


def double_point_model(f: SimplicialMap) -> DoublePointModel:
    """Pair model of the map, barycentrically subdividing source and target
    until the star condition holds (at most ``SUBDIVISION_ROUNDS`` times)."""
    if not f.is_non_degenerate():
        raise DegenerateMap(f"map collapses edges {f.degenerate_edges()[:3]}")
    current = f
    rounds = 0
    while True:
        violations = check_star_condition(current)
        if not violations:
            return DoublePointModel(_pair_complex(current), current, rounds)
        if rounds == SUBDIVISION_ROUNDS:
            raise ModelInvalid(
                "identified vertices stay star-adjacent after "
                f"{rounds} subdivisions (first violations: {violations[:3]}); "
                "the map folds a simplex onto a neighbor of itself"
            )
        current = barycentric_subdivide_map(current)[0]
        rounds += 1
