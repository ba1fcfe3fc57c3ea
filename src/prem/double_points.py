"""Combinatorial model of the space of ordered pairs of distinct points with
equal image under a non-degenerate simplicial map.

Vertices of the model are ordered pairs ``(u, v)`` of distinct source
vertices with ``f(u) = f(v)``; cells are ordered pairs of *disjoint* source
simplices with equal image, encoded by the vertex pairs of the unique
image-compatible bijection between them.  Swapping coordinates is a free
simplicial involution.

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
from typing import Dict, Iterator, List, Tuple

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


def matched_pair_cells(
    f: SimplicialMap, vertices: List[Tuple], overlapping: bool = False
) -> Iterator[Simplex]:
    """Pair cells of a non-degenerate map: for every ordered pair ``(s, t)``
    of distinct source simplices with the same image, the vertex pairs
    ``(u, m(u))`` of the image-compatible bijection ``m: s -> t``, listed in
    the order of ``s``.  Only disjoint pairs are included unless
    ``overlapping`` is set, in which case shared vertices give diagonal
    pairs ``(u, u)``.  Every pair must be one of ``vertices``, whose tuple
    objects the cells reuse.

    Since ``s`` is rank-sorted without repeats, each cell is canonical in any
    complex whose pair vertices are ordered by the ranks of their first, then
    second, coordinates."""
    pair = {p: p for p in vertices}
    vm = f.vertex_map
    target_rank = f.target.rank
    fibres: Dict = {}
    for s in f.source.simplices:
        images = tuple(map(vm.__getitem__, s))
        key = tuple(sorted(map(target_rank.__getitem__, images)))
        fibres.setdefault(key, []).append((s, images))
    for fibre in fibres.values():
        if len(fibre) < 2:
            continue
        partners = [(t, dict(zip(images, t))) for t, images in fibre]
        for s, images in fibre:
            shared = None if overlapping else set(s)
            for t, by_image in partners:
                if t is s or (shared is not None and not shared.isdisjoint(t)):
                    continue
                yield tuple(map(pair.__getitem__, zip(s, map(by_image.__getitem__, images))))


def _pair_complex(f: SimplicialMap) -> InvolutionComplex:
    """The pair model itself, for a map already checked to be non-degenerate
    and to satisfy the star condition."""
    vertices = identified_vertex_pairs(f)
    cells = {(p,) for p in vertices}
    cells.update(matched_pair_cells(f, vertices))
    complex_ = SimplicialComplex.from_canonical(vertices, cells)
    involution = {(u, v): (v, u) for (u, v) in vertices}
    return InvolutionComplex(complex_, involution)


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
