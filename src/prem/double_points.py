"""Combinatorial model of the space of ordered pairs of distinct points with
equal image under a non-degenerate simplicial map.

Vertices of the model are ordered pairs ``(u, v)`` of distinct source
vertices with ``f(u) = f(v)``; cells are ordered pairs of *disjoint* source
simplices with equal image, encoded by the vertex pairs of the unique
image-compatible bijection between them.  Swapping coordinates is a free
simplicial involution.

Cells are walked, not stored.  A walk over the fibres of the map's image
index meets each unordered same-image pair ``{s, t}`` once and yields the
cell of ``(s, t)``; the swap sends it to the cell of ``(t, s)``.  One walk
gives the model its dimension, its pair count per dimension (the f-vector
of the quotient by the swap), its 1-cells and from them its connected
components, each flagged when the swap maps it onto itself.  A second walk
gives the quotient by the swap with its ``w1`` cocycle.  It needs no
subdivision: under the star condition no cell meets a swap orbit twice
(R1), and cells containing ``(a, b), (c, d)`` and ``(a, b), (d, c)`` would
make ``a`` adjacent to both ``c`` and ``d`` with ``f(c) = f(d)`` (R2).  So
the quotient simplices are the walked pairs.

The pair complex itself is built only for the ``delta`` body, from
:func:`pair_cells`, which lists the cells of ``(s, t)`` and ``(t, s)``
together; the lift's closure model is built from them too.

The pair model is a faithful model of the identified-pair space only when
identified vertices are combinatorially far apart: for every pair ``u, v`` of
distinct vertices with equal image, the closed vertex stars of ``u`` and
``v`` must be disjoint.  When this star condition fails the wrapper
subdivides source and target barycentrically and retries; maps that fold an
edge onto half of itself keep violating the condition at every subdivision
depth, and are reported as unmodellable rather than silently mis-modelled.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Dict, Iterator, List, Tuple

from .complexes import InvolutionComplex, SimplicialComplex, Simplex, edge_components
from .errors import DegenerateMap, InternalError, ModelInvalid
from .maps import SimplicialMap
from .subdivision import barycentric_subdivide_map


def _vertex_fibres(f: SimplicialMap) -> List[list]:
    """The groups of two or more source vertices with one image, each in
    source order."""
    by_image: Dict = {}
    for v in f.source.vertices:
        by_image.setdefault(f.vertex_map[v], []).append(v)
    return [group for group in by_image.values() if len(group) > 1]


def identified_vertex_pairs(f: SimplicialMap) -> List[Tuple]:
    """Ordered pairs (u, v), u != v, f(u) = f(v), sorted by source ranks."""
    pairs = [(u, v) for group in _vertex_fibres(f) for u in group for v in group if u != v]
    rank = f.source.rank
    pairs.sort(key=lambda p: (rank[p[0]], rank[p[1]]))
    return pairs


def check_star_condition(f: SimplicialMap) -> List[Tuple]:
    """Violating identified vertex pairs whose closed stars meet, in both
    orders and sorted as :func:`identified_vertex_pairs` sorts them.  Each
    closed star is built once and each unordered pair tested once."""
    source = f.source
    violations = []
    for group in _vertex_fibres(f):
        stars = [source.closed_star_vertices(v) for v in group]
        for i, u in enumerate(group):
            for j in range(i + 1, len(group)):
                if not stars[i].isdisjoint(stars[j]):
                    violations += [(u, group[j]), (group[j], u)]
    rank = source.rank
    violations.sort(key=lambda p: (rank[p[0]], rank[p[1]]))
    return violations


def _simplex_fibres(f: SimplicialMap) -> List[list]:
    """The fibres of two or more same-image source simplices.  Cells are
    keyed by content, so the fibres need not be sorted as ``f.fibers()``
    sorts them."""
    fibres: Dict = {}
    for s, img in f.image_index().items():
        fibres.setdefault(img, []).append(s)
    return [fibre for fibre in fibres.values() if len(fibre) > 1]


def pair_cells(f: SimplicialMap, vertices: List[Tuple]) -> List[Simplex]:
    """Pair cells of a non-degenerate map, in both orders.  For every
    unordered pair ``{s, t}`` of distinct source simplices with the same
    image, the cell of ``(s, t)`` is the vertex pairs ``(u, m(u))`` of the
    image-compatible bijection ``m: s -> t``, listed in the order of ``s``,
    and the cell of ``(t, s)`` is its swap image.  Simplices that share
    vertices give diagonal pairs ``(u, u)``; under the star condition there
    are none.  Every pair must be one of ``vertices``, whose tuple objects
    the cells reuse.

    Since ``s`` is rank-sorted without repeats, each cell is canonical in any
    complex whose pair vertices are ordered by the ranks of their first, then
    second, coordinates.  The 0-cells are the pairs of same-image vertices,
    so every off-diagonal pair vertex appears as a cell."""
    pair = {p: p for p in vertices}
    vm = f.vertex_map
    cells: List[Simplex] = []
    for fibre in _simplex_fibres(f):
        members = []
        for s in fibre:
            s_targets = tuple(map(vm.__getitem__, s))
            members.append((s, s_targets, dict(zip(s_targets, s))))
        for i, (s, s_targets, s_by_target) in enumerate(members):
            for t, t_targets, t_by_target in members[i + 1:]:
                st = zip(s, map(t_by_target.__getitem__, s_targets))
                ts = zip(t, map(s_by_target.__getitem__, t_targets))
                cells += (tuple(map(pair.__getitem__, st)), tuple(map(pair.__getitem__, ts)))
    return cells


# Barycentric subdivisions of a map after which a star violation that
# remains is reported as unmodellable.
SUBDIVISION_ROUNDS = 2


class DoublePointModel:
    """The pair model of a non-degenerate map that satisfies the star
    condition, read off one walk over the fibres of its image index, which
    meets every unordered same-image pair once: ``dim`` (-1 when no two
    vertices share an image), ``cell_counts`` (the unordered pairs per
    dimension, which is the f-vector of the quotient by the swap), and
    ``components`` (pair-vertex sets, ordered by their earliest pair vertex)
    with ``invariant_flags``.  ``swap_quotient`` and ``pair_complex`` are
    built on first access and then kept; the cells are not.

    Under the star condition two distinct simplices with one image are
    disjoint: a shared vertex ``u`` would make the two lifts ``v != w`` of
    some image vertex neighbours of ``u``, so the stars of ``v`` and ``w``
    would meet.  So every same-image pair of a fibre is a cell pair."""

    def __init__(self, f: SimplicialMap, subdivision_rounds: int = 0):
        self.map = f  # the (possibly subdivided) map actually modelled
        self.subdivision_rounds = subdivision_rounds
        self.vertices = identified_vertex_pairs(f)
        t = self.involution = {(u, v): (v, u) for (u, v) in self.vertices}
        self._fibres = _simplex_fibres(f)
        counts: List[int] = []
        for fibre in self._fibres:
            n = len(fibre[0])
            if n > len(counts):
                counts += [0] * (n - len(counts))
            counts[n - 1] += len(fibre) * (len(fibre) - 1) // 2
        self.cell_counts = tuple(counts)
        self.dim = len(counts) - 1
        self.components = edge_components(self.vertices, self.edges())
        # The swap maps components onto components, so one vertex tells.
        self.invariant_flags = [t[next(iter(comp))] in comp for comp in self.components]

    def edges(self) -> Iterator[Tuple]:
        """The 1-cells, both members of every swap orbit, on a fresh walk."""
        vm = self.map.vertex_map
        for fibre in self._fibres:
            if len(fibre[0]) == 2:
                for (a, b), (c, d) in combinations(fibre, 2):
                    if vm[a] != vm[c]:
                        c, d = d, c
                    yield (a, c), (b, d)
                    yield (c, a), (d, b)

    def aligned_pairs(self) -> Iterator[Tuple]:
        """``(s, t, a, b)`` for every unordered same-image pair ``{s, t}``,
        with ``a`` and ``b`` the vertices of ``s`` and ``t`` in the order of
        their images: the cell of ``(s, t)`` is ``zip(a, b)``, that of
        ``(t, s)`` is ``zip(b, a)``, and cells so listed have their faces as
        ``combinations``."""
        rank = self.map.target.rank
        order = {v: rank[x] for v, x in self.map.vertex_map.items()}.__getitem__
        for fibre in self._fibres:
            for (s, a), (t, b) in combinations([(s, sorted(s, key=order)) for s in fibre], 2):
                yield s, t, a, b

    @cached_property
    def swap_quotient(self) -> Tuple[SimplicialComplex, Dict[Simplex, int]]:
        """The quotient by the swap and its ``w1`` on edges.  Vertex ``i`` is
        the ``i``-th representative ``(u, v)``, ``rank u < rank v``; ``w1`` is
        1 on an edge with exactly one end not a representative.  R1 fails on
        a 1-cell if anywhere, R2 shows in the f-vector."""
        rank = self.map.source.rank
        ids: Dict = {u: {} for u, _ in self.vertices}  # the quotient vertex of (u, v) at [u][v]
        n = 0
        for u, v in self.vertices:
            if rank[u] < rank[v]:
                ids[u][v] = ids[v][u] = n
                n += 1
        simplices = []
        w1: Dict[Simplex, int] = {}
        for _, _, a, b in self.aligned_pairs():
            q = tuple(sorted([ids[u][v] for u, v in zip(a, b)]))
            simplices.append(q)
            if len(q) == 2:
                if q[0] == q[1]:
                    raise InternalError(f"pair cell {tuple(zip(a, b))} meets one swap orbit twice")
                w1[q] = int((rank[a[0]] > rank[b[0]]) != (rank[a[1]] > rank[b[1]]))
        quotient = SimplicialComplex.from_canonical(range(n), simplices)
        if quotient.f_vector() != self.cell_counts:
            raise InternalError(
                f"the swap quotient has f-vector {quotient.f_vector()}, not {self.cell_counts}:"
                " two pair cells lie over one quotient simplex")
        return quotient, w1

    @cached_property
    def pair_complex(self) -> InvolutionComplex:
        complex_ = SimplicialComplex.from_canonical(self.vertices, pair_cells(self.map, self.vertices))
        return InvolutionComplex(complex_, self.involution)

    @property
    def complex(self) -> SimplicialComplex:
        return self.pair_complex.complex


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
            return DoublePointModel(current, rounds)
        if rounds == SUBDIVISION_ROUNDS:
            raise ModelInvalid(
                "identified vertices stay star-adjacent after "
                f"{rounds} subdivisions (first violations: {violations[:3]}); "
                "the map folds a simplex onto a neighbor of itself"
            )
        current = barycentric_subdivide_map(current)[0]
        rounds += 1
