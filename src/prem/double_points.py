"""Combinatorial model of the space of ordered pairs of distinct points with
equal image under a non-degenerate simplicial map.

Vertices of the model are ordered pairs ``(u, v)`` of distinct source
vertices with ``f(u) = f(v)``; cells are ordered pairs of *disjoint* source
simplices with equal image, encoded by the vertex pairs of the unique
image-compatible bijection between them.  Swapping coordinates is a free
simplicial involution.

This is the deleted double point locus ``(f x f)^-1(Delta) - Delta`` up to
equivariant homotopy.  Glue the ordered same-image pairs ``(s, t)`` along
``s n t``: the swap fixes exactly the diagonal part, and the complement of
that full subcomplex retracts equivariantly, along straight lines in each
simplex, onto the full subcomplex on the off-diagonal vertices (Munkres,
*Elements of Algebraic Topology*, section 70).  The cells of that subcomplex
are the cells of the disjoint same-image pairs: the off-diagonal part of the
cell of ``(s, t)`` is the cell of the disjoint pair ``(s - t, t - s)``.

Cells are walked, not stored.  A walk over the fibres of the map's image
index meets each unordered disjoint same-image pair ``{s, t}`` once and
yields the cell of ``(s, t)``; the swap sends it to the cell of ``(t, s)``.
A pair whose simplices share a vertex is skipped, since the walk meets the
cell of its off-diagonal part anyway; the shared vertices are the *fold
vertices*.  One walk gives the model its dimension, its pair count per
dimension (the f-vector of the quotient by the swap), its 1-cells and from
them its connected components, each flagged when the swap maps it onto
itself.  A second walk gives the quotient by the swap with its ``w1``
cocycle.  It needs no subdivision: under the star condition no cell meets a
swap orbit twice (R1), and cells containing ``(a, b), (c, d)`` and
``(a, b), (d, c)`` would make ``a`` adjacent to both ``c`` and ``d`` with
``f(c) = f(d)`` (R2).  So the quotient simplices are the walked pairs.

The walk is the only view of the model.  The ``delta`` body prints the pair
complex, built from :meth:`DoublePointModel.pair_cells`, which lists the
cells of ``(s, t)`` and ``(t, s)`` together; no other command builds it.

The verdict reads the model only when identified vertices are
combinatorially far apart: for every pair ``u, v`` of distinct vertices with
equal image, the closed vertex stars of ``u`` and ``v`` must be disjoint.
This star condition fails exactly when some vertex ``x`` has neighbours
``u != v`` with ``f(u) = f(v)``, that is, when some same-image pair shares
a vertex.  A barycentric subdivision cannot repair it, since the barycentres
of ``xu`` and ``xv`` are two such neighbours of ``x``, so such maps are
reported as unmodellable rather than silently mis-modelled.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Dict, Iterator, List, Tuple

from .complexes import SimplicialComplex, Simplex, edge_components
from .errors import DegenerateMap, InternalError, ModelInvalid
from .maps import SimplicialMap


def vertex_fibres(f: SimplicialMap) -> Dict:
    """The source vertices grouped by their image, each group in source
    order."""
    by_image: Dict = {}
    for v in f.source.vertices:
        by_image.setdefault(f.vertex_map[v], []).append(v)
    return by_image


def identified_vertex_pairs(f: SimplicialMap) -> List[Tuple]:
    """Ordered pairs (u, v), u != v, f(u) = f(v), sorted by source ranks."""
    pairs = [(u, v) for group in vertex_fibres(f).values() for u in group for v in group
             if u != v]
    rank = f.source.rank
    pairs.sort(key=lambda p: (rank[p[0]], rank[p[1]]))
    return pairs


def _edge_folds(fibres) -> List[Tuple]:
    """``(x, u, v)`` for every two edges ``xu`` and ``xv`` of one fibre: the
    folds at ``x``.  Fibres of simplices that are no edges are passed over.

    Two distinct same-image simplices ``s`` and ``t`` that share a vertex
    ``x`` fold at ``x`` this way: for ``u`` in ``s - t`` and ``m`` the
    matched bijection, ``xu`` and ``x m(u)`` are two edges of one image.  So
    the vertices shared by same-image pairs are those of the edge folds."""
    folds = []
    for fibre in fibres:
        if len(fibre[0]) == 2:
            # Two distinct edges share at most one vertex; ``t[t[0] == a]``
            # is the end of ``t`` other than ``a``.
            for (a, b), t in combinations(fibre, 2):
                if a in t:
                    folds.append((a, b, t[t[0] == a]))
                elif b in t:
                    folds.append((b, a, t[t[0] == b]))
    return folds


def check_star_condition(f: SimplicialMap) -> List[Tuple]:
    """Violating identified vertex pairs of a non-degenerate map, whose
    closed stars meet, in both orders and sorted as
    :func:`identified_vertex_pairs` sorts them.  Identified vertices are
    never adjacent, so the stars of ``u`` and ``v`` meet exactly when they
    are the free ends of an edge fold.  Only the edges are grouped by
    image."""
    groups = f.source.dimension_groups()
    image = f.image_index()
    fibres: Dict = {}
    for e in groups[1] if len(groups) > 1 else ():
        fibres.setdefault(image[e], []).append(e)
    violations = {p for _, u, v in _edge_folds(fibres.values()) for p in ((u, v), (v, u))}
    rank = f.source.rank
    return sorted(violations, key=lambda p: (rank[p[0]], rank[p[1]]))


def _simplex_fibres(f: SimplicialMap) -> List[list]:
    """The fibres of two or more same-image source simplices.  Cells are
    keyed by content, so the fibres need not be sorted as ``f.fibers()``
    sorts them."""
    fibres: Dict = {}
    for s, img in f.image_index().items():
        fibres.setdefault(img, []).append(s)
    return [fibre for fibre in fibres.values() if len(fibre) > 1]


def _disjoint_pairs(fibres: List[list]) -> List[list]:
    """Every disjoint pair of the fibres as a fibre of its own, in walk
    order."""
    return [[s, t] for fibre in fibres for s, t in combinations(fibre, 2)
            if set(s).isdisjoint(t)]


class DoublePointModel:
    """The pair model of a non-degenerate map, read off one walk over the
    fibres of its image index, which meets every unordered disjoint
    same-image pair once: ``dim`` (-1 when no two vertices share an image),
    ``cell_counts`` (the unordered pairs per dimension, which is the
    f-vector of the quotient by the swap), and ``components`` (pair-vertex
    sets, ordered by their earliest pair vertex) with ``invariant_flags``.
    ``fold_vertices`` holds the vertices that same-image pairs share, the
    vertices of the fold locus.  ``swap_quotient`` and ``complex`` are built
    on first access and then kept; the cells are not.

    The fold vertices are read off the edge fibres (:func:`_edge_folds`).
    When there are none, which is the star condition, two distinct
    simplices with one image are disjoint, every same-image pair of a fibre
    is a cell pair, and the walk runs over whole fibres.  Otherwise each
    disjoint pair becomes a fibre of its own, and the walk meets the same
    cells in the same order, less the skipped pairs."""

    # The walk reads the input map itself and subdivides nothing.  The
    # constant keeps the ``subdivision rounds`` field of ``delta`` and
    # ``report-thm3``.
    subdivision_rounds = 0

    def __init__(self, f: SimplicialMap):
        self.map = f
        self.vertices = identified_vertex_pairs(f)
        t = self.involution = {(u, v): (v, u) for (u, v) in self.vertices}
        self._fibres = _simplex_fibres(f)
        self.fold_vertices = {x for x, _, _ in _edge_folds(self._fibres)}
        if self.fold_vertices:
            self._fibres = _disjoint_pairs(self._fibres)
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
        """``(s, t, a, b)`` for every unordered disjoint same-image pair
        ``{s, t}``, with ``a`` and ``b`` the vertices of ``s`` and ``t`` in
        the order of their images: the cell of ``(s, t)`` is ``zip(a, b)``,
        that of ``(t, s)`` is ``zip(b, a)``, and cells so listed have their
        faces as ``combinations``."""
        rank = self.map.target.rank
        order = {v: rank[x] for v, x in self.map.vertex_map.items()}.__getitem__
        for fibre in self._fibres:
            for (s, a), (t, b) in combinations([(s, sorted(s, key=order)) for s in fibre], 2):
                yield s, t, a, b

    def pair_cells(self) -> List[Simplex]:
        """The cells in both orders: for every walked pair ``{s, t}``, the
        cell of ``(s, t)`` followed by the cell of ``(t, s)``, its swap
        image.  Each cell lists its vertex pairs by the source rank of their
        first coordinates and reuses the tuple objects of ``vertices``, so
        it is canonical in any complex whose pair vertices are ordered by
        the ranks of their first, then second, coordinates.  The 0-cells are
        the pairs of same-image vertices, so every pair vertex appears as a
        cell."""
        pair = {p: p for p in self.vertices}.__getitem__
        rank = self.map.source.rank
        first = lambda p: rank[p[0]]  # noqa: E731
        cells: List[Simplex] = []
        for _, _, a, b in self.aligned_pairs():
            cells += (tuple(map(pair, sorted(zip(a, b), key=first))),
                      tuple(map(pair, sorted(zip(b, a), key=first))))
        return cells

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
    def complex(self) -> SimplicialComplex:
        """The pair complex: every walked cell and its swap image."""
        return SimplicialComplex.from_canonical(self.vertices, self.pair_cells())


def double_point_model(f: SimplicialMap) -> DoublePointModel:
    """Pair model of a non-degenerate map that satisfies the star
    condition; :class:`ModelInvalid` names the identified vertices whose
    closed stars meet."""
    if not f.is_non_degenerate():
        raise DegenerateMap(f"map collapses edges {f.degenerate_edges()[:3]}")
    model = DoublePointModel(f)
    if model.fold_vertices:
        raise ModelInvalid(
            "identified vertices are star-adjacent (first violations: "
            f"{check_star_condition(f)[:3]}); the map folds a simplex onto a neighbor of itself"
        )
    return model
