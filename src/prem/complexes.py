"""Finite abstract simplicial complexes with a stable total vertex order,
simplicial involutions, and points in exact barycentric coordinates.

A simplex is canonically represented as a tuple of vertex ids sorted by the
vertex order of its complex.  The vertex order is fixed at construction time
(declaration order) and is preserved verbatim by every operation in the
library; downstream cochain-level products depend on it.

Complexes are never mutated after construction.  Derived indexes rely on
that: each complex groups its simplices by dimension once (sorting a group
the first time it is asked for in order) and finds its connected components
once; an involution complex checks once, at construction, that its
involution maps every simplex to a simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import ComplexError

Simplex = Tuple  # tuple of vertex ids, sorted by vertex rank


def edge_components(vertices: Sequence, edges: Iterable[Tuple]) -> List[set]:
    """Vertex sets of the connected components of the graph on ``vertices``
    with the given edges, ordered by their earliest vertex in ``vertices``.
    Merging relabels the smaller component into the larger."""
    label = {v: i for i, v in enumerate(vertices)}
    members = {i: [v] for v, i in label.items()}
    for a, b in edges:
        i, j = label[a], label[b]
        if i == j:
            continue
        if len(members[i]) < len(members[j]):
            i, j = j, i
        moved = members.pop(j)
        members[i].extend(moved)
        for v in moved:
            label[v] = i
    return [set(members[i]) for i in dict.fromkeys(map(label.__getitem__, vertices))]


def groups_are_pure(groups: Sequence[list]) -> bool:
    """Whether the simplices, grouped by dimension, are exactly the faces of
    the top-dimensional ones.  Faces are taken as ``combinations``, so all
    simplices must list their vertices in one shared order."""
    faces = set(groups[-1]) if groups else set()
    for d in range(len(groups) - 1, 0, -1):
        faces = {f for s in faces for f in combinations(s, d)}
        if len(faces) != len(groups[d - 1]) or not faces.issuperset(groups[d - 1]):
            return False
    return True


class SimplicialComplex:
    """Finite abstract simplicial complex.

    ``simplices`` stores every simplex (not only maximal ones) as canonical
    tuples.  The constructor does *not* close the given simplices under
    faces; callers pass face-closed sets, or use :meth:`from_maximal` to build
    a closed complex from generators.
    """

    __slots__ = ("vertices", "rank", "simplices", "_neighbors", "_dim", "_star_index",
                 "_by_dim", "_sorted_dims", "_components")

    def __init__(self, vertices: Sequence, simplices: Iterable[Iterable]):
        self._declare(vertices)
        self.simplices: FrozenSet[Simplex] = frozenset(map(self.canon, simplices))

    def _declare(self, vertices: Sequence) -> None:
        self.vertices: tuple = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ComplexError("duplicate vertex declaration")
        self.rank: Dict = {v: i for i, v in enumerate(self.vertices)}
        self._neighbors: Optional[Dict] = None
        self._dim: Optional[int] = None
        self._star_index: Optional[Dict] = None
        self._by_dim: Optional[List[list]] = None
        self._sorted_dims: set = set()
        self._components: Optional[list] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_canonical(cls, vertices: Sequence, simplices: Iterable[Simplex]) -> "SimplicialComplex":
        """Complex on simplices that are already canonical tuples: nonempty,
        without repeats and sorted by declaration order.  Faces of canonical
        simplices, and pair cells listed in the order of a canonical source
        simplex, are canonical by construction.  Only vertex membership is
        checked, in bulk."""
        c = cls.__new__(cls)
        c._declare(vertices)
        c.simplices = frozenset(simplices)
        unknown = set().union(*c.simplices).difference(c.rank)
        if unknown:
            raise ComplexError(f"unknown vertex {min(unknown, key=repr)!r}")
        return c

    @classmethod
    def from_maximal(cls, vertices: Sequence, maximal: Iterable[Iterable]) -> "SimplicialComplex":
        """Closure of the given simplices, with every vertex as a 0-simplex.
        ``canon`` checks every vertex of a generator, so the faces need no
        second check."""
        c = cls(vertices, [])
        closed = {(v,) for v in c.vertices}
        for s in map(c.canon, maximal):
            for size in range(2, len(s) + 1):
                closed.update(combinations(s, size))
        c.simplices = frozenset(closed)
        return c

    def renamed(self, names) -> "SimplicialComplex":
        """The same complex with every vertex ``v`` renamed ``names[v]``,
        keeping the vertex order; the names must be distinct."""
        name = names.__getitem__
        return SimplicialComplex.from_canonical(
            list(map(name, self.vertices)), (tuple(map(name, s)) for s in self.simplices))

    def canon(self, s: Iterable) -> Simplex:
        try:
            simplex = tuple(sorted(set(s), key=self.rank.__getitem__))
        except KeyError as exc:
            raise ComplexError(f"unknown vertex {exc.args[0]!r}") from None
        if not simplex:
            raise ComplexError("empty simplex")
        return simplex

    def sort_key(self, s: Simplex) -> tuple:
        return (len(s), tuple(map(self.rank.__getitem__, s)))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = max(map(len, self.simplices), default=0) - 1
        return self._dim

    def has_simplex(self, s: Iterable) -> bool:
        try:
            return self.canon(s) in self.simplices
        except ComplexError:
            return False

    def dimension_groups(self) -> List[list]:
        """Simplices grouped by dimension, in no particular order within a
        group (indexed once, then cached; treat the lists as read-only)."""
        if self._by_dim is None:
            groups: List[list] = [[] for _ in range(self.dim + 1)]
            for s in self.simplices:
                groups[len(s) - 1].append(s)
            self._by_dim = groups
        return self._by_dim

    def _sorted_group(self, d: int) -> list:
        group = self.dimension_groups()[d]
        if d not in self._sorted_dims:
            group.sort(key=self.sort_key)
            self._sorted_dims.add(d)
        return group

    def sorted_simplices(self) -> list:
        return list(chain.from_iterable(
            self._sorted_group(d) for d in range(len(self.dimension_groups()))))

    def simplices_of_dim(self, d: int) -> list:
        if not 0 <= d < len(self.dimension_groups()):
            return []
        return list(self._sorted_group(d))

    def maximal_simplices(self) -> list:
        # Closure under faces means a simplex is maximal exactly when it is
        # not a codimension-one face of any other simplex.
        proper_faces: set = set()
        for s in self.simplices:
            if len(s) > 1:
                proper_faces.update(combinations(s, len(s) - 1))
        return sorted(
            (s for s in self.simplices if s not in proper_faces), key=self.sort_key
        )

    def f_vector(self) -> tuple:
        return tuple(map(len, self.dimension_groups()))

    def edges(self) -> list:
        return self.simplices_of_dim(1)

    def neighbors(self, v) -> set:
        if self._neighbors is None:
            nbrs: Dict = {u: set() for u in self.vertices}
            for s in self.simplices:
                if len(s) == 2:
                    a, b = s
                    nbrs[a].add(b)
                    nbrs[b].add(a)
            self._neighbors = nbrs
        return self._neighbors[v]

    def closed_star_vertices(self, v) -> set:
        """Vertex set of the closed star of ``v`` (assumes a closed complex)."""
        return {v} | self.neighbors(v)

    def star_simplices(self, v) -> list:
        """All simplices containing ``v`` (indexed once, then cached)."""
        if self._star_index is None:
            index: Dict = {u: [] for u in self.vertices}
            for s in self.simplices:
                for u in s:
                    index[u].append(s)
            self._star_index = index
        return self._star_index[v]

    def link_subcomplex(self, v) -> "SimplicialComplex":
        """All faces of star simplices that avoid ``v`` (closed complexes)."""
        link = {s[:i] + s[i + 1:] for s in self.star_simplices(v) if len(s) > 1
                for i in (s.index(v),)}
        return self._canonical_subcomplex(link)

    def _canonical_subcomplex(self, simps: set) -> "SimplicialComplex":
        """Subcomplex on canonical simplices of this complex (faces of its
        simplices), keeping the parent vertex order."""
        verts = sorted({v for s in simps for v in s}, key=self.rank.__getitem__)
        return SimplicialComplex.from_canonical(verts, simps)

    def subcomplex(self, simplices: Iterable[Simplex]) -> "SimplicialComplex":
        """Subcomplex on the given simplices (assumed face-closed), keeping
        the parent vertex order."""
        simps = {self.canon(s) for s in simplices}
        verts = sorted({v for s in simps for v in s}, key=self.rank.__getitem__)
        return SimplicialComplex(verts, simps)

    def full_subcomplex(self, vertex_set: Iterable) -> "SimplicialComplex":
        vs = set(vertex_set)
        simps = {s for s in self.simplices if vs.issuperset(s)}
        verts = sorted(vs.intersection(self.vertices), key=self.rank.__getitem__)
        return SimplicialComplex.from_canonical(verts, simps)

    def connected_components(self) -> list:
        """Vertex sets of connected components (via edges), deterministically
        ordered by their smallest vertex rank (computed once, then cached;
        treat the list and its sets as read-only)."""
        if self._components is None:
            groups = self.dimension_groups()
            self._components = edge_components(self.vertices, groups[1] if len(groups) > 1 else ())
        return self._components

    def is_pure(self) -> bool:
        """Whether the simplices are exactly the faces of the top-dimensional
        ones."""
        return groups_are_pure(self.dimension_groups())

    def is_closed_pseudomanifold(self) -> bool:
        """Pure, every ridge in exactly two facets, and each connected
        component strongly connected through ridges."""
        if not self.simplices:
            return False
        if not self.is_pure():
            return False
        d = self.dim
        if d == 0:
            return True
        facets = self.simplices_of_dim(d)
        ridge_count: Dict = {}
        for s in facets:
            for r in combinations(s, d):
                ridge_count.setdefault(r, []).append(s)
        if any(len(fs) != 2 for fs in ridge_count.values()):
            return False
        # Strong connectivity per component of the facet adjacency graph
        # must match vertex-level connectivity.
        fparent = {s: s for s in facets}

        def ffind(x):
            while fparent[x] != x:
                fparent[x] = fparent[fparent[x]]
                x = fparent[x]
            return x

        for a, b in ridge_count.values():
            fparent[ffind(a)] = ffind(b)
        facet_groups = len({ffind(s) for s in facets})
        return facet_groups == len(self.connected_components())

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self.simplices == other.simplices
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.simplices))

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.simplices)} simplices, dim {self.dim})"


class InvolutionComplex:
    """A simplicial complex with a simplicial involution given on vertices.
    Construction checks that the involution has order 2 on the vertices and
    maps every simplex to a simplex."""

    __slots__ = ("complex", "involution")

    def __init__(self, complex: SimplicialComplex, involution: Dict):
        self.complex = complex
        self.involution = dict(involution)
        self._validate()

    def _validate(self) -> None:
        cx = self.complex
        t = self.involution
        if set(t) != set(cx.vertices):
            raise ComplexError("involution must be defined on every vertex")
        for v in cx.vertices:
            if t[v] not in cx.rank:
                raise ComplexError(f"involution image {t[v]!r} is not a vertex")
            if t[t[v]] != v:
                raise ComplexError(f"involution is not of order 2 at {v!r}")
        # A bijection of the vertices, so an image has no repeats and only
        # needs sorting by rank.
        simplices, image, rank = cx.simplices, t.__getitem__, cx.rank.__getitem__
        strays = [s for s in simplices if tuple(sorted(map(image, s), key=rank)) not in simplices]
        if strays:
            raise ComplexError(
                f"involution does not map simplex {min(strays, key=cx.sort_key)} to a simplex")

    def __repr__(self) -> str:
        return f"InvolutionComplex({self.complex!r})"


@dataclass(frozen=True)
class BarycentricPoint:
    """A point of a complex, written in the barycentric coordinates of its
    minimal carrier simplex (all coordinates strictly positive, sum 1)."""

    support: Simplex
    coords: tuple

    def coord_map(self) -> Dict:
        return dict(zip(self.support, self.coords))

    @staticmethod
    def at_vertex(v) -> "BarycentricPoint":
        return BarycentricPoint((v,), (Fraction(1),))
