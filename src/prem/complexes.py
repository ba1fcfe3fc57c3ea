"""Finite abstract simplicial complexes with a stable total vertex order,
free involutions, and exact rational geometric realizations.

A simplex is canonically represented as a tuple of vertex ids sorted by the
vertex order of its complex.  The vertex order is fixed at construction time
(declaration order) and is preserved verbatim by every operation in the
library; downstream cochain-level products depend on it.

Complexes are never mutated after construction.  Derived indexes rely on
that: each complex groups its simplices by dimension once (sorting a group
the first time it is asked for in order), and each involution complex maps
its simplices under the involution once, reusing the simplex tuples it
already holds as the images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import ComplexError
from . import linalg

Simplex = Tuple  # tuple of vertex ids, sorted by vertex rank


def _subsets(s: Simplex):
    for size in range(1, len(s) + 1):
        yield from combinations(s, size)


class SimplicialComplex:
    """Finite abstract simplicial complex.

    ``simplices`` stores every simplex (not only maximal ones) as canonical
    tuples.  The constructor does *not* force closure under faces, so that
    :func:`validate_complex` can report violations; use :meth:`from_maximal`
    to build a closed complex from generators.
    """

    __slots__ = ("vertices", "rank", "simplices", "_neighbors", "_dim", "_star_index",
                 "_by_dim", "_sorted_dims")

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
        """Closure of the given simplices, with every vertex as a 0-simplex."""
        tmp = cls(vertices, [])
        closed = {(v,) for v in tmp.vertices}
        for s in maximal:
            closed.update(_subsets(tmp.canon(s)))
        return cls.from_canonical(tmp.vertices, closed)

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
                for i in range(len(s)):
                    proper_faces.add(s[:i] + s[i + 1 :])
        return sorted(
            (s for s in self.simplices if s not in proper_faces), key=self.sort_key
        )

    def f_vector(self) -> tuple:
        return tuple(map(len, self.dimension_groups()))

    def euler_characteristic(self) -> int:
        chi = 0
        for s in self.simplices:
            chi += (-1) ** (len(s) - 1)
        return chi

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

    def star_subcomplex(self, v) -> "SimplicialComplex":
        """Closed star: all simplices containing ``v`` together with their faces."""
        star = set()
        for s in self.star_simplices(v):
            star.update(_subsets(s))
        return self._canonical_subcomplex(star)

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
        ordered by their smallest vertex rank."""
        label = dict(self.rank)  # vertex -> id of its component so far
        members = {i: [v] for v, i in label.items()}
        for s in self.simplices:
            ids = set(map(label.__getitem__, s))
            if len(ids) > 1:
                # relabel the smaller components into the largest
                keep = max(ids, key=lambda i: len(members[i]))
                ids.discard(keep)
                for i in ids:
                    moved = members.pop(i)
                    members[keep].extend(moved)
                    for v in moved:
                        label[v] = keep
        comps = sorted(members.values(), key=lambda g: min(map(self.rank.__getitem__, g)))
        return [set(g) for g in comps]

    def is_pure(self) -> bool:
        """Whether the simplices are exactly the faces of the top-dimensional
        ones, compared one dimension at a time."""
        groups = self.dimension_groups()
        faces = set(groups[-1]) if groups else set()
        for d in range(len(groups) - 1, 0, -1):
            faces = {f for s in faces for f in combinations(s, d)}
            if len(faces) != len(groups[d - 1]) or not faces.issuperset(groups[d - 1]):
                return False
        return True

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


@dataclass
class ValidationReport:
    closure_violations: list = field(default_factory=list)  # (simplex, missing face)
    orphan_vertices: list = field(default_factory=list)
    duplicate_declarations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.closure_violations or self.orphan_vertices or self.duplicate_declarations)

    def lines(self) -> list:
        out = []
        for s, f in self.closure_violations:
            out.append(f"closure violation: {s} missing face {f}")
        for v in self.orphan_vertices:
            out.append(f"orphan vertex: {v}")
        for s in self.duplicate_declarations:
            out.append(f"duplicate simplex declaration: {s}")
        return out


def validate_complex(c: SimplicialComplex, declared: Optional[Sequence] = None) -> ValidationReport:
    """Total validation: closure violations, orphan vertices, and (when the
    raw declaration list is supplied, e.g. by the parser) duplicates."""
    report = ValidationReport()
    for s in c.sorted_simplices():
        if len(s) == 1:
            continue
        for f in combinations(s, len(s) - 1):
            if f not in c.simplices:
                report.closure_violations.append((s, f))
    zero = {s[0] for s in c.simplices if len(s) == 1}
    report.orphan_vertices = [v for v in c.vertices if v not in zero]
    if declared is not None:
        seen = set()
        for s in declared:
            cs = c.canon(s)
            if cs in seen:
                report.duplicate_declarations.append(cs)
            seen.add(cs)
    return report


def _simplex_involution(cx: SimplicialComplex, t: Dict) -> Tuple[Dict, list]:
    """Image of every simplex under the vertex involution ``t``, and the
    simplices whose image is not a simplex.  An image that is a simplex is
    the very tuple stored in ``cx.simplices``: each orbit pair is matched
    when its second member comes up, so only first members are canonicalised
    and no image tuple outlives the loop."""
    image: Dict = {}
    pending: Dict = {}  # canonical image not yet met -> its preimage
    for s in cx.simplices:
        partner = pending.pop(s, None)
        if partner is not None:
            image[s] = partner
            image[partner] = s
            continue
        img = cx.canon(map(t.__getitem__, s))
        if img == s:
            image[s] = s
        else:
            pending[img] = s
    strays = list(pending.values())
    for img, s in pending.items():
        image[s] = img
    return image, strays


class InvolutionComplex:
    """A simplicial complex with a simplicial involution given on vertices."""

    __slots__ = ("complex", "involution", "_image")

    def __init__(self, complex: SimplicialComplex, involution: Dict, check: bool = True):
        self.complex = complex
        self.involution = dict(involution)
        self._image: Optional[Dict] = None
        if check:
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
        self._image, strays = _simplex_involution(cx, t)
        if strays:
            raise ComplexError(f"involution does not map simplex {strays[0]} to a simplex")

    def simplex_images(self) -> Dict:
        """Every simplex mapped to its image under the involution (computed
        once, then cached; treat the dict as read-only)."""
        if self._image is None:
            self._image = _simplex_involution(self.complex, self.involution)[0]
        return self._image

    def map_simplex(self, s: Simplex) -> Simplex:
        """Image of a simplex of the complex under the involution."""
        return self.simplex_images()[s]

    def fixed_vertices(self) -> list:
        return [v for v in self.complex.vertices if self.involution[v] == v]

    def free_part(self, s: Simplex) -> tuple:
        """The vertices of ``s`` that the involution moves, in order."""
        t = self.involution
        return tuple(v for v in s if t[v] != v)

    def fixed_simplices(self) -> list:
        return sorted(
            (s for s, img in self.simplex_images().items() if img == s),
            key=self.complex.sort_key,
        )

    def is_free_on_simplices(self) -> bool:
        return not self.fixed_simplices()

    def __repr__(self) -> str:
        return f"InvolutionComplex({self.complex!r})"


@dataclass(frozen=True)
class BarycentricPoint:
    """A point of a complex, written in the barycentric coordinates of its
    minimal carrier simplex (all coordinates strictly positive, sum 1)."""

    support: Simplex
    coords: tuple

    @staticmethod
    def make(simplex: Sequence, coords: Sequence) -> "BarycentricPoint":
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) != len(tuple(simplex)):
            raise ComplexError("coordinate count does not match simplex size")
        if any(c < 0 for c in cs):
            raise ComplexError("negative barycentric coordinate")
        if sum(cs) != 1:
            raise ComplexError("barycentric coordinates must sum to 1")
        pairs = [(v, c) for v, c in zip(simplex, cs) if c > 0]
        return BarycentricPoint(tuple(v for v, _ in pairs), tuple(c for _, c in pairs))

    def coord_map(self) -> Dict:
        return dict(zip(self.support, self.coords))

    @staticmethod
    def at_vertex(v) -> "BarycentricPoint":
        return BarycentricPoint((v,), (Fraction(1),))


class GeometricComplex:
    """A simplicial complex realized in Q^d with every simplex embedded."""

    __slots__ = ("complex", "coords", "ambient_dim")

    def __init__(self, complex: SimplicialComplex, coords: Dict, check: bool = True):
        self.complex = complex
        self.coords = {v: tuple(Fraction(x) for x in coords[v]) for v in complex.vertices}
        dims = {len(c) for c in self.coords.values()}
        if len(dims) > 1:
            raise ComplexError("inconsistent ambient dimension")
        self.ambient_dim = dims.pop() if dims else 0
        if check:
            for s in complex.maximal_simplices():
                if not linalg.affinely_independent([self.coords[v] for v in s]):
                    raise ComplexError(f"simplex {s} is not embedded")

    def point(self, bp: BarycentricPoint) -> tuple:
        acc = tuple(Fraction(0) for _ in range(self.ambient_dim))
        for v, c in zip(bp.support, bp.coords):
            acc = linalg.vec_add(acc, linalg.vec_scale(c, self.coords[v]))
        return acc

    def locate(self, point: Sequence) -> Optional[BarycentricPoint]:
        """Minimal simplex containing the point, with its coordinates, or
        ``None`` when the point lies outside the realization."""
        p = linalg.vec(point)
        for s in self.complex.sorted_simplices():
            pts = [self.coords[v] for v in s]
            rows = [[pts[j][i] for j in range(len(s))] for i in range(self.ambient_dim)]
            rows.append([Fraction(1)] * len(s))
            rhs = list(p) + [Fraction(1)]
            sol = linalg.solve(rows, rhs)
            if sol is None:
                continue
            # The simplex is embedded, so the system has at most one solution.
            if all(c >= 0 for c in sol):
                # verify exactly (solve() ignores redundant rows consistently)
                chk = tuple(Fraction(0) for _ in range(self.ambient_dim))
                for c, v in zip(sol, s):
                    chk = linalg.vec_add(chk, linalg.vec_scale(c, self.coords[v]))
                if chk == tuple(p):
                    return BarycentricPoint.make(s, sol)
        return None

    def simplex_diameter_sq(self, s: Iterable) -> Fraction:
        cs = self.complex.canon(s)
        if cs not in self.complex.simplices:
            raise ComplexError(f"unknown simplex {cs}")
        best = Fraction(0)
        for a, b in combinations(cs, 2):
            d = linalg.dist_sq(self.coords[a], self.coords[b])
            if d > best:
                best = d
        return best

    def mesh_sq(self) -> Fraction:
        return max((self.simplex_diameter_sq(s) for s in self.complex.simplices), default=Fraction(0))


def standard_basis_realization(c: SimplicialComplex) -> GeometricComplex:
    """Realize a complex by sending its vertices to standard basis vectors."""
    n = len(c.vertices)
    coords = {}
    for i, v in enumerate(c.vertices):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        coords[v] = tuple(e)
    return GeometricComplex(c, coords, check=False)
