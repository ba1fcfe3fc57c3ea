"""Simplicial maps between complexes and semi-linear (piecewise-linear on a
fixed triangulation) maps into rational Euclidean space.

A simplicial map is stored by its vertex assignment; it sends a simplex to
the set of images of its vertices.  A semi-linear map is stored by its values
on vertices and extended affinely over each simplex.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional

from . import linalg
from .complexes import BarycentricPoint, SimplicialComplex, Simplex
from .errors import CarrierError, MapError


class SimplicialMap:
    """Vertex-induced map of simplicial complexes."""

    __slots__ = ("source", "target", "vertex_map")

    def __init__(
        self,
        source: SimplicialComplex,
        target: SimplicialComplex,
        vertex_map: Dict,
        check: bool = True,
    ):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        if check:
            self._validate()

    def _validate(self) -> None:
        missing = [v for v in self.source.vertices if v not in self.vertex_map]
        if missing:
            raise MapError(f"map not defined on vertices {missing}")
        for v in self.source.vertices:
            if self.vertex_map[v] not in self.target.rank:
                raise MapError(f"image {self.vertex_map[v]!r} of {v!r} is not a target vertex")
        for s in self.source.simplices:
            img = self.image_simplex(s)
            if img not in self.target.simplices:
                raise MapError(f"image {img} of simplex {s} is not a simplex")

    def __call__(self, v):
        return self.vertex_map[v]

    def image_simplex(self, s: Simplex) -> Simplex:
        return self.target.canon(tuple(self.vertex_map[v] for v in s))

    def is_non_degenerate(self) -> bool:
        """True when no edge collapses, i.e. the map is injective on every
        simplex (equivalently dim f(s) = dim s for all s)."""
        for s in self.source.simplices:
            if len(s) == 2 and self.vertex_map[s[0]] == self.vertex_map[s[1]]:
                return False
        return True

    def degenerate_edges(self) -> list:
        return [
            s
            for s in self.source.simplices_of_dim(1)
            if self.vertex_map[s[0]] == self.vertex_map[s[1]]
        ]

    def matched_bijection(self, s: Simplex, t: Simplex) -> Optional[Dict]:
        """For simplices with the same image under a non-degenerate map, the
        unique vertex bijection s -> t commuting with the map; ``None`` when
        the images differ."""
        if self.image_simplex(s) != self.image_simplex(t):
            return None
        by_image = {self.vertex_map[w]: w for w in t}
        return {v: by_image[self.vertex_map[v]] for v in s}

    def image_complex(self) -> SimplicialComplex:
        simps = {self.image_simplex(s) for s in self.source.simplices}
        verts = sorted({v for s in simps for v in s}, key=self.target.rank.__getitem__)
        return SimplicialComplex(verts, simps)

    def fibers(self) -> Dict:
        """Map each target simplex to the sorted list of its preimage simplices."""
        out: Dict = {}
        for s in sorted(self.source.simplices, key=self.source.sort_key):
            out.setdefault(self.image_simplex(s), []).append(s)
        return out

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise MapError("composition mismatch")
        vm = {v: self.vertex_map[other.vertex_map[v]] for v in other.source.vertices}
        return SimplicialMap(other.source, self.target, vm, check=False)

    def __repr__(self) -> str:
        return f"SimplicialMap({self.source!r} -> {self.target!r})"


def combinatorially_equivalent(f: SimplicialMap, g: SimplicialMap) -> bool:
    """Same source/target complexes and the same vertex assignment."""
    return (
        f.source == g.source
        and f.target == g.target
        and all(f.vertex_map[v] == g.vertex_map[v] for v in f.source.vertices)
    )


class SemiLinearMap:
    """Map |K| -> Q^d, affine on each simplex of K, stored by vertex values."""

    __slots__ = ("source", "values", "out_dim")

    def __init__(self, source: SimplicialComplex, values: Dict, out_dim: Optional[int] = None):
        self.source = source
        self.values = {v: tuple(Fraction(x) for x in values[v]) for v in source.vertices
                       if v in values}
        missing = [v for v in source.vertices if v not in self.values]
        if missing:
            raise MapError(f"values missing on vertices {missing}")
        dims = {len(x) for x in self.values.values()}
        if len(dims) > 1:
            raise MapError("inconsistent output dimension")
        self.out_dim = out_dim if out_dim is not None else (dims.pop() if dims else 0)

    def __call__(self, bp: BarycentricPoint) -> tuple:
        acc = tuple(Fraction(0) for _ in range(self.out_dim))
        for v, c in zip(bp.support, bp.coords):
            acc = linalg.vec_add(acc, linalg.vec_scale(c, self.values[v]))
        return acc

    def at_vertex(self, v) -> tuple:
        return self.values[v]

    def is_injective_on_vertices(self) -> bool:
        return len({self.values[v] for v in self.source.vertices}) == len(self.source.vertices)

    def __repr__(self) -> str:
        return f"SemiLinearMap({self.source!r} -> Q^{self.out_dim})"


def as_semi_linear(f: SimplicialMap, realization) -> SemiLinearMap:
    """Compose a simplicial map with a geometric realization of its target."""
    return SemiLinearMap(
        f.source,
        {v: realization.coords[f.vertex_map[v]] for v in f.source.vertices},
        out_dim=realization.ambient_dim,
    )


def carrier_simplex(c: SimplicialComplex, points: Iterable[BarycentricPoint]) -> Simplex:
    """Smallest simplex of ``c`` whose geometric interior collection covers
    all the given points: the union of their supports, when it is a simplex."""
    verts: set = set()
    for bp in points:
        verts.update(bp.support)
    if not verts:
        raise CarrierError("no points given")
    cand = tuple(sorted(verts, key=c.rank.__getitem__))
    if cand not in c.simplices:
        raise CarrierError(f"support union {cand} is not a simplex")
    return cand
