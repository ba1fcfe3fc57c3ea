"""Simplicial maps between complexes and semi-linear (piecewise-linear on a
fixed triangulation) maps into rational Euclidean space.

A simplicial map is stored by its vertex assignment; it sends a simplex to
the set of images of its vertices.  A semi-linear map is stored by its values
on vertices and extended affinely over each simplex.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional

from . import linalg
from .complexes import BarycentricPoint, SimplicialComplex, Simplex
from .errors import MapError


class SimplicialMap:
    """Vertex-induced map of simplicial complexes.

    The image of every source simplex is computed once, when the map is
    checked (or on first use when it is not), and indexed as the target's
    own stored tuple, so the index holds no new tuples.  An image that is
    not a target simplex is an error either way.  The fibres are grouped
    once, on first use."""

    __slots__ = ("source", "target", "vertex_map", "_images", "_fibers")

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
        self._images: Optional[Dict] = None
        self._fibers: Optional[Dict] = None
        if check:
            self._validate()

    def _validate(self) -> None:
        missing = [v for v in self.source.vertices if v not in self.vertex_map]
        if missing:
            raise MapError(f"map not defined on vertices {missing}")
        for v in self.source.vertices:
            if self.vertex_map[v] not in self.target.rank:
                raise MapError(f"image {self.vertex_map[v]!r} of {v!r} is not a target vertex")
        self.image_index()

    def __call__(self, v):
        return self.vertex_map[v]

    def image_index(self) -> Dict:
        """Every source simplex mapped to the stored target simplex that is
        its image, found by vertex set (computed once, then cached; treat
        the dict as read-only)."""
        if self._images is None:
            stored = {frozenset(s): s for s in self.target.simplices}
            vm = self.vertex_map
            images: Dict = {}
            for s in self.source.simplices:
                img = stored.get(frozenset(map(vm.__getitem__, s)))
                if img is None:
                    img = self.target.canon(map(vm.__getitem__, s))
                    raise MapError(f"image {img} of simplex {s} is not a simplex")
                images[s] = img
            self._images = images
        return self._images

    def image_simplex(self, s: Simplex) -> Simplex:
        """Image of a simplex of the source."""
        return self.image_index()[s]

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
        images = self.image_index()
        if images[s] != images[t]:
            return None
        by_image = {self.vertex_map[w]: w for w in t}
        return {v: by_image[self.vertex_map[v]] for v in s}

    def fibers(self) -> Dict:
        """Map each target simplex to the sorted list of its preimage
        simplices (computed once, then cached; treat the dict and its lists
        as read-only)."""
        if self._fibers is None:
            images = self.image_index()
            out: Dict = {}
            for s in self.source.sorted_simplices():
                out.setdefault(images[s], []).append(s)
            self._fibers = out
        return self._fibers

    def __repr__(self) -> str:
        return f"SimplicialMap({self.source!r} -> {self.target!r})"


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

    def __repr__(self) -> str:
        return f"SemiLinearMap({self.source!r} -> Q^{self.out_dim})"
