"""Subdivisions of simplicial complexes that remember where every new vertex
sits inside the base complex.

The construction is full barycentric subdivision: new vertices are the
barycenters of base simplices, new simplices are flags of faces.  It applies
to complexes and to simplicial maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Optional, Tuple

from . import linalg
from .complexes import BarycentricPoint, SimplicialComplex, Simplex
from .maps import SimplicialMap


@dataclass
class SubdivisionRecord:
    """A subdivision ``refined`` of ``base`` together with the barycentric
    position of each refined vertex inside the base complex."""

    base: SimplicialComplex
    refined: SimplicialComplex
    positions: Dict  # refined vertex -> BarycentricPoint in base

    def point_in_base(self, bp: BarycentricPoint) -> BarycentricPoint:
        """Express a point of the refined complex in base coordinates."""
        acc: Dict = {}
        for v, c in zip(bp.support, bp.coords):
            pos = self.positions[v]
            for u, w in zip(pos.support, pos.coords):
                acc[u] = acc.get(u, Fraction(0)) + c * w
        support = sorted((u for u, w in acc.items() if w > 0), key=self.base.rank.__getitem__)
        return BarycentricPoint(tuple(support), tuple(acc[u] for u in support))

    def interpolate(self, base_values: Dict) -> Dict:
        """Extend values given on base vertices affinely to refined vertices."""
        out: Dict = {}
        for v in self.refined.vertices:
            pos = self.positions[v]
            acc = None
            for u, w in zip(pos.support, pos.coords):
                term = linalg.vec_scale(w, base_values[u])
                acc = term if acc is None else linalg.vec_add(acc, term)
            out[v] = acc
        return out

    def compose(self, finer: "SubdivisionRecord") -> "SubdivisionRecord":
        """Record for base -> finer.refined, given finer refines self.refined."""
        positions = {v: self.point_in_base(finer.positions[v]) for v in finer.refined.vertices}
        return SubdivisionRecord(self.base, finer.refined, positions)

    @staticmethod
    def identity(c: SimplicialComplex) -> "SubdivisionRecord":
        return SubdivisionRecord(c, c, {v: BarycentricPoint.at_vertex(v) for v in c.vertices})


def _flags(c: SimplicialComplex, index: Optional[Dict] = None) -> list:
    """All nonempty chains of simplices ordered by inclusion, each listed
    bottom-up; with ``index``, every simplex of a chain is written as its
    entry there."""
    memo: Dict = {}

    def ending_at(s: Simplex) -> list:
        got = memo.get(s)
        if got is not None:
            return got
        top = (s if index is None else index[s],)
        out = [top]
        for size in range(1, len(s)):
            for f in combinations(s, size):
                if f in c.simplices:
                    for ch in ending_at(f):
                        out.append(ch + top)
        memo[s] = out
        return out

    # The recursion revisits shared faces via the memo, and each chain is
    # generated only from its own top simplex, so none appears twice.
    return [ch for s in c.sorted_simplices() for ch in ending_at(s)]


def barycentric_subdivide(c: SimplicialComplex) -> SubdivisionRecord:
    """Barycentric subdivision.  New vertex ids are the base simplices
    themselves; vertex order is by (dimension, base vertex ranks).  A flag
    lists its faces bottom-up, so by increasing dimension: it is already
    canonical in that order."""
    new_vertices = c.sorted_simplices()
    refined = SimplicialComplex.from_canonical(new_vertices, _flags(c))
    positions = {
        s: BarycentricPoint(s, tuple(Fraction(1, len(s)) for _ in s)) for s in new_vertices
    }
    return SubdivisionRecord(c, refined, positions)


def rank_subdivide(c: SimplicialComplex) -> Tuple[Dict, SimplicialComplex]:
    """Barycentric subdivision with integer vertex ids: refined vertex i is
    the i-th base simplex in ``sort_key`` order, the vertex order of
    :func:`barycentric_subdivide`, so every flag is an increasing tuple of
    refined vertices.  Returns the base simplices mapped to their refined
    vertices, in that order, and the refined complex."""
    index = {s: i for i, s in enumerate(c.sorted_simplices())}
    return index, SimplicialComplex.from_canonical(range(len(index)), _flags(c, index))


def barycentric_subdivide_map(
    f: SimplicialMap,
) -> Tuple[SimplicialMap, SubdivisionRecord, SubdivisionRecord]:
    """Barycentric subdivision of a simplicial map: the barycenter of ``s``
    goes to the barycenter of the image of ``s``."""
    rec_src = barycentric_subdivide(f.source)
    rec_tgt = barycentric_subdivide(f.target)
    vm = {s: f.image_simplex(s) for s in rec_src.refined.vertices}
    return SimplicialMap(rec_src.refined, rec_tgt.refined, vm), rec_src, rec_tgt
