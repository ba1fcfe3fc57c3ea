"""Subdivisions of simplicial complexes that remember where every new vertex
sits inside the base complex.

Two constructions are provided: full barycentric subdivision (new vertices =
barycenters of base simplices, new simplices = flags of faces), and a relative
derived subdivision that repeatedly bisects longest edges of oversized
simplices while leaving a protected subcomplex untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, Optional, Tuple

from . import linalg
from .complexes import (
    BarycentricPoint,
    GeometricComplex,
    InvolutionComplex,
    SimplicialComplex,
    Simplex,
)
from .errors import InternalError, PreconditionError
from .maps import SimplicialMap


@dataclass
class SubdivisionRecord:
    """A subdivision ``refined`` of ``base`` together with the barycentric
    position of each refined vertex inside the base complex."""

    base: SimplicialComplex
    refined: SimplicialComplex
    positions: Dict  # refined vertex -> BarycentricPoint in base

    def position(self, v) -> BarycentricPoint:
        return self.positions[v]

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


def _flags(c: SimplicialComplex) -> list:
    """All nonempty chains of simplices ordered by inclusion."""
    memo: Dict = {}

    def ending_at(s: Simplex) -> list:
        got = memo.get(s)
        if got is not None:
            return got
        out = [(s,)]
        for size in range(1, len(s)):
            for f in combinations(s, size):
                if f in c.simplices:
                    for ch in ending_at(f):
                        out.append(ch + (s,))
        memo[s] = out
        return out

    all_chains: list = []
    for s in c.sorted_simplices():
        all_chains.extend(ending_at(s))
    # The recursion above revisits shared faces via the memo, so each chain
    # appears exactly once (it is generated only from its own top simplex).
    dedup = {}
    for ch in all_chains:
        dedup[frozenset(ch)] = ch
    return list(dedup.values())


def barycentric_subdivide(c: SimplicialComplex) -> SubdivisionRecord:
    """Barycentric subdivision.  New vertex ids are the base simplices
    themselves; vertex order is by (dimension, base vertex ranks)."""
    new_vertices = c.sorted_simplices()
    refined = SimplicialComplex(new_vertices, _flags(c))
    positions = {
        s: BarycentricPoint(s, tuple(Fraction(1, len(s)) for _ in s)) for s in new_vertices
    }
    return SubdivisionRecord(c, refined, positions)


def barycentric_subdivide_map(
    f: SimplicialMap,
) -> Tuple[SimplicialMap, SubdivisionRecord, SubdivisionRecord]:
    """Barycentric subdivision of a simplicial map: the barycenter of ``s``
    goes to the barycenter of the image of ``s``."""
    rec_src = barycentric_subdivide(f.source)
    rec_tgt = barycentric_subdivide(f.target)
    vm = {s: f.image_simplex(s) for s in rec_src.refined.vertices}
    return SimplicialMap(rec_src.refined, rec_tgt.refined, vm), rec_src, rec_tgt


def barycentric_subdivide_involution(
    ic: InvolutionComplex,
) -> Tuple[InvolutionComplex, SubdivisionRecord]:
    rec = barycentric_subdivide(ic.complex)
    t = {s: ic.map_simplex(s) for s in rec.refined.vertices}
    return InvolutionComplex(rec.refined, t, check=False), rec


def stellar_bisect_edge(c: SimplicialComplex, e: Simplex, new_id) -> SimplicialComplex:
    """Bisect the edge ``e`` by starring every simplex containing it from a
    new vertex placed on that edge.  The new vertex is appended last in the
    vertex order."""
    a, b = e
    if new_id in c.rank:
        raise InternalError(f"vertex id {new_id!r} already in use")
    new_simplices = set()
    for s in c.simplices:
        if a in s and b in s:
            for size in range(0, len(s) + 1):
                for tau in combinations(s, size):
                    if a in tau and b in tau:
                        continue
                    new_simplices.add(tuple(tau) + (new_id,))
        else:
            new_simplices.add(s)
    return SimplicialComplex(c.vertices + (new_id,), new_simplices)


def _face_closure(c: SimplicialComplex, simplices: Iterable) -> set:
    closed: set = set()
    for s in simplices:
        cs = c.canon(s)
        for size in range(1, len(cs) + 1):
            closed.update(combinations(cs, size))
    return closed


def relative_derived_subdivide(
    g: GeometricComplex,
    keep: Iterable,
    r_sq: Fraction,
    max_iterations: int = 10000,
) -> Tuple[GeometricComplex, SubdivisionRecord]:
    """Refine ``g`` by longest-edge bisection until every simplex disjoint
    from the protected subcomplex has squared diameter at most ``r_sq``.

    The protected subcomplex is left bit-identical: its simplices are never
    subdivided and its vertex coordinates never move.  Simplices that touch
    the protected set (share a vertex with it) are exempt from the diameter
    bound — they form a transition collar, since a simplex spanning an intact
    protected edge can never be shorter than that edge.
    """
    r_sq = Fraction(r_sq)
    if r_sq <= 0:
        raise PreconditionError("refinement radius must be positive")
    base = g.complex
    keep_closed = _face_closure(base, keep)
    for s in keep_closed:
        if s not in base.simplices:
            raise PreconditionError(f"protected simplex {s} is not in the complex")
    keep_vertices = {v for s in keep_closed for v in s}

    cur = base
    coords = dict(g.coords)
    record = SubdivisionRecord.identity(base)
    cut_counter = 0

    def exempt(s: Simplex) -> bool:
        return any(v in keep_vertices for v in s)

    for _ in range(max_iterations):
        worst: Optional[Simplex] = None
        worst_d = r_sq
        for s in cur.simplices:
            if len(s) < 2 or exempt(s):
                continue
            d = max(linalg.dist_sq(coords[u], coords[v]) for u, v in combinations(s, 2))
            if d > worst_d or (
                d == worst_d and d > r_sq and (worst is None or cur.sort_key(s) < cur.sort_key(worst))
            ):
                worst, worst_d = s, d
        if worst is None:
            out = GeometricComplex(cur, coords, check=False)
            return out, record
        edge = min(
            (e for e in combinations(worst, 2)),
            key=lambda e: (-linalg.dist_sq(coords[e[0]], coords[e[1]]), cur.sort_key(e)),
        )
        a, b = edge
        mid_id = ("cut", cut_counter)
        cut_counter += 1
        half = Fraction(1, 2)
        mid_pos = record.point_in_base(
            BarycentricPoint(cur.canon((a, b)), (half, half))
        )
        cur = stellar_bisect_edge(cur, cur.canon((a, b)), mid_id)
        coords[mid_id] = linalg.vec_scale(half, linalg.vec_add(coords[a], coords[b]))
        positions = dict(record.positions)
        positions[mid_id] = mid_pos
        record = SubdivisionRecord(base, cur, positions)
    raise InternalError("relative subdivision did not terminate within the iteration cap")
