"""Refinement of a verified lift until the identified sheets are separated
at the level of derived stars, not just pointwise.

Input: a non-degenerate simplicial map together with lift values whose
combined map is injective.  Output: a common refinement of source and base
on which the map is still simplicial, the same lift function re-expressed on
the refinement, and exact certificates that

* the lift values at refinement vertices agree with the input function,
* for every pair of identified refinement vertices the convex hulls of the
  lift over their closed derived stars are disjoint (with a separating
  functional as evidence), and
* the combined map on the refinement verifies as injective.

One cascade runs a stage per source dimension, and at least stages 0 and 1.
Stage 0 measures the identified original vertices; stage ``i`` measures the
identified vertices and the disjoint identified simplices of dimension at
most ``i`` that avoid every original vertex, so that the derived stars of
original vertices stay as stage 0 left them.

Every measured pair ``p = (s, t)`` gets its own radius ``r_p = sep_p / (16
Lambda_p)``: the radius ``sep_p / (4 Lambda_p)`` quartered once more so that
every comparison stays strict.  ``sep_p`` is the pair's squared separation
and ``Lambda_p`` bounds the lift's variation per unit of simplex geometry,
in the standard-basis metric of the source (an edge piece of parameter
length ``dt`` has squared length ``2 dt^2``), over the refined simplices
that meet ``s`` or ``t``: these hold every derived star of the pair's
vertices.  A base simplex takes the smallest radius of the pairs above it,
and the refinement cuts only where a pair needs it (Rourke-Sanderson,
*Introduction to PL Topology*, ch. 3, derived neighbourhoods).  Each stage
records the pairs it measured, the extremes of their separations, bounds and
radii, the refinement it added (``cuts``) and the cells of the complexes it
measured (``cells``: the input map at stage 0, what stage ``i - 1`` left at
stage ``i``).

The input's dimension selects only the refinement.  Graphs are cut edge by
edge: stage 0 cuts a base edge once near each end that carries an identified
pair, at that end's radius, and later stages cut only interior pieces, each
to the smallest radius of its own pairs and of the pairs at its two ends.
Otherwise stage 0 subdivides source and base barycentrically until every
edge is within the smallest radius, within a budget of top simplices, and a
later stage that would need refining raises ``BlockedRefinement``, since
local refinement is only implemented for graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from . import linalg, lp
from .complexes import BarycentricPoint, SimplicialComplex, Simplex
from .errors import (
    BlockedRefinement,
    DegenerateMap,
    InputNotInjective,
    InternalError,
    PreconditionError,
)
from .maps import SemiLinearMap, SimplicialMap
from .subdivision import SubdivisionRecord, barycentric_subdivide, barycentric_subdivide_map
from .verify import VerificationResult, verify_embedding

# Top simplices a barycentric round may leave in the source.  A round
# multiplies the top d-simplices by (d+1)!.  On two triangles, four rounds
# leave 2 592 triangles and the cascade takes about 10 s and 42 MiB; a fifth
# leaves 15 552 and takes over a minute and 170 MiB (2-vCPU Xeon guest,
# CPython 3.11).
TOP_SIMPLEX_BUDGET = 5000


@dataclass
class StageTrace:
    stage: int
    pair_count: int
    d_max_sq: Optional[Fraction]
    separation_sq: Optional[Fraction]
    lambda_sq: Optional[Fraction]
    r_nominal_sq: Optional[Fraction]
    r_applied_sq: Optional[Fraction]
    cuts_added: int
    w_simplices: int
    b_simplices: int


@dataclass
class HullEvidence:
    pair: Tuple
    disjoint: bool
    functional: Optional[tuple]  # (normal, lo, hi)


@dataclass
class PlifyResult:
    refined_map: SimplicialMap  # W_n -> B_n
    lift: SemiLinearMap  # input lift re-expressed on W_n
    derived_complex: SimplicialComplex  # W_n'
    derived_lift: SemiLinearMap  # the PL lift on W_n'
    positions: Dict  # W_n vertex -> BarycentricPoint in the original source
    stages: List[StageTrace]
    hull_evidence: List[HullEvidence]
    verification: VerificationResult
    vertex_agreement: bool
    hulls_disjoint: bool

    @property
    def ok(self) -> bool:
        return self.vertex_agreement and self.hulls_disjoint and self.verification.ok


def _ceil_sqrt_ratio(num: Fraction) -> int:
    """Smallest positive integer N with N^2 >= num."""
    if num <= 0:
        return 1
    c = -((-num.numerator) // num.denominator)  # ceil(num)
    n = math.isqrt(c)
    while Fraction(n * n) < num:
        n += 1
    return max(1, n)


def _metric_dist_sq(p: BarycentricPoint, q: BarycentricPoint) -> Fraction:
    """Squared distance in the standard-basis metric of the source."""
    pa, pb = p.coord_map(), q.coord_map()
    return sum((pa.get(k, 0) - pb.get(k, 0)) ** 2 for k in pa.keys() | pb.keys())


def _has_edge_longer(c: SimplicialComplex, positions: Dict, r_sq: Fraction) -> bool:
    return any(
        _metric_dist_sq(positions[a], positions[b]) > r_sq for a, b in c.simplices_of_dim(1)
    )


def _lambda_sq(s: Simplex, gvals: Dict, positions: Dict) -> Fraction:
    """``d^2 * spread / h_min`` of one simplex of the refined source:
    ``spread`` is the squared diameter of the lift values and ``h_min`` the
    smallest squared height in the standard-basis metric, restricted to the
    base vertices that the simplex's positions involve."""
    if len(s) < 2:
        return Fraction(0)
    spread = max(linalg.dist_sq(gvals[a], gvals[b]) for a, b in combinations(s, 2))
    if spread == 0:
        return Fraction(0)
    maps = [positions[v].coord_map() for v in s]
    keys = list(dict.fromkeys(k for m in maps for k in m))
    pts = [tuple(m.get(k, linalg.Q0) for k in keys) for m in maps]
    if len(pts) == 2:
        h_min = linalg.dist_sq(*pts)  # both heights of an edge are its length
    else:
        h_min = min(
            linalg.point_to_affine_hull_dist_sq(p, pts[:i] + pts[i + 1:])
            for i, p in enumerate(pts)
        )
    if not h_min:
        raise InternalError(f"degenerate metric simplex {s}")
    return (len(s) - 1) ** 2 * spread / h_min


def _stage_pairs(
    stage: int, fn: SimplicialMap, gvals: Dict, positions: Dict
) -> Tuple[StageTrace, Dict[Simplex, Fraction]]:
    """The trace of ``stage`` before it refines, and the radius each base
    simplex needs: the smallest ``r_p`` of the identified simplex pairs
    above it that ``stage`` separates.  A pair whose lift is constant on
    every simplex meeting it needs no radius."""
    # Stage 0 separates the identified original vertices; later stages
    # leave the derived stars of original vertices as stage 0 left them.
    protected = set()
    if stage:
        protected = {v for v in fn.source.vertices if len(positions[v].support) == 1}
    fibers: Dict = {}
    for d in range(stage + 1):
        for s in fn.source.simplices_of_dim(d):
            if protected.isdisjoint(s):
                fibers.setdefault(fn.image_simplex(s), []).append(s)
    star = fn.source.star_simplices
    lam_of: Dict[Simplex, Fraction] = {}
    seps: List[Fraction] = []
    lams: List[Fraction] = []
    r_noms: List[Fraction] = []
    radii: Dict[Simplex, Fraction] = {}
    for img, fiber in fibers.items():
        for s, t in combinations(fiber, 2):
            if not set(s).isdisjoint(t):
                continue
            match = fn.matched_bijection(s, t)
            sep, _ = lp.min_sq_norm_in_hull([linalg.vec_sub(gvals[match[u]], gvals[u]) for u in s])
            if sep == 0:
                raise InputNotInjective(f"identified simplices {(s, t)} carry equal lift values")
            lam = Fraction(0)
            for v in s + t:
                for c in star(v):
                    if c not in lam_of:
                        lam_of[c] = _lambda_sq(c, gvals, positions)
                    lam = max(lam, lam_of[c])
            seps.append(sep)
            lams.append(lam)
            if lam:
                r_nom = sep / (4 * lam)
                r_noms.append(r_nom)
                radii[img] = min(radii.get(img, r_nom), r_nom / 4)
    trace = StageTrace(
        stage=stage,
        pair_count=len(seps),
        d_max_sq=max(seps, default=None),
        separation_sq=min(seps, default=None),
        lambda_sq=max(lams, default=None),
        r_nominal_sq=min(r_noms, default=None),
        r_applied_sq=min(radii.values(), default=None),
        cuts_added=0,
        w_simplices=len(fn.source.simplices),
        b_simplices=len(fn.target.simplices),
    )
    return trace, radii


class _EdgeCuts:
    """Graph refinement held as cut parameters on each base edge."""

    def __init__(self, f: SimplicialMap, g: SemiLinearMap):
        self.f = f
        self.g = g
        self.l_edges = f.target.simplices_of_dim(1)
        self.k_edges = f.source.simplices_of_dim(1)
        self.cuts: Dict[Simplex, List[Fraction]] = {e: [] for e in self.l_edges}

    def _chain(self, li: int, e: Simplex) -> list:
        """The base vertices along ``e``: its ends and, between them, its cut
        vertices in order.  A cut vertex ranks after ``e``'s ends and after
        the cut vertices before it."""
        return [e[0]] + [("b", li, j) for j in range(len(self.cuts[e]))] + [e[1]]

    def _merge(self, new: Dict[Simplex, set]) -> int:
        """Merge each edge's new cut parameters into its sorted list once;
        the number that were not cuts already."""
        added = 0
        for e, ts in new.items():
            merged = sorted(ts.union(self.cuts[e]))
            added += len(merged) - len(self.cuts[e])
            self.cuts[e] = merged
        return added

    def _end_pieces(self) -> Dict:
        return {e: (ts[0], ts[-1]) if ts else None for e, ts in self.cuts.items()}

    def refine(self, stage: int, radii: Dict[Simplex, Fraction]) -> int:
        """Stage 0 cuts a base edge once near each end that has a radius, so
        that the end piece is within it; later stages cut an interior piece,
        never the first or last piece of a base edge, into equal parts within
        the smallest radius of the piece and its two ends."""
        new: Dict[Simplex, set] = {}
        if stage == 0:
            for e in self.l_edges:
                for end in e:
                    if (end,) in radii:
                        n = _ceil_sqrt_ratio(Fraction(2) / radii[(end,)])
                        if n > 1:
                            t = Fraction(1, n)
                            new.setdefault(e, set()).add(t if end == e[0] else 1 - t)
            return self._merge(new)
        ends = self._end_pieces()
        for li, e in enumerate(self.l_edges):
            ts = [Fraction(0)] + self.cuts[e] + [Fraction(1)]
            chain = self._chain(li, e)
            for i in range(1, len(ts) - 2):
                # Both ends are cut vertices, so ``(x, y)`` is canonical.
                x, y = chain[i], chain[i + 1]
                rs = [radii[k] for k in ((x,), (y,), (x, y)) if k in radii]
                dt = ts[i + 1] - ts[i]
                if rs and 2 * dt * dt > min(rs):
                    m = _ceil_sqrt_ratio(2 * dt * dt / min(rs))
                    new.setdefault(e, set()).update(ts[i] + dt * Fraction(j, m) for j in range(1, m))
        added = self._merge(new)
        after = self._end_pieces()
        for e, before in ends.items():
            if after[e] != before:
                raise InternalError(f"protected end pieces of base edge {e} were re-cut")
        return added

    def current(self) -> Tuple[SimplicialMap, Dict, Dict]:
        """Materialize W -> B, lift values, and positions from the cut lists."""
        K, L = self.f.source, self.f.target
        b_vertices = list(L.vertices)
        b_simplices = set((v,) for v in L.vertices)
        b_cut_ids: Dict[Simplex, list] = {}
        for li, e in enumerate(self.l_edges):
            chain = self._chain(li, e)
            b_cut_ids[e] = chain[1:-1]
            b_vertices.extend(chain[1:-1])
            for x, y in zip(chain, chain[1:]):
                b_simplices.add((x, y))
        for p in b_vertices:
            b_simplices.add((p,))
        B = SimplicialComplex(b_vertices, b_simplices)

        w_vertices = list(K.vertices)
        w_simplices = set((v,) for v in K.vertices)
        vm: Dict = {v: self.f.vertex_map[v] for v in K.vertices}
        gvals: Dict = {v: self.g.values[v] for v in K.vertices}
        positions: Dict = {v: BarycentricPoint.at_vertex(v) for v in K.vertices}
        for ei, ke in enumerate(self.k_edges):
            a, b = ke
            img = self.f.image_simplex(ke)
            reversed_ = self.f.vertex_map[a] != img[0]
            params = []
            for j, t in enumerate(self.cuts[img]):
                s = 1 - t if reversed_ else t
                params.append((s, b_cut_ids[img][j]))
            params.sort(key=lambda p: p[0])
            ids = []
            for jj, (s, bid) in enumerate(params):
                wid = ("w", ei, jj)
                ids.append(wid)
                vm[wid] = bid
                gvals[wid] = linalg.vec_add(
                    linalg.vec_scale(1 - s, self.g.values[a]),
                    linalg.vec_scale(s, self.g.values[b]),
                )
                positions[wid] = BarycentricPoint((a, b), (1 - s, s))
                w_vertices.append(wid)
                w_simplices.add((wid,))
            chain = [a] + ids + [b]
            for x, y in zip(chain, chain[1:]):
                w_simplices.add((x, y))
        W = SimplicialComplex(w_vertices, w_simplices)
        fn = SimplicialMap(W, B, vm, check=False)
        return fn, gvals, positions

    @staticmethod
    def derived(fn: SimplicialMap, gvals: Dict) -> Tuple[SimplicialComplex, Dict, Dict]:
        """The refined graph with the midpoint of every edge added; each
        vertex keeps its name."""
        W = fn.source
        vertices = list(W.vertices)
        simplices = set((v,) for v in W.vertices)
        values = dict(gvals)
        for e in W.simplices_of_dim(1):
            a, b = e
            mid = ("mid", e)
            vertices.append(mid)
            simplices.update({(mid,), (a, mid), (mid, b)})
            values[mid] = linalg.vec_scale(Fraction(1, 2), linalg.vec_add(gvals[a], gvals[b]))
        return SimplicialComplex(vertices, simplices), values, {v: v for v in W.vertices}


class _BarycentricRounds:
    """Refinement by global barycentric rounds of source and base."""

    def __init__(self, f: SimplicialMap, g: SemiLinearMap):
        self.g = g
        self.fn = f
        self.record = SubdivisionRecord.identity(f.source)
        self.gvals = dict(g.values)

    def refine(self, stage: int, radii: Dict[Simplex, Fraction]) -> int:
        """Stage 0 subdivides until no edge is longer than the smallest
        radius; a later stage that would need refining is blocked."""
        r_app = min(radii.values())
        rounds = 0
        while _has_edge_longer(self.fn.source, self.record.positions, r_app):
            if stage:
                raise BlockedRefinement(
                    "positive-dimensional identification strata need local "
                    "refinement, which is only implemented for graphs"
                )
            d = self.fn.source.dim
            top = len(self.fn.source.simplices_of_dim(d)) * math.factorial(d + 1)
            if top > TOP_SIMPLEX_BUDGET:
                raise BlockedRefinement(
                    f"barycentric round {rounds + 1} would leave {top} top simplices, "
                    f"over the budget of {TOP_SIMPLEX_BUDGET}"
                )
            self.fn, rec_s, _ = barycentric_subdivide_map(self.fn)
            self.record = self.record.compose(rec_s)
            rounds += 1
        self.gvals = self.record.interpolate(self.g.values)
        return rounds

    def current(self) -> Tuple[SimplicialMap, Dict, Dict]:
        return self.fn, self.gvals, self.record.positions

    @staticmethod
    def derived(fn: SimplicialMap, gvals: Dict) -> Tuple[SimplicialComplex, Dict, Dict]:
        """The barycentric subdivision; vertex ``v`` becomes ``(v,)``."""
        rec = barycentric_subdivide(fn.source)
        return rec.refined, rec.interpolate(gvals), {v: (v,) for v in fn.source.vertices}


def _star_points(derived: SimplicialComplex, values: Dict, centre) -> list:
    """Lift values at the vertices of the closed star of ``centre``."""
    star = {w for s in derived.star_simplices(centre) for w in s}
    return [values[w] for w in sorted(star, key=derived.rank.__getitem__)]


def plify(f: SimplicialMap, g: SemiLinearMap) -> PlifyResult:
    """Run the refinement cascade and produce the certified PL lift."""
    if g.source.vertices != f.source.vertices:
        raise PreconditionError("lift values are not given on the source vertices")
    if not f.is_non_degenerate():
        raise DegenerateMap(f"map collapses edges {f.degenerate_edges()[:3]}")
    if f.source.dim <= 1 and f.target.dim <= 1:
        strategy = _EdgeCuts(f, g)
    else:
        strategy = _BarycentricRounds(f, g)

    stages: List[StageTrace] = []
    for stage in range(max(f.source.dim, 1) + 1):
        trace, radii = _stage_pairs(stage, *strategy.current())
        if radii:
            trace.cuts_added = strategy.refine(stage, radii)
        stages.append(trace)

    fn, gvals, positions = strategy.current()
    lift_n = SemiLinearMap(fn.source, gvals, out_dim=g.out_dim)
    derived, g1, centre = strategy.derived(fn, gvals)
    derived_lift = SemiLinearMap(derived, g1, out_dim=g.out_dim)
    agreement = all(g1[centre[v]] == gvals[v] for v in fn.source.vertices)

    # The identified vertices: the pairs of each 0-dimensional fibre.
    vertex_pairs = [
        (u, v)
        for img, fibre in fn.fibers().items()
        if len(img) == 1
        for (u,), (v,) in combinations(fibre, 2)
    ]
    hull_evidence: List[HullEvidence] = []
    for u, v in vertex_pairs:
        functional = lp.separate_hulls(
            _star_points(derived, g1, centre[u]), _star_points(derived, g1, centre[v])
        )
        hull_evidence.append(
            HullEvidence(pair=(u, v), disjoint=functional is not None, functional=functional)
        )

    verification = verify_embedding(fn, lift_n)
    return PlifyResult(
        refined_map=fn,
        lift=lift_n,
        derived_complex=derived,
        derived_lift=derived_lift,
        positions=positions,
        stages=stages,
        hull_evidence=hull_evidence,
        verification=verification,
        vertex_agreement=agreement,
        hulls_disjoint=all(h.disjoint for h in hull_evidence),
    )
