"""Quotients of complexes by free involutions and the GF(2) cochain algebra
used to obstruct equivariant maps to spheres.

The quotient construction requires two regularity conditions so that the
quotient of the simplex set is again a simplicial complex whose simplices are
determined by their vertex sets: (R1) no simplex contains both a vertex and
its involution image, and (R2) the fiber over every candidate quotient
simplex is exactly one orbit pair.  When either fails, the complex is
barycentrically subdivided (the involution lifts to barycenters) and the
check is retried; two rounds always suffice for a free involution.

The double cover upstairs is classified by a 1-cocycle on the quotient: fix
in each vertex orbit a preferred representative (the one earlier in the
vertex order); an edge of the quotient gets value 0 when the unique upstairs
edge starting at the representative of one end lands on the representative of
the other, and 1 when it lands on the swapped lift.  The largest k for which
the k-th cup power of this class survives in mod-2 cohomology is the height
invariant computed by :func:`yang_index`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional

from . import gf2
from .complexes import InvolutionComplex, SimplicialComplex, Simplex
from .errors import InternalError, PreconditionError
from .subdivision import SubdivisionRecord, barycentric_subdivide_involution


# -- quotient by a free involution ------------------------------------------


@dataclass
class QuotientResult:
    upstairs: InvolutionComplex  # possibly subdivided input
    quotient: SimplicialComplex
    projection: Dict  # upstairs vertex -> quotient vertex (= preferred rep)
    representative: Dict  # quotient vertex -> its preferred upstairs lift
    subdivision_rounds: int
    record: SubdivisionRecord  # original upstairs complex -> final upstairs


def _orbit_fibres(ic: InvolutionComplex) -> Dict[FrozenSet[int], list]:
    """Simplices grouped by the set of vertex orbits they meet, each orbit
    named by the smaller rank of its two vertices."""
    cx = ic.complex
    rank = cx.rank
    t = ic.involution
    orbit = {v: min(rank[v], rank[t[v]]) for v in cx.vertices}
    fibres: Dict[FrozenSet[int], list] = {}
    for s in cx.simplices:
        fibres.setdefault(frozenset(map(orbit.__getitem__, s)), []).append(s)
    return fibres


def _regularity_failures(ic: InvolutionComplex, fibres: Dict[FrozenSet[int], list]) -> List[str]:
    cx = ic.complex
    t = ic.involution
    image = ic.simplex_images()
    # (R1) a simplex contains a vertex and its image when it meets an orbit
    # twice or contains a fixed vertex
    fixed = {v for v in cx.vertices if t[v] == v}
    own_orbit = [s for key, fibre in fibres.items() for s in fibre
                 if len(s) > len(key) or not fixed.isdisjoint(s)]
    failures = [f"simplex {s} meets its own involution orbit"
                for s in sorted(own_orbit, key=cx.sort_key)]
    # (R2) fibers of the vertex-orbit image must be exactly {s, t(s)}
    for fibre in fibres.values():
        if len(fibre) > 2:
            failures.append(f"fiber {sorted(map(tuple, fibre))} has more than one orbit pair")
        elif len(fibre) == 2 and image[fibre[0]] != fibre[1]:
            failures.append(f"simplices {fibre[0]} and {fibre[1]} are identified but not swapped")
    return failures


def quotient_regularity_failures(ic: InvolutionComplex) -> List[str]:
    """Empty when the orbit map of simplices yields a simplicial complex."""
    return _regularity_failures(ic, _orbit_fibres(ic))


def quotient_by_free_involution(ic: InvolutionComplex, max_rounds: int = 2) -> QuotientResult:
    """Quotient complex of a free involution, subdividing until regular."""
    if not ic.is_free_on_simplices():
        raise PreconditionError(
            f"involution is not free: fixed simplices {ic.fixed_simplices()[:3]}"
        )
    record = SubdivisionRecord.identity(ic.complex)
    current = ic
    rounds = 0
    while True:
        fibres = _orbit_fibres(current)
        if not _regularity_failures(current, fibres):
            break
        if rounds >= max_rounds:
            raise InternalError("quotient did not become regular within the subdivision budget")
        current, rec = barycentric_subdivide_involution(current)
        record = record.compose(rec)
        rounds += 1

    # Each orbit is represented by its earlier vertex, so a quotient simplex
    # is the rank-sorted set of orbit ranks its fibre meets.
    cx = current.complex
    t = current.involution
    proj: Dict = {}
    for v in cx.vertices:
        w = t[v]
        proj[v] = v if cx.rank[v] <= cx.rank[w] else w
    rep = {r: r for r in proj.values()}
    q_vertices = sorted(rep, key=cx.rank.__getitem__)
    q_simplices = {tuple(map(cx.vertices.__getitem__, sorted(key))) for key in fibres}
    quotient = SimplicialComplex.from_canonical(q_vertices, q_simplices)
    return QuotientResult(
        upstairs=current,
        quotient=quotient,
        projection=proj,
        representative=rep,
        subdivision_rounds=rounds,
        record=record,
    )


def w1_cocycle(qr: QuotientResult) -> Dict[Simplex, int]:
    """The 1-cocycle on the quotient classifying the double cover.  The
    cocycle condition is verified on every quotient triangle."""
    up = qr.upstairs.complex
    rank = up.rank
    t = qr.upstairs.involution
    w: Dict[Simplex, int] = {}
    for e in qr.quotient.simplices_of_dim(1):
        a, b = e  # both are preferred representatives upstairs, a before b
        tb = t[b]
        straight = e in up.simplices
        swapped = ((a, tb) if rank[a] < rank[tb] else (tb, a)) in up.simplices
        if not (straight or swapped):
            raise InternalError(f"no upstairs edge over quotient edge {e}")
        # exactly one lift at the representative of the lower-ranked end
        if straight and swapped:
            raise InternalError(f"two upstairs edges at one representative over {e}")
        w[e] = 0 if straight else 1
    for tri in qr.quotient.simplices_of_dim(2):
        u, v, x = tri
        if (w[(u, v)] + w[(v, x)] + w[(u, x)]) % 2 != 0:
            raise InternalError(f"classifying cochain is not a cocycle on {tri}")
    return w


# -- cochain algebra over GF(2) ---------------------------------------------


class CochainSpace:
    """Indexed mod-2 cochains of a fixed complex, with cup products taken in
    the complex's canonical vertex order."""

    def __init__(self, c: SimplicialComplex):
        self.complex = c
        self._index: Dict[int, Dict[Simplex, int]] = {}
        self._lists: Dict[int, list] = {}

    def simplices(self, q: int) -> list:
        if q not in self._lists:
            self._lists[q] = self.complex.simplices_of_dim(q)
            self._index[q] = {s: i for i, s in enumerate(self._lists[q])}
        return self._lists[q]

    def index(self, q: int) -> Dict[Simplex, int]:
        self.simplices(q)
        return self._index[q]

    def pack(self, q: int, support: Dict) -> int:
        """Bits of a q-cochain given on canonical q-simplices."""
        idx = self.index(q)
        bits = 0
        for s, val in support.items():
            if val & 1:
                bits |= 1 << idx[s]
        return bits

    def ones(self, q: int) -> int:
        return (1 << len(self.simplices(q))) - 1

    def coboundary_rows(self, q: int) -> list:
        """Rows indexed by (q+1)-simplices over q-simplex columns."""
        idx = self.index(q)
        rows = []
        for s in self.simplices(q + 1):
            bits = 0
            for f in combinations(s, q + 1):
                bits |= 1 << idx[f]
            rows.append(bits)
        return rows

    def is_cocycle(self, bits: int, q: int) -> bool:
        idx = self.index(q)
        for s in self.simplices(q + 1):
            parity = 0
            for f in combinations(s, q + 1):
                parity ^= (bits >> idx[f]) & 1
            if parity:
                return False
        return True

    def is_coboundary(self, bits: int, q: int) -> bool:
        """Whether a q-cochain is the coboundary of a (q-1)-cochain."""
        if q == 0:
            return bits == 0
        if q == 1:
            return self._one_cochain_has_potential(bits)
        rows = self.coboundary_rows(q - 1)
        idx = self.index(q)
        rhs = [(bits >> idx[s]) & 1 for s in self.simplices(q)]
        return gf2.solve_gf2(rows, rhs, len(self.simplices(q - 1))) is not None

    def _one_cochain_has_potential(self, bits: int) -> bool:
        """Spanning-forest potentials: f = d(phi) for a 0-cochain phi."""
        c = self.complex
        rank = c.rank
        idx = self.index(1)
        phi: Dict = {}
        for root in c.vertices:
            if root in phi:
                continue
            phi[root] = 0
            stack = [root]
            while stack:
                u = stack.pop()
                for v in c.neighbors(u):
                    val = (bits >> idx[(u, v) if rank[u] < rank[v] else (v, u)]) & 1
                    if v in phi:
                        if phi[v] != phi[u] ^ val:
                            return False
                    else:
                        phi[v] = phi[u] ^ val
                        stack.append(v)
        return True

    def cup(self, f_bits: int, p: int, g_bits: int, q: int) -> int:
        """Alexander-Whitney cup product of a p- and a q-cochain."""
        fi = self.index(p)
        gi = self.index(q)
        out = 0
        for i, s in enumerate(self.simplices(p + q)):
            front = s[: p + 1]
            back = s[p:]
            if (f_bits >> fi[front]) & 1 and (g_bits >> gi[back]) & 1:
                out |= 1 << i
        return out

    def one_cocycle_power(self, w_bits: int, k: int) -> int:
        """k-th cup power of a 1-cochain, evaluated directly as the product
        of consecutive-edge values along each k-simplex."""
        if k == 0:
            return self.ones(0)
        idx1 = self.index(1)
        out = 0
        for i, s in enumerate(self.simplices(k)):
            val = 1
            for j in range(k):
                val &= (w_bits >> idx1[(s[j], s[j + 1])]) & 1
                if not val:
                    break
            if val:
                out |= 1 << i
        return out


def yang_index(quotient: SimplicialComplex, w_edges: Dict[Simplex, int]) -> int:
    """Largest k such that the k-th cup power of the classifying class is
    nonzero in mod-2 cohomology; -1 for the empty complex."""
    if not quotient.simplices:
        return -1
    space = CochainSpace(quotient)
    w_bits = 0
    if quotient.dim >= 1:
        w_bits = space.pack(1, w_edges)
        if not space.is_cocycle(w_bits, 1):
            raise InternalError("classifying cochain is not a cocycle")
    k = 0
    while k < quotient.dim:
        power = space.one_cocycle_power(w_bits, k + 1)
        if power == 0 or space.is_coboundary(power, k + 1):
            return k
        k += 1
    return k


# -- component analysis of an involution complex -----------------------------


@dataclass
class ComponentReport:
    components: List[set]
    invariant_flags: List[bool]

    @property
    def invariant_count(self) -> int:
        return sum(self.invariant_flags)

    @property
    def parity(self) -> int:
        return self.invariant_count % 2


def component_report(ic: InvolutionComplex) -> ComponentReport:
    comps = ic.complex.connected_components()
    t = ic.involution
    flags = [{t[v] for v in comp} == comp for comp in comps]
    return ComponentReport(components=comps, invariant_flags=flags)


# -- trivial double covers ---------------------------------------------------


def sheet_split(ic: InvolutionComplex) -> Optional[set]:
    """One sheet of a trivial double cover: the union of one component from
    each pair that the involution swaps, the earlier of the two in component
    order.  ``None`` when some component is mapped onto itself.  The
    involution maps components onto components, so one vertex per component
    tells whether it is invariant; with no invariant component the
    involution is free, R1 and R2 hold, and the sheet is a copy of the
    quotient."""
    t = ic.involution
    sheet: set = set()
    for comp in ic.complex.connected_components():
        v = next(iter(comp))
        if t[v] in comp:
            return None
        if t[v] not in sheet:
            sheet |= comp
    return sheet


def is_sheet_split(ic: InvolutionComplex, sheet: set) -> bool:
    """Whether ``sheet`` holds exactly one vertex of every orbit and, for
    every simplex, either all of its vertices or none: the certificate that
    the double cover is trivial, checked in one pass over the simplices."""
    t = ic.involution
    if any((v in sheet) == (t[v] in sheet) for v in ic.complex.vertices):
        return False
    for s in ic.complex.simplices:
        side = s[0] in sheet
        if any((v in sheet) != side for v in s[1:]):
            return False
    return True
