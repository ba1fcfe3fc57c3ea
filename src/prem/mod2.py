"""Quotients of complexes by free cyclic actions and the GF(2) cochain
algebra used to obstruct equivariant maps to spheres.

A cyclic action is given by its generator on vertices.  The orbit map of
simplices is a simplicial quotient, with each simplex determined by its
vertex set, under two regularity conditions: (R1) no simplex meets a vertex
orbit twice or contains a vertex whose orbit is shorter than the order, and
(R2) the simplices over every candidate quotient simplex form one orbit.
When either fails, the complex is barycentrically subdivided (the action
lifts to barycenters) and the check is retried; two rounds always suffice
for an action of any order that is free on simplices (Bredon, *Introduction
to Compact Transformation Groups*, III.1).  The lens-space quotients of the
join sphere are built this way; a pair model reads its swap quotient, which
needs no subdivision, off its walk.

The rounds run on vertex ranks.  The complex and the action are translated
to ranks once; a round renumbers the refined vertices, vertex i being the
i-th base simplex in ``sort_key`` order, so that every flag is an increasing
rank tuple and every simplex image is a sorted rank tuple.  The vertex
labels, the nested base simplices that :func:`subdivision.barycentric_subdivide`
gives as ids, ride along as a list.

A double cover is classified by a 1-cocycle ``w1`` on its quotient, which
the pair model supplies.  The largest k for which the k-th cup power of
this class survives in mod-2 cohomology is the height invariant computed by
:func:`yang_index`.  A 1-cochain is a coboundary when spanning-forest
potentials fit it; a higher one when its coboundary equations, streamed one
per simplex into :func:`gf2.row_basis`, are consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import gf2
from .complexes import SimplicialComplex, Simplex
from .errors import InternalError, PreconditionError
from .subdivision import rank_subdivide

# Barycentric subdivisions after which an action free on simplices is regular.
SUBDIVISION_ROUNDS = 2


# -- quotient by a free cyclic action -----------------------------------------


@dataclass
class RankQuotient:
    """An orbit quotient on vertex ranks.  The upstairs vertices are the
    ranks ``0 .. n-1``, the quotient vertices are the ranks of the orbit
    representatives, and ``labels`` names each rank by its vertex id: an
    input vertex, or after a round the nested base simplex that
    barycentric subdivision gives as id."""

    upstairs: SimplicialComplex
    action: List[int]  # rank -> rank of its image
    quotient: SimplicialComplex
    projection: List[int]  # rank -> rank of its orbit's earliest vertex
    labels: Sequence
    subdivision_rounds: int


def _ranked(cx: SimplicialComplex, action: Dict) -> Tuple[SimplicialComplex, List[int]]:
    """The complex and the action translated to vertex ranks."""
    rank = cx.rank
    act = []
    for v in cx.vertices:
        if v not in action:
            raise PreconditionError(f"the action is not defined at vertex {v!r}")
        w = rank.get(action[v])
        if w is None:
            raise PreconditionError(f"the action sends vertex {v!r} to {action[v]!r}, not a vertex")
        act.append(w)
    simplices = (tuple(map(rank.__getitem__, s)) for s in cx.simplices)
    return SimplicialComplex.from_canonical(range(len(act)), simplices), act


def _regularity(
    cx: SimplicialComplex, act: List[int], order: int, labels: Sequence
) -> Tuple[List[str], List[int], Dict, Dict[FrozenSet[int], list]]:
    """On a complex whose vertices are the ranks ``0 .. n-1``: the failures
    of R1 and R2, naming vertices by ``labels``; every vertex mapped to the
    earliest vertex of its orbit; every simplex mapped to its image; and the
    simplices grouped by the set of orbits they meet."""
    orbit = [-1] * len(act)
    short: set = set()
    for v in cx.vertices:  # in rank order, so ``v`` is the earliest of a new orbit
        if orbit[v] >= 0:
            continue
        members = [v]
        w = act[v]
        while w != v and len(members) < order:
            members.append(w)
            w = act[w]
        if w != v or order % len(members):
            raise PreconditionError(
                f"the action does not have order {order} at vertex {labels[v]!r}")
        for u in members:
            orbit[u] = v
        if len(members) < order:
            short.update(members)
    simplices = cx.simplices
    image: Dict = {}
    fibres: Dict[FrozenSet[int], list] = {}
    own = []
    for s in simplices:
        img = tuple(sorted(map(act.__getitem__, s)))
        if img not in simplices:
            raise PreconditionError(
                f"the action does not map simplex {tuple(map(labels.__getitem__, s))} to a simplex")
        image[s] = img
        key = frozenset(map(orbit.__getitem__, s))
        fibres.setdefault(key, []).append(s)
        if len(key) < len(s) or short and not short.isdisjoint(s):
            own.append(s)

    def named(group: list) -> list:
        return [tuple(map(labels.__getitem__, s)) for s in sorted(group, key=cx.sort_key)]

    failures = [f"simplex {s} meets its own orbit" for s in named(own)]
    # A fibre is a union of simplex orbits, so it is one orbit exactly when
    # it is no larger than the orbit of its first simplex.
    split = []
    for fibre in fibres.values():
        first = fibre[0]
        size = 1
        s = image[first]
        while s != first:
            size += 1
            s = image[s]
        if len(fibre) > size:
            split.append(fibre)
    # The fibres come in the order of a hashed walk; report them by their
    # least simplex instead.
    split.sort(key=lambda fibre: min(map(cx.sort_key, fibre)))
    failures += [f"fibre {named(fibre)} is not one orbit of simplices" for fibre in split]
    return failures, orbit, image, fibres


def rank_orbit_quotient(cx: SimplicialComplex, action: Dict, order: int) -> RankQuotient:
    """Quotient by a cyclic action of the given order that is free on
    simplices, subdividing until the action is regular, on vertex ranks."""
    labels = cx.vertices
    cx, act = _ranked(cx, action)
    rounds = 0
    while True:
        failures, orbit, image, fibres = _regularity(cx, act, order, labels)
        if not failures:
            break
        if rounds == SUBDIVISION_ROUNDS:
            raise InternalError(f"quotient not regular after {rounds} subdivisions: {failures[0]}")
        # Refined vertex i is the i-th base simplex, so the simplex images
        # are the action on the refined vertices.
        index, cx = rank_subdivide(cx)
        act = [index[image[s]] for s in index]
        labels = [tuple(map(labels.__getitem__, s)) for s in index]
        rounds += 1

    # Each orbit is named by its earliest vertex, so a quotient simplex is
    # the sorted set of orbit ranks its fibre meets.
    quotient = SimplicialComplex.from_canonical(
        [v for v in cx.vertices if orbit[v] == v], (tuple(sorted(key)) for key in fibres))
    return RankQuotient(cx, act, quotient, orbit, labels, rounds)


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
        # One equation per q-simplex s: the sum of x over the faces of s is
        # the cochain's value on s.  The value sits in bit 0 and face i in
        # bit i + 1, so the system is solvable iff no combination of the
        # rows is the bare value bit.
        idx = self.index(q - 1)

        def rows():
            for i, s in enumerate(self.simplices(q)):
                row = (bits >> i) & 1
                for f in combinations(s, q):
                    row |= 2 << idx[f]
                yield row

        return 0 not in gf2.row_basis(rows())

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


# -- trivial double covers ---------------------------------------------------


def sheet_split(components: Sequence[set], involution: Dict) -> Optional[set]:
    """One sheet of a trivial double cover: the union of one component from
    each pair that the involution swaps, the earlier of the two in the order
    of ``components`` (the vertex sets of the connected components).
    ``None`` when some component is mapped onto itself.  The involution maps
    components onto components, so one vertex per component tells whether it
    is invariant; with no invariant component the involution is free, R1 and
    R2 hold, and the sheet is a copy of the quotient."""
    t = involution
    sheet: set = set()
    for comp in components:
        v = next(iter(comp))
        if t[v] in comp:
            return None
        if t[v] not in sheet:
            sheet |= comp
    return sheet


def is_sheet_split(involution: Dict, vertices: Iterable, cells: Iterable, sheet: set) -> bool:
    """Whether ``sheet`` holds exactly one vertex of every orbit and, for
    every cell, either all of its vertices or none: the certificate that the
    double cover is trivial, checked in one pass over the cells.  Once every
    orbit is split, the swap image of a cell inside the sheet lies outside
    it and the other way round, so the answer for a cell's image is the
    complement of its own: ``cells`` may hold every simplex of a complex or
    just one cell of each swap orbit."""
    t = involution
    if any((v in sheet) == (t[v] in sheet) for v in vertices):
        return False
    return all(sheet.issuperset(s) or sheet.isdisjoint(s) for s in cells)
