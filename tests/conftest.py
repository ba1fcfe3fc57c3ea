"""Shared builders and oracles for the test suite."""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict

import pytest

from prem import linalg, lp, mod2
from prem.complexes import InvolutionComplex, SimplicialComplex, Simplex
from prem.errors import InternalError, PreconditionError


def F(x) -> Fraction:
    return Fraction(x)


def euler_characteristic(c: SimplicialComplex) -> int:
    return sum((-1) ** (len(s) - 1) for s in c.simplices)


def regularity_failures(cx: SimplicialComplex, action: dict, order: int) -> list:
    """The R1/R2 failures of the orbit map of a cyclic action; empty when
    the orbit map of simplices yields a simplicial complex."""
    return mod2._regularity(*mod2._ranked(cx, action), order, cx.vertices)[0]


# -- the quotient of a stored free involution ------------------------------------
#
# The library decides pair models only, from their walk.  A stored involution
# complex is decided here instead: its quotient comes from the labelled orbit
# quotient and its ``w1`` from reading the upstairs edges.  These are the
# oracles of the walked quotient, and the route by which complexes that are
# no pair model (the flipped torus, the cross-polytopes, ...) reach the
# verdict.


@dataclass
class QuotientResult:
    upstairs: SimplicialComplex  # the input, subdivided ``subdivision_rounds`` times
    action: Dict  # the generator of the action on the upstairs vertices
    quotient: SimplicialComplex
    projection: Dict  # upstairs vertex -> quotient vertex (its orbit's earliest)
    subdivision_rounds: int


def orbit_quotient(cx: SimplicialComplex, action: Dict, order: int) -> QuotientResult:
    """Quotient by a cyclic action of the given order that is free on
    simplices, subdividing until the action is regular.  The rounds run on
    vertex ranks; the labels are attached once, at the end, and when no
    round ran the upstairs complex is the input itself."""
    rq = mod2.rank_orbit_quotient(cx, action, order)
    labels = rq.labels
    if rq.subdivision_rounds:
        cx = rq.upstairs.renamed(labels)
        action = dict(zip(labels, map(labels.__getitem__, rq.action)))
    return QuotientResult(
        upstairs=cx,
        action=action,
        quotient=rq.quotient.renamed(labels),
        projection=dict(zip(labels, map(labels.__getitem__, rq.projection))),
        subdivision_rounds=rq.subdivision_rounds,
    )


def fixed_simplices(ic: InvolutionComplex) -> list:
    """The simplices that the involution maps onto themselves, in order."""
    cx, t = ic.complex, ic.involution
    return sorted((s for s in cx.simplices if cx.canon(map(t.__getitem__, s)) == s),
                  key=cx.sort_key)


def quotient_by_free_involution(ic: InvolutionComplex) -> QuotientResult:
    """Quotient complex of a free involution, subdividing until regular."""
    fixed = fixed_simplices(ic)
    if fixed:
        raise PreconditionError(f"involution is not free: fixed simplices {fixed[:3]}")
    return orbit_quotient(ic.complex, ic.involution, 2)


def w1_cocycle(qr: QuotientResult) -> Dict[Simplex, int]:
    """The 1-cocycle on the quotient classifying the double cover.  The
    cocycle condition is verified on every quotient triangle."""
    up = qr.upstairs
    rank = up.rank
    t = qr.action
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


class StoredModel:
    """A stored free involution complex seen as the verdict sees a pair
    model: its dimension, cells per dimension and swap orbit, vertices,
    components, involution, 1-cells and the quotient with its ``w1``."""

    def __init__(self, ic: InvolutionComplex):
        self.ic = ic
        cx = ic.complex
        groups = cx.dimension_groups()
        self.dim = len(groups) - 1
        self.cell_counts = tuple(len(g) // 2 for g in groups)
        self.vertices = cx.vertices
        self.components = cx.connected_components()
        self.involution = ic.involution

    def edges(self) -> list:
        groups = self.ic.complex.dimension_groups()
        return groups[1] if len(groups) > 1 else []

    @cached_property
    def swap_quotient(self) -> tuple:
        qr = quotient_by_free_involution(self.ic)
        return qr.quotient, w1_cocycle(qr)


def old_homotopy_certificate(closure, alpha: Dict, g_values: Dict) -> tuple:
    """The homotopy certificate by one exact LP per closure cell: the origin
    lies outside the hull of the witness values on the cell's free part
    together with the realized pair differences there."""
    evidence = []
    ok = True
    for s in closure.complex.sorted_simplices():
        free = closure.pair_complex.free_part(s)
        if not free:
            continue
        pts = [alpha[p] for p in free]
        pts += [linalg.vec_sub(g_values[v], g_values[u]) for (u, v) in free]
        inside, cert = lp.zero_in_hull(pts)
        evidence.append((s, not inside, cert))
        if inside:
            ok = False
    return ok, evidence


def cup(space: mod2.CochainSpace, f_bits: int, p: int, g_bits: int, q: int) -> int:
    """Alexander-Whitney cup product of a p- and a q-cochain, the oracle of
    :meth:`mod2.CochainSpace.one_cocycle_power`."""
    fi = space.index(p)
    gi = space.index(q)
    out = 0
    for i, s in enumerate(space.simplices(p + q)):
        front = s[: p + 1]
        back = s[p:]
        if (f_bits >> fi[front]) & 1 and (g_bits >> gi[back]) & 1:
            out |= 1 << i
    return out


def walked_cells(model) -> list:
    """The cell of ``(s, t)`` for every pair ``{s, t}`` a pair model walks;
    the cell of ``(t, s)``, its swap image, is not listed."""
    return [tuple(zip(a, b)) for _, _, a, b in model.aligned_pairs()]


def complex_from_facets(facets):
    vertices = []
    seen = set()
    for s in facets:
        for v in s:
            if v not in seen:
                seen.add(v)
                vertices.append(v)
    return SimplicialComplex.from_maximal(sorted(vertices, key=str), facets)


def octahedron() -> SimplicialComplex:
    """Boundary of the 3-dimensional cross-polytope: a 2-sphere."""
    facets = [
        (a, b, c)
        for a in ("n", "s")
        for b in ("a", "c")
        for c in ("b", "d")
    ]
    return SimplicialComplex.from_maximal(["n", "s", "a", "b", "c", "d"], facets)


def torus_7() -> SimplicialComplex:
    """Moebius-Kantor 7-vertex triangulation of the torus."""
    facets = []
    for i in range(7):
        facets.append((i, (i + 1) % 7, (i + 3) % 7))
        facets.append((i, (i + 1) % 7, (i + 5) % 7))
    return SimplicialComplex.from_maximal(list(range(7)), facets)


def projective_plane_6() -> SimplicialComplex:
    """Six-vertex triangulation of the real projective plane."""
    facets = [
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 5),
        (1, 4, 6),
        (1, 5, 6),
        (2, 3, 6),
        (2, 4, 5),
        (2, 5, 6),
        (3, 4, 5),
        (3, 4, 6),
    ]
    return SimplicialComplex.from_maximal([1, 2, 3, 4, 5, 6], facets)


def segment_complex():
    return SimplicialComplex.from_maximal(["a", "b"], [("a", "b")])


def triangle_complex():
    return SimplicialComplex.from_maximal(["a", "b", "c"], [("a", "b", "c")])


@pytest.fixture
def oct_complex():
    return octahedron()
