"""Shared builders and oracles for the test suite."""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from typing import Dict, Optional

import pytest
from hypothesis import settings

from prem import linalg, lp, mod2
from prem.complexes import SimplicialComplex, Simplex
from prem.double_points import identified_vertex_pairs
from prem.errors import ComplexError, InternalError, PreconditionError
from prem.maps import SimplicialMap
from prem.obstruction import WITNESS_SHIFTS, _moment_vector


# Every run draws fresh examples.  A failing property prints the
# ``@reproduce_failure`` blob that replays it on another machine; each test
# keeps its own ``max_examples`` and ``deadline``.
settings.register_profile("prem", print_blob=True)
settings.load_profile("prem")


def F(x) -> Fraction:
    return Fraction(x)


def euler_characteristic(c: SimplicialComplex) -> int:
    return sum((-1) ** (len(s) - 1) for s in c.simplices)


def regularity_failures(cx: SimplicialComplex, action: dict, order: int) -> list:
    """The R1/R2 failures of the orbit map of a cyclic action; empty when
    the orbit map of simplices yields a simplicial complex."""
    return mod2._regularity(*mod2._ranked(cx, action), order, cx.vertices)[0]


# -- stored involution complexes --------------------------------------------------
#
# The library reads the swap of a pair model off its walk and stores no
# involution complex.  The tests store one to decide complexes that are no
# pair model and to check that a walk's cells are closed under the swap.


class InvolutionComplex:
    """A simplicial complex with a simplicial involution given on vertices.
    Construction checks that the involution has order 2 on the vertices and
    maps every simplex to a simplex."""

    __slots__ = ("complex", "involution")

    def __init__(self, complex: SimplicialComplex, involution: Dict):
        self.complex = complex
        self.involution = dict(involution)
        cx, t = complex, self.involution
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


def pair_complex(model) -> InvolutionComplex:
    """A pair model's complex with its swap, checked to be swap-closed."""
    return InvolutionComplex(model.complex, model.involution)


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


# -- the closure model of a map ----------------------------------------------------
#
# ``lift`` once certified on this model: the ordered same-image pairs glued
# along their intersections, with a diagonal vertex ``(u, u)`` for every
# vertex of the fold locus.  The swap fixes the diagonal part, whose
# complement retracts onto the full subcomplex ``D`` on the off-diagonal
# vertices: the walked pair model.  Built here by a private scan of the
# fibres, it is the oracle of the walked witness, sheet split and
# certification, and of the model's reading of ``D``.


def fold_locus(f: SimplicialMap) -> SimplicialComplex:
    """Subcomplex of the source spanned by all faces of intersections of
    distinct same-image simplices."""
    faces: set = set()
    for fiber in f.fibers().values():
        for s, t in combinations(fiber, 2):
            shared = set(s) & set(t)
            if not shared:
                continue
            core = tuple(sorted(shared, key=f.source.rank.__getitem__))
            for size in range(1, len(core) + 1):
                faces.update(combinations(core, size))
    return subcomplex(f.source, faces)


@dataclass
class ClosureModel:
    """The closure complex with its swap, the fold locus, and the vertices
    ``(u, u)`` and ``(u, v)``, ``u != v``, in vertex order."""

    complex: SimplicialComplex
    involution: Dict
    fold: SimplicialComplex
    diagonal_vertices: list
    off_diagonal_vertices: list

    def free_part(self, s: Simplex) -> tuple:
        """The vertices of ``s`` that the swap moves, in order."""
        return tuple(p for p in s if p[0] != p[1])

    def off_diagonal(self) -> SimplicialComplex:
        """``D``, the full subcomplex on the off-diagonal vertices."""
        return self.complex.full_subcomplex(self.off_diagonal_vertices)


def closure_model(f: SimplicialMap) -> ClosureModel:
    """The closure model of a non-degenerate map; the construction checks
    that the swap maps every cell to a cell."""
    rank = f.source.rank
    fold = fold_locus(f)
    vertices = identified_vertex_pairs(f) + [(v, v) for (v,) in fold.simplices_of_dim(0)]
    vertices.sort(key=lambda p: (rank[p[0]], rank[p[1]]))
    cells = {tuple((u, u) for u in rho) for rho in fold.simplices}
    for fiber in f.fibers().values():
        for s, t in permutations(fiber, 2):
            match = f.matched_bijection(s, t)
            cells.add(tuple((u, match[u]) for u in s))
    cells.update((p,) for p in vertices)
    swap = {(u, v): (v, u) for (u, v) in vertices}
    complex_ = InvolutionComplex(SimplicialComplex(vertices, cells), swap).complex
    return ClosureModel(
        complex=complex_,
        involution=swap,
        fold=fold,
        diagonal_vertices=[p for p in vertices if p[0] == p[1]],
        off_diagonal_vertices=[p for p in vertices if p[0] != p[1]],
    )


def closure_certify(closure: ClosureModel, k: int, alpha: Dict) -> tuple:
    """The closure-model certifier: diagonal vertices carry no value and
    drop out of every cell, and every cell's free part has the origin
    outside the hull of its values.  ``(ok, evidence)``, one record per cell
    with a free part, in the complex's order, up to the first failure."""
    for (u, v) in closure.off_diagonal_vertices:
        val = alpha.get((u, v))
        if val is None or len(val) != k:
            return False, [("missing-or-bad-dimension", (u, v))]
        if all(x == 0 for x in val):
            return False, [("zero-value", (u, v))]
        if tuple(alpha[(v, u)]) != tuple(-x for x in val):
            return False, [("not-antipodal", (u, v))]
    evidence = []
    for s in closure.complex.sorted_simplices():
        free = closure.free_part(s)
        if not free:
            continue
        pts = [alpha[p] for p in free]
        if linalg.linearly_independent(pts):
            evidence.append((s, "independent", None))
            continue
        inside, cert = lp.zero_in_hull(pts)
        if inside:
            evidence.append((s, "origin-in-hull", cert))
            return False, evidence
        evidence.append((s, "separated", cert))
    return True, evidence


def moment_values(vertices: list, k: int, shift: int) -> Dict:
    """Moment-curve values on the first member of each swap orbit of the
    pair vertices, in vertex order, and their negatives on the partners."""
    values: Dict = {}
    for p in vertices:
        if p not in values:
            values[p] = _moment_vector(len(values) // 2, k, shift)
            values[p[::-1]] = tuple(-x for x in values[p])
    return values


def closure_moment_witness(closure: ClosureModel, k: int) -> Optional[Dict]:
    """The first moment-curve draw that certifies on the closure model, or
    None when none of the shifts does."""
    vertices = closure.off_diagonal_vertices
    draws = (moment_values(vertices, k, shift) for shift in range(WITNESS_SHIFTS))
    return next((values for values in draws if closure_certify(closure, k, values)[0]), None)


def closure_sheet_split(closure: ClosureModel, k: int) -> Optional[Dict]:
    """``+e1`` on one sheet of ``D`` and ``-e1`` on the other, or None when a
    component of ``D`` is mapped onto itself."""
    sheet = mod2.sheet_split(closure.off_diagonal().connected_components(), closure.involution)
    if sheet is None:
        return None
    e1 = (Fraction(1),) + (Fraction(0),) * (k - 1)
    return {p: e1 if p in sheet else tuple(-x for x in e1) for p in closure.off_diagonal_vertices}


def old_homotopy_certificate(closure: ClosureModel, alpha: Dict, g_values: Dict) -> tuple:
    """The homotopy certificate by one exact LP per closure cell: the origin
    lies outside the hull of the witness values on the cell's free part
    together with the realized pair differences there."""
    evidence = []
    ok = True
    for s in closure.complex.sorted_simplices():
        free = closure.free_part(s)
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


# -- the eliminations the library replaced ------------------------------------------
#
# The library keeps one elimination per field: ``gf2.row_basis`` and the
# fraction-free ``linalg._echelon``.  The eliminations they replaced, a
# lowest-bit GF(2) solver and reduced row echelon form over ``Fraction``,
# are the oracles here.


def solve_gf2(rows, rhs, ncols: int) -> Optional[int]:
    """One solution (packed) of the GF(2) system ``rows . x = rhs``, with free
    variables set to zero; ``None`` when inconsistent."""
    eqs: list = []  # (mask, bit) with distinct pivot (lowest set bit)
    pivots: Dict[int, int] = {}
    for mask, bit in zip(rows, rhs):
        bit &= 1
        while mask:
            pv = (mask & -mask).bit_length() - 1
            idx = pivots.get(pv)
            if idx is None:
                pivots[pv] = len(eqs)
                eqs.append((mask, bit))
                break
            emask, ebit = eqs[idx]
            mask ^= emask
            bit ^= ebit
        else:
            if bit:
                return None
    x = 0
    for pv in sorted(pivots, reverse=True):
        mask, bit = eqs[pivots[pv]]
        if bit ^ ((mask & x).bit_count() & 1):
            x |= 1 << pv
    return x


def coboundary_rows(space: mod2.CochainSpace, q: int) -> list:
    """The coboundary from q- to (q+1)-cochains: rows indexed by
    (q+1)-simplices over q-simplex columns."""
    idx = space.index(q)
    rows = []
    for s in space.simplices(q + 1):
        bits = 0
        for f in combinations(s, q + 1):
            bits |= 1 << idx[f]
        rows.append(bits)
    return rows


def coboundary_potential(space: mod2.CochainSpace, bits: int, q: int) -> Optional[int]:
    """A (q-1)-cochain x with ``δx`` the q-cochain ``bits``, or ``None``."""
    rhs = [(bits >> i) & 1 for i in range(len(space.simplices(q)))]
    return solve_gf2(coboundary_rows(space, q - 1), rhs, len(space.simplices(q - 1)))


def rref(m) -> tuple:
    """Reduced row echelon form over ``Fraction``: ``(matrix, pivot_columns,
    rank)``, pivots chosen left to right."""
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots, r


def rref_solve(a, b) -> Optional[list]:
    """The solution of ``a x = b`` read off ``rref([a | b])`` with free
    variables zero, or ``None`` when inconsistent."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots, _ = rref([list(row) + [bv] for row, bv in zip(a, b)])
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = red[i][cols]
    return x


# -- the gates the library replaced ------------------------------------------------
#
# The library reads the star condition off the folds of same-image edges and
# finds triple points among the vertex fibres.  The closed-star test and the
# search of every fibre of simplices are the oracles here.


def closed_star_vertices(c: SimplicialComplex, v) -> set:
    """Vertex set of the closed star of ``v`` (assumes a closed complex)."""
    return {v} | c.neighbors(v)


def old_check_star_condition(f: SimplicialMap) -> list:
    """Violating identified vertex pairs whose closed stars meet, in both
    orders and sorted as ``identified_vertex_pairs`` sorts them."""
    by_image: Dict = {}
    for v in f.source.vertices:
        by_image.setdefault(f.vertex_map[v], []).append(v)
    violations = []
    for group in by_image.values():
        stars = [closed_star_vertices(f.source, v) for v in group]
        for i, u in enumerate(group):
            for j in range(i + 1, len(group)):
                if not stars[i].isdisjoint(stars[j]):
                    violations += [(u, group[j]), (group[j], u)]
    rank = f.source.rank
    violations.sort(key=lambda p: (rank[p[0]], rank[p[1]]))
    return violations


def old_has_triple_points(f: SimplicialMap) -> Optional[tuple]:
    """The first triple of pairwise disjoint same-image simplices, searching
    the fibres in the target's simplex order, or None."""
    for img, fiber in sorted(f.fibers().items(), key=lambda kv: f.target.sort_key(kv[0])):
        for s, t, u in combinations(fiber, 3):
            if not (set(s) & set(t)) and not (set(s) & set(u)) and not (set(t) & set(u)):
                return (s, t, u)
    return None


def walked_cells(model) -> list:
    """The cell of ``(s, t)`` for every pair ``{s, t}`` a pair model walks;
    the cell of ``(t, s)``, its swap image, is not listed."""
    return [tuple(zip(a, b)) for _, _, a, b in model.aligned_pairs()]


def subcomplex(c: SimplicialComplex, simplices) -> SimplicialComplex:
    """Subcomplex of ``c`` on the given simplices (assumed face-closed),
    keeping the parent vertex order."""
    simps = {c.canon(s) for s in simplices}
    verts = sorted({v for s in simps for v in s}, key=c.rank.__getitem__)
    return SimplicialComplex(verts, simps)


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
