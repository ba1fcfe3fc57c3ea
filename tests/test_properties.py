"""Property tests of the rank-keyed combinatorial core, the antipodal witness
certifier, the verdicts, the constructed lifts and their PL refinement, on
random small complexes, involutions, maps and witnesses.

Each rewritten routine is compared with the straightforward construction it
replaced, kept here as the oracle: canonicalising every simplex and every
flag of a barycentric subdivision, slicing out codimension-one faces to find
the maximal simplices, sorting every matched pair cell, a private scan of
the fibres for pair cells, the closed-star test of the star condition,
the search of every fibre of simplices for triple points, rebuilding
each link through ``subcomplex``, union-find over every simplex, the
stored pair complex in place of the walked pair model, the separate witness
certifiers of the pair model and of the closure model, and
the separate regularity checks and projections of the order-2 and order-p
quotients, the labelled orbit quotient that canonicalised the nested
barycentric ids in every round, the self-check of every maximal simplex
of a non-degenerate map, the rank of a single point, and the lowest-bit
GF(2) solver of the coboundary test.  The quotient of a
stored free involution, with its ``w1`` read upstairs, is the oracle of the
walked quotient; it lives in ``conftest``, where :class:`StoredModel` lets
stored complexes reach the verdict.  So does the closure model, on which the
lift certified before it read the pair model's walk, with its fold locus,
certifier, witness, sheet split and homotopy certificate by one LP per cell.
"""

import re
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from prem import formats, gf2, lift, linalg, lp, mod2, verify
from prem.complexes import SimplicialComplex
from prem.double_points import (
    DoublePointModel,
    check_star_condition,
    double_point_model,
    identified_vertex_pairs,
)
from prem.errors import (
    CertificationError,
    ComplexError,
    InternalError,
    ModelInvalid,
    NotKPrem,
    PreconditionError,
)
from prem.generators import (
    antipodal_sphere_covering,
    cross_polytope_boundary,
    _cycle_complex,
    cycle_cover,
    figure_eight_map,
    fold_path_map,
    _join_sphere,
    lens_covering,
)
from prem.lift import construct_lift_3ptfree, has_triple_points, is_simple_fold
from prem.maps import SemiLinearMap, SimplicialMap
from prem.obstruction import (
    INCONCLUSIVE,
    certify_witness,
    equivariant_map_exists,
    equivariant_witness,
    projection_degree_parity,
    separation,
    sheet_split_witness,
)
from prem.plify import plify
from prem.subdivision import _flags, barycentric_subdivide, barycentric_subdivide_map
from prem.verify import verify_embedding

from conftest import (
    InvolutionComplex,
    QuotientResult,
    StoredModel,
    closure_certify,
    closure_model,
    closure_sheet_split,
    closure_moment_witness,
    coboundary_potential,
    coboundary_rows,
    euler_characteristic,
    fixed_simplices,
    fold_locus,
    frozenset_image_index,
    moment_values,
    old_check_star_condition,
    old_has_triple_points,
    old_homotopy_certificate,
    orbit_quotient,
    octahedron,
    pair_complex,
    projective_plane_6,
    quotient_by_free_involution,
    regularity_failures,
    subcomplex,
    torus_7,
    w1_cocycle,
    walked_cells,
)

PROPERTY = settings(deadline=None, max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow])


# -- strategies ---------------------------------------------------------------------


# Vertices are declared in a random order, so that vertex rank and the
# natural order of the labels disagree.


@st.composite
def closed_complexes(draw):
    n = draw(st.integers(1, 7))
    vertices = draw(st.permutations([f"v{i}" for i in range(n)]))
    facets = draw(st.lists(
        st.lists(st.sampled_from(vertices), min_size=1, max_size=4, unique=True),
        max_size=8,
    ))
    return SimplicialComplex.from_maximal(vertices, facets)


@st.composite
def raw_complexes(draw):
    """Simplex sets that need not be closed under faces."""
    n = draw(st.integers(1, 7))
    vertices = draw(st.permutations([f"v{i}" for i in range(n)]))
    simplices = draw(st.lists(
        st.lists(st.sampled_from(vertices), min_size=1, max_size=4, unique=True),
        max_size=10,
    ))
    return SimplicialComplex(vertices, simplices)


@st.composite
def involution_complexes(draw):
    """Pairs ``a_i <-> b_i`` plus a few fixed vertices ``c_j``; random
    simplices together with their images, closed under faces."""
    n = draw(st.integers(1, 4))
    fixed = draw(st.integers(0, 2))
    t = {}
    for i in range(n):
        t[f"a{i}"], t[f"b{i}"] = f"b{i}", f"a{i}"
    for j in range(fixed):
        t[f"c{j}"] = f"c{j}"
    vertices = draw(st.permutations(sorted(t)))
    gens = draw(st.lists(
        st.lists(st.sampled_from(vertices), min_size=1, max_size=4, unique=True),
        max_size=6,
    ))
    gens += [[t[v] for v in s] for s in gens]
    return InvolutionComplex(SimplicialComplex.from_maximal(vertices, gens), t)


@st.composite
def swapped_complexes(draw):
    """Two copies of a random complex on ``a_i`` and on ``b_i``, swapped by
    ``a_i <-> b_i`` and joined by up to two random simplices together with
    their images; only free involutions are kept."""
    n = draw(st.integers(1, 4))
    t = {}
    for i in range(n):
        t[f"a{i}"], t[f"b{i}"] = f"b{i}", f"a{i}"
    vertices = draw(st.permutations(sorted(t)))
    gens = draw(st.lists(
        st.lists(st.sampled_from([f"a{i}" for i in range(n)]), min_size=1, max_size=4,
                 unique=True),
        max_size=5,
    ))
    gens += draw(st.lists(
        st.lists(st.sampled_from(vertices), min_size=2, max_size=3, unique=True),
        max_size=2,
    ))
    gens += [[t[v] for v in s] for s in gens]
    ic = InvolutionComplex(SimplicialComplex.from_maximal(vertices, gens), t)
    assume(not fixed_simplices(ic))
    return ic


def _restricted(f: SimplicialMap, facets) -> SimplicialMap:
    src = SimplicialComplex.from_maximal(
        [v for v in f.source.vertices if any(v in s for s in facets)], facets
    )
    return SimplicialMap(src, f.target, {v: f.vertex_map[v] for v in src.vertices})


_COVERS = [cycle_cover(2, 3), cycle_cover(2, 5), cycle_cover(3, 3)]
_SPHERE = antipodal_sphere_covering(2)[0]


@st.composite
def covering_pieces(draw, covers=tuple(_COVERS) + (_SPHERE,)):
    """Restrictions of covering maps to random sets of source facets.  A
    restriction keeps the map non-degenerate and the closed stars of
    identified vertices disjoint, so every piece has a pair model."""
    f = draw(st.sampled_from(covers))
    facets = f.source.maximal_simplices()
    chosen = draw(st.lists(st.sampled_from(facets), min_size=1, unique=True))
    return _restricted(f, chosen)


_GENERATED = [cycle_cover(2, 3).source, cycle_cover(3, 3).source, _join_sphere(3),
              cross_polytope_boundary(2)[0], cross_polytope_boundary(3)[0]]


@st.composite
def facet_restrictions(draw):
    """Subcomplexes of generated complexes (cycle covers, the join sphere and
    the cross-polytope) spanned by random sets of their facets."""
    c = draw(st.sampled_from(_GENERATED))
    chosen = draw(st.lists(st.sampled_from(c.maximal_simplices()), min_size=1, unique=True))
    used = set().union(*chosen)
    return SimplicialComplex.from_maximal([v for v in c.vertices if v in used], chosen)


@st.composite
def coloured_maps(draw):
    """Random complexes of dimension at most two, properly coloured onto the
    boundary of a triangle or of a tetrahedron: the vertices of each simplex
    get distinct colours, so the map is simplicial and non-degenerate."""
    m = draw(st.integers(2, 3))
    colours = [f"c{i}" for i in range(m + 1)]
    target = SimplicialComplex.from_maximal(colours, combinations(colours, m))
    n = draw(st.integers(1, 7))
    vertices = draw(st.permutations([f"v{i}" for i in range(n)]))
    colour = dict(zip(vertices, draw(st.lists(st.sampled_from(colours), min_size=n, max_size=n))))
    facets = draw(st.lists(
        st.lists(st.sampled_from(vertices), min_size=1, max_size=m, unique_by=colour.__getitem__),
        max_size=8,
    ))
    return SimplicialMap(SimplicialComplex.from_maximal(vertices, facets), target, colour)


@st.composite
def cyclic_actions(draw):
    """Free cyclic actions of order 2 to 5: an n-gon rotated by n/p, or the
    join of two m-gons, m a multiple of p, advancing the first circle by
    m/p and the second by q*m/p for a unit q.  Sometimes subdivided once;
    the vertices are declared in a random order."""
    order = draw(st.integers(2, 5))
    if draw(st.booleans()):
        step = draw(st.integers(2 if order == 2 else 1, 3))
        n = order * step
        cx = _cycle_complex(n)
        action = {f"n{i}": f"n{(i + step) % n}" for i in range(n)}
    else:
        step = draw(st.sampled_from([j for j in (1, 2, 3) if 3 <= order * j <= 6]))
        m = order * step
        q = draw(st.sampled_from([q for q in range(1, order) if gcd(q, order) == 1]))
        cx = _join_sphere(m)
        action = {}
        for i in range(m):
            action[f"a{i}"] = f"a{(i + step) % m}"
            action[f"b{i}"] = f"b{(i + q * step) % m}"
    if draw(st.booleans()):
        base = cx
        cx = barycentric_subdivide(base).refined
        action = {s: base.canon(action[v] for v in s) for s in cx.vertices}
    vertices = list(cx.vertices)
    draw(st.randoms(use_true_random=False)).shuffle(vertices)
    return SimplicialComplex(vertices, cx.simplices), action, order


# -- oracles ----------------------------------------------------------------------------


def old_components(c: SimplicialComplex) -> list:
    parent = {v: v for v in c.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in c.simplices:
        if len(s) >= 2:
            base = find(s[0])
            for u in s[1:]:
                parent[find(u)] = base
    groups = {}
    for v in c.vertices:
        groups.setdefault(find(v), []).append(v)
    comps = [sorted(g, key=c.rank.__getitem__) for g in groups.values()]
    comps.sort(key=lambda g: c.rank[g[0]])
    return [set(g) for g in comps]


def old_maximal_simplices(c: SimplicialComplex) -> list:
    proper = {s[:i] + s[i + 1:] for s in c.simplices if len(s) > 1 for i in range(len(s))}
    return sorted((s for s in c.simplices if s not in proper), key=c.sort_key)


def old_link(c: SimplicialComplex, v) -> SimplicialComplex:
    return subcomplex(c, {s[:i] + s[i + 1:] for s in c.star_simplices(v)
                          if len(s) > 1 for i in (s.index(v),)})


def old_pair_cells(f: SimplicialMap, overlapping: bool) -> set:
    rank = f.source.rank
    cells = set()
    for fiber in f.fibers().values():
        for s in fiber:
            for t in fiber:
                if s == t or (not overlapping and set(s) & set(t)):
                    continue
                match = f.matched_bijection(s, t)
                cells.add(tuple(sorted(((u, match[u]) for u in s),
                                       key=lambda p: (rank[p[0]], rank[p[1]]))))
    return cells


def old_matched_pair_cells(f: SimplicialMap, vertices: list, overlapping: bool):
    """Pair cells from a private fibre scan keyed by sorted target ranks,
    each listed in the order of its first simplex."""
    pair = {p: p for p in vertices}
    vm = f.vertex_map
    target_rank = f.target.rank
    fibres = {}
    for s in f.source.simplices:
        images = tuple(map(vm.__getitem__, s))
        key = tuple(sorted(map(target_rank.__getitem__, images)))
        fibres.setdefault(key, []).append((s, images))
    for fibre in fibres.values():
        if len(fibre) < 2:
            continue
        partners = [(t, dict(zip(images, t))) for t, images in fibre]
        for s, images in fibre:
            shared = None if overlapping else set(s)
            for t, by_image in partners:
                if t is s or (shared is not None and not shared.isdisjoint(t)):
                    continue
                yield tuple(map(pair.__getitem__, zip(s, map(by_image.__getitem__, images))))


def unchecked_pair_complex(f: SimplicialMap) -> InvolutionComplex:
    """The stored pair complex of a non-degenerate map, on the disjoint
    same-image pairs only, also where the star condition fails."""
    vertices = identified_vertex_pairs(f)
    return InvolutionComplex(SimplicialComplex.from_canonical(vertices, old_pair_cells(f, False)),
                             {(u, v): (v, u) for (u, v) in vertices})


def old_swap_model(f: SimplicialMap, closure: bool) -> tuple:
    """``(vertices, simplices)`` of the pair model, or of the closure model,
    from a private fibre scan."""
    vertices = identified_vertex_pairs(f)
    if closure:
        fold = fold_locus(f)
        rank = f.source.rank
        vertices = sorted(vertices + [(v, v) for (v,) in fold.simplices_of_dim(0)],
                          key=lambda p: (rank[p[0]], rank[p[1]]))
    cells = {(p,) for p in vertices}
    cells.update(old_matched_pair_cells(f, vertices, closure))
    if closure:
        cells.update(tuple((u, u) for u in rho) for rho in fold.simplices)
    cx = SimplicialComplex.from_canonical(vertices, cells)
    return cx.vertices, cx.simplices


def old_regularity_failures(ic: InvolutionComplex) -> list:
    cx, t = ic.complex, ic.involution
    failures = [f"simplex {s} meets its own orbit"
                for s in cx.sorted_simplices() if any(t[v] in s for v in s)]
    images = {}
    for s in cx.simplices:
        images.setdefault(frozenset(frozenset((v, t[v])) for v in s), []).append(s)
    for fiber in images.values():
        if len(fiber) > 2:
            failures.append(f"fibre {sorted(fiber, key=cx.sort_key)} is not one orbit of simplices")
        elif len(fiber) == 2 and cx.canon(t[v] for v in fiber[0]) != fiber[1]:
            failures.append(f"fibre {sorted(fiber, key=cx.sort_key)} is not one orbit of simplices")
    return failures


def _iterate(gamma: dict, v, times: int):
    for _ in range(times):
        v = gamma[v]
    return v


def old_cyclic_regularity_failures(c: SimplicialComplex, gamma: dict, order: int) -> list:
    failures = []
    orbit_of = {}
    for v in c.vertices:
        orbit = frozenset(_iterate(gamma, v, j) for j in range(order))
        if len(orbit) != order:
            failures.append(f"action is not free at vertex {v!r}")
        orbit_of[v] = orbit
    if failures:
        return failures
    for s in c.simplices:
        keys = [orbit_of[v] for v in s]
        if len(set(keys)) != len(keys):
            failures.append(f"simplex {s} has two vertices in one orbit")
    if failures:
        return failures
    fibers = {}
    for s in c.simplices:
        fibers.setdefault(frozenset(orbit_of[v] for v in s), set()).add(s)
    for fiber in fibers.values():
        some = next(iter(fiber))
        orbit = {c.canon(tuple(_iterate(gamma, v, j) for v in some)) for j in range(order)}
        if fiber != orbit:
            failures.append(
                f"fiber over quotient simplex of {some} has {len(fiber)} simplices, "
                f"expected the orbit of size {len(orbit)}"
            )
    return failures


def old_project_orbits(c: SimplicialComplex, gamma: dict, order: int) -> SimplicialMap:
    rep = {}
    for v in c.vertices:
        orbit = [_iterate(gamma, v, j) for j in range(order)]
        rep[v] = min(orbit, key=c.rank.__getitem__)
    q_vertices = [v for v in c.vertices if rep[v] == v]
    q_rank = {v: i for i, v in enumerate(q_vertices)}
    q_simplices = set()
    for s in c.simplices:
        q_simplices.add(tuple(sorted({rep[v] for v in s}, key=q_rank.__getitem__)))
    quotient = SimplicialComplex(q_vertices, q_simplices)
    return SimplicialMap(c, quotient, rep)


def old_regularity(cx: SimplicialComplex, action: dict, order: int) -> tuple:
    rank = cx.rank
    orbit = {}
    short = set()
    for v in cx.vertices:
        if v in orbit:
            continue
        members = [v]
        w = action[v]
        while w != v and len(members) < order:
            members.append(w)
            w = action[w]
        if w != v or order % len(members):
            raise PreconditionError(f"the action does not have order {order} at vertex {v!r}")
        for u in members:
            orbit[u] = rank[v]
        if len(members) < order:
            short.update(members)
    image = {}
    fibres = {}
    for s in cx.simplices:
        img = cx.canon(map(action.__getitem__, s))
        if img not in cx.simplices:
            raise PreconditionError(f"the action does not map simplex {s} to a simplex")
        image[s] = img
        fibres.setdefault(frozenset(map(orbit.__getitem__, s)), []).append(s)
    own = [s for key, fibre in fibres.items() for s in fibre
           if len(s) > len(key) or not short.isdisjoint(s)]
    failures = [f"simplex {s} meets its own orbit" for s in sorted(own, key=cx.sort_key)]
    for fibre in fibres.values():
        first = fibre[0]
        size = 1
        s = image[first]
        while s != first:
            size += 1
            s = image[s]
        if len(fibre) > size:
            failures.append(f"fibre {sorted(fibre, key=cx.sort_key)} is not one orbit of simplices")
    return failures, orbit, image, fibres


def old_orbit_quotient(cx: SimplicialComplex, action: dict, order: int) -> QuotientResult:
    """The labelled quotient: every round canonicalises the nested
    barycentric ids of the subdivided complex."""
    rounds = 0
    while True:
        failures, orbit, image, fibres = old_regularity(cx, action, order)
        if not failures:
            break
        if rounds == mod2.SUBDIVISION_ROUNDS:
            raise InternalError(f"quotient not regular after {rounds} subdivisions: {failures[0]}")
        cx = barycentric_subdivide(cx).refined
        action = {s: image[s] for s in cx.vertices}
        rounds += 1
    vertices = cx.vertices
    projection = {v: vertices[orbit[v]] for v in vertices}
    q_vertices = [v for v in vertices if projection[v] == v]
    q_simplices = {tuple(map(vertices.__getitem__, sorted(key))) for key in fibres}
    return QuotientResult(
        upstairs=cx,
        action=action,
        quotient=SimplicialComplex.from_canonical(q_vertices, q_simplices),
        projection=projection,
        subdivision_rounds=rounds,
    )


def assert_same_quotient(qr: QuotientResult, old: QuotientResult) -> None:
    assert qr.upstairs.vertices == old.upstairs.vertices
    assert qr.upstairs.simplices == old.upstairs.simplices
    assert qr.action == old.action
    assert qr.quotient.vertices == old.quotient.vertices
    assert qr.quotient.simplices == old.quotient.simplices
    assert qr.projection == old.projection
    assert qr.subdivision_rounds == old.subdivision_rounds


def assert_same_failures(new: list, old: list) -> None:
    """The own-orbit failures come first, in simplex order; the fibre
    failures follow in the order of a hashed walk, so they are compared as a
    multiset."""
    own = [m for m in old if m.endswith("own orbit")]
    assert new[:len(own)] == own
    assert sorted(new) == sorted(old)


# -- complexes ----------------------------------------------------------------------


@PROPERTY
@given(closed_complexes())
def test_dimension_index_matches_sorting(c):
    assert c.sorted_simplices() == sorted(c.simplices, key=c.sort_key)
    for d in range(-1, c.dim + 2):
        assert c.simplices_of_dim(d) == sorted(
            (s for s in c.simplices if len(s) == d + 1), key=c.sort_key)
    assert SimplicialComplex(c.vertices, c.simplices) == c
    assert c.f_vector() == tuple(
        sum(1 for s in c.simplices if len(s) == d + 1) for d in range(c.dim + 1))


@PROPERTY
@given(facet_restrictions())
def test_canonical_flags_and_maximal_simplices_match_oracles(c):
    refined = barycentric_subdivide(c).refined
    flags = _flags(c)
    assert len(set(map(frozenset, flags))) == len(flags)
    assert refined == SimplicialComplex(c.sorted_simplices(), flags)
    for cx in (c, refined):
        assert cx.maximal_simplices() == old_maximal_simplices(cx)


@PROPERTY
@given(closed_complexes())
def test_links_from_star_index_match_subcomplex_route(c):
    for v in c.vertices:
        link = c.link_subcomplex(v)
        oracle = old_link(c, v)
        assert link == oracle
        assert gf2.betti_mod2(link) == gf2.betti_mod2(oracle)


@PROPERTY
@given(closed_complexes())
def test_betti_numbers_satisfy_euler_relation(c):
    betti = gf2.betti_mod2(c)
    assert sum((-1) ** i * b for i, b in enumerate(betti)) == euler_characteristic(c)
    assert all(b >= 0 for b in betti)
    assert not betti or betti[0] == len(c.connected_components())


@PROPERTY
@given(st.one_of(closed_complexes(), raw_complexes()))
def test_connected_components_unchanged(c):
    """Components come from the 1-simplices only; on a complex closed under
    faces that is the same as a union over every simplex."""
    skeleton = SimplicialComplex(c.vertices, [s for s in c.simplices if len(s) <= 2])
    assert c.connected_components() == old_components(skeleton)
    if all(c.simplices.issuperset(combinations(s, len(s) - 1)) for s in c.simplices if len(s) > 1):
        assert c.connected_components() == old_components(c)


@PROPERTY
@given(st.one_of(closed_complexes(), raw_complexes()))
def test_purity_matches_face_closure_of_facets(c):
    top = [s for s in c.simplices if len(s) == c.dim + 1]
    covered = {f for s in top for k in range(1, len(s) + 1) for f in combinations(s, k)}
    assert c.is_pure() == (covered == c.simplices)


# -- involutions and quotients --------------------------------------------------------


@PROPERTY
@given(involution_complexes(), st.lists(st.integers(0, 99), max_size=3))
def test_involution_check_names_the_least_stray_simplex(ic, picks):
    """With a few maximal simplices dropped, an involution complex is
    accepted exactly when every simplex's image is a simplex, and otherwise
    the error names the least simplex whose image is not one."""
    cx, t = ic.complex, ic.involution
    top = cx.maximal_simplices()
    damaged = SimplicialComplex(cx.vertices, cx.simplices - {top[i % len(top)] for i in picks})
    strays = sorted((s for s in damaged.simplices
                     if damaged.canon(t[v] for v in s) not in damaged.simplices),
                    key=damaged.sort_key)
    if not strays:
        InvolutionComplex(damaged, t)
        return
    with pytest.raises(ComplexError, match=re.escape(f"simplex {strays[0]} to a simplex")):
        InvolutionComplex(damaged, t)


@PROPERTY
@given(involution_complexes())
def test_regularity_failures_and_quotient_match_oracle(ic):
    new = regularity_failures(ic.complex, ic.involution, 2)
    old = old_regularity_failures(ic)
    own = [m for m in old if m.endswith("own orbit")]
    assert new[:len(own)] == own
    assert sorted(new) == sorted(old)
    if not fixed_simplices(ic) and not new:
        qr = quotient_by_free_involution(ic)
        cx, t = ic.complex, ic.involution
        proj = {v: min(v, t[v], key=cx.rank.__getitem__) for v in cx.vertices}
        assert qr.quotient.simplices == {
            tuple(sorted({proj[v] for v in s}, key=cx.rank.__getitem__))
            for s in cx.simplices}
        assert qr.quotient == SimplicialComplex(qr.quotient.vertices, qr.quotient.simplices)


@PROPERTY
@given(cyclic_actions())
def test_cyclic_quotient_matches_order_p_oracle(case):
    cx, action, order = case
    regular = not regularity_failures(cx, action, order)
    assert regular == (not old_cyclic_regularity_failures(cx, action, order))
    if not regular and cx.dim > 1:
        return  # the 3-spheres, subdivided twice more, are too large to test here
    qr = orbit_quotient(cx, action, order)
    up = qr.upstairs
    assert (qr.subdivision_rounds == 0) == regular
    assert not old_cyclic_regularity_failures(up, qr.action, order)
    old = old_project_orbits(up, qr.action, order)
    assert qr.quotient == old.target
    assert qr.projection == old.vertex_map
    # Regularity implies the star condition that ``generators`` relies on.
    assert check_star_condition(SimplicialMap(up, qr.quotient, qr.projection)) == []


def test_orbit_quotient_rejects_a_non_simplicial_action():
    # Swapping the ends of one edge of a path moves the other edge off the complex.
    path = SimplicialComplex.from_maximal(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(PreconditionError, match="does not map simplex"):
        mod2.rank_orbit_quotient(path, {"a": "b", "b": "a", "c": "c"}, 2)
    # An action undefined at a vertex, or one that leaves the complex.
    with pytest.raises(PreconditionError, match="not defined at vertex 'b'"):
        mod2.rank_orbit_quotient(path, {"a": "c", "c": "a"}, 2)
    with pytest.raises(PreconditionError, match="sends vertex 'b' to 'z'"):
        mod2.rank_orbit_quotient(path, {"a": "c", "b": "z", "c": "a"}, 2)


@PROPERTY
@given(st.one_of(
    cyclic_actions(), involution_complexes().map(lambda ic: (ic.complex, ic.involution, 2))))
def test_rank_quotient_matches_the_labelled_oracle(case):
    """Rounds on vertex ranks give the labelled result of rounds on nested
    barycentric ids: the same upstairs complex, action, quotient,
    projection, round count and regularity failures."""
    cx, action, order = case
    try:
        old_failures = old_regularity(cx, action, order)[0]
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=re.escape(str(exc))):
            regularity_failures(cx, action, order)
        return
    assert_same_failures(regularity_failures(cx, action, order), old_failures)
    if old_failures and len(cx.simplices) > 60:
        return  # the 3-spheres, subdivided twice more, are too large to test here
    try:
        old = old_orbit_quotient(cx, action, order)
    except (PreconditionError, InternalError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            orbit_quotient(cx, action, order)
        return
    assert_same_quotient(orbit_quotient(cx, action, order), old)


def test_rank_quotient_of_the_lens_covering_matches_the_labelled_oracle():
    cx = _join_sphere(3)
    gamma = {}
    for i in range(3):
        gamma[f"a{i}"] = f"a{(i + 1) % 3}"
        gamma[f"b{i}"] = f"b{(i + 1) % 3}"
    old = old_orbit_quotient(cx, gamma, 3)
    assert old.subdivision_rounds == 2
    assert_same_quotient(orbit_quotient(cx, gamma, 3), old)
    # The covering names each vertex by the token of its barycentric id.
    proj, rounds = lens_covering(3, 1)
    assert rounds == 2
    tok = formats.token_table(old.upstairs)
    assert proj.source.vertices == tuple(map(tok.__getitem__, old.upstairs.vertices))
    assert proj.source.simplices == {
        tuple(map(tok.__getitem__, s)) for s in old.upstairs.simplices}
    assert proj.vertex_map == {tok[v]: tok[w] for v, w in old.projection.items()}


# -- maps ---------------------------------------------------------------------------


@PROPERTY
@given(covering_pieces())
def test_pair_cells_match_matched_bijection_route(f):
    model = pair_complex(double_point_model(f))
    cells = {s for s in model.complex.simplices if len(s) > 1}
    assert cells == {s for s in old_pair_cells(f, False) if len(s) > 1}
    assert model.complex == SimplicialComplex(model.complex.vertices, model.complex.simplices)
    closure = closure_model(f)
    assert old_pair_cells(f, True) <= closure.complex.simplices
    assert closure.complex == SimplicialComplex(
        closure.complex.vertices, closure.complex.simplices)


_SMALL_MAPS = _COVERS + [fold_path_map(), figure_eight_map(),
                         antipodal_sphere_covering(1)[0]]


@st.composite
def small_non_degenerate_maps(draw):
    """Restrictions of small covers and folds to random sets of source
    facets, sometimes subdivided once."""
    f = draw(st.sampled_from(_SMALL_MAPS))
    facets = f.source.maximal_simplices()
    f = _restricted(f, draw(st.lists(st.sampled_from(facets), min_size=1, unique=True)))
    if draw(st.booleans()):
        f = barycentric_subdivide_map(f)[0]
    return f


@PROPERTY
@given(small_non_degenerate_maps())
def test_one_pass_swap_models_match_rescan_oracle(f):
    """The walked pair model's complex is the rescan's disjoint-pair model on
    every non-degenerate map, folds included, and is closed under the swap;
    the closure oracle is the rescan's closure model."""
    model = DoublePointModel(f)
    pairs = pair_complex(model).complex
    assert (pairs.vertices, pairs.simplices) == old_swap_model(f, False)
    assert (model.fold_vertices == set()) == (check_star_condition(f) == [])
    closure = closure_model(f).complex
    assert (closure.vertices, closure.simplices) == old_swap_model(f, True)
    # Each cell is listed once, right before its swap image.
    cells = model.pair_cells()
    assert len(set(cells)) == len(cells)
    for st, ts in zip(cells[::2], cells[1::2]):
        assert pairs.canon((v, u) for u, v in st) == ts


def _holds_declared_tokens(c: SimplicialComplex) -> bool:
    return all(c.vertices[c.rank[v]] is v for s in c.simplices for v in s)


@PROPERTY
@given(st.one_of(small_non_degenerate_maps(), coloured_maps(), covering_pieces()))
def test_written_maps_parse_back_to_the_same_map(f):
    """``parse_map(write_map(f))`` is ``f`` with its vertices renamed to
    their tokens; every simplex and map entry holds the string of its
    ``v`` line, and the rank-keyed image index is the vertex-set index."""
    src_tok, tgt_tok = formats.token_table(f.source), formats.token_table(f.target)
    doc = formats.parse_map(formats.write_map(f))
    g = doc.map
    assert g.source == f.source.renamed(src_tok)
    assert g.target == f.target.renamed(tgt_tok)
    assert g.vertex_map == {src_tok[v]: tgt_tok[w] for v, w in f.vertex_map.items()}
    assert _holds_declared_tokens(g.source) and _holds_declared_tokens(g.target)
    assert all(g.source.vertices[g.source.rank[v]] is v
               and g.target.vertices[g.target.rank[w]] is w for v, w in g.vertex_map.items())
    for h in (f, g):
        oracle = frozenset_image_index(h)
        images = h.image_index()
        assert images == oracle
        assert all(images[s] is oracle[s] for s in oracle)


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(
    small_non_degenerate_maps(),
    coloured_maps(),
    covering_pieces(),
    coloured_maps().filter(old_check_star_condition),  # folds more often
))
def test_gates_match_their_closed_star_and_fibre_search_oracles(f):
    """The star condition read off the folds of same-image edges is the
    closed-star test, and the triple found among the vertex fibres is the
    first triple of the search over every fibre of simplices."""
    assert check_star_condition(f) == old_check_star_condition(f)
    assert has_triple_points(f) == old_has_triple_points(f)


@PROPERTY
@given(st.one_of(covering_pieces(), small_non_degenerate_maps()), st.integers(0, 99))
def test_walked_pair_model_matches_its_stored_complex(f, pick):
    """What the pair model reads off its walk, and the verdict it reaches
    from it, equal what the built pair complex gives: dimension, pair counts,
    components, invariant flags, the cells up to their swap, the 1-cells, the
    sheet split and its check, also on a sheet with one orbit flipped: the
    check on the walked cells and the check on the 1-cells alone agree with
    the check on every simplex."""
    try:
        model = double_point_model(f)
    except ModelInvalid:
        assume(False)
    walked = [equivariant_map_exists(model, j) for j in (1, 2, 3)]
    ic = pair_complex(model)
    cx, t = ic.complex, ic.involution
    images = {s: cx.canon(t[v] for v in s) for s in cx.simplices}
    assert model.dim == (cx.dim if cx.simplices else -1)
    assert tuple(2 * n for n in model.cell_counts) == cx.f_vector()
    assert model.components == cx.connected_components()
    assert model.invariant_flags == [{t[v] for v in c} == c for c in model.components]
    cells = [cx.canon(c) for c in walked_cells(model)]
    assert len(cells) == len(cx.simplices) // 2
    assert set(cells) | {images[c] for c in cells} == cx.simplices
    edges = [cx.canon(e) for e in model.edges()]
    assert len(edges) == len(set(edges)) and set(edges) == set(cx.edges())
    for j, verdict in zip((1, 2, 3), walked):
        assert verdict == equivariant_map_exists(StoredModel(ic), j)
    sheet = mod2.sheet_split(model.components, t)
    assert sheet == mod2.sheet_split(cx.connected_components(), t)
    assert (sheet is None) == any(model.invariant_flags)
    if sheet is None or not cx.simplices:
        return
    v = cx.vertices[pick % len(cx.vertices)]
    for candidate in (sheet, sheet ^ {v, t[v]}):
        stored = mod2.is_sheet_split(t, cx.vertices, cx.simplices, candidate)
        assert mod2.is_sheet_split(t, model.vertices, walked_cells(model), candidate) == stored
        assert mod2.is_sheet_split(t, model.vertices, model.edges(), candidate) == stored
    assert mod2.is_sheet_split(t, model.vertices, model.edges(), sheet)


def old_projection_degree_parity(model, component) -> int:
    """Projection parity read off the stored pair complex, as before the
    model read it off its walk."""
    source = model.map.source
    n = source.dim
    if not source.is_closed_pseudomanifold():
        raise PreconditionError("projection degree parity needs a closed pseudomanifold source")
    piece = model.complex.full_subcomplex(set(component))
    if piece.dim != n or not piece.is_pure():
        raise PreconditionError(f"component is not pure of dimension {n}: dim {piece.dim}")
    cells = piece.simplices_of_dim(n)
    if n >= 1:
        ridge_count: dict = {}
        for s in cells:
            for r in combinations(s, n):
                ridge_count[r] = ridge_count.get(r, 0) + 1
        odd = [r for r, c in ridge_count.items() if c % 2]
        if odd:
            raise PreconditionError(
                f"component top cells are not a mod-2 cycle: ridge {odd[0]}"
                f" lies in {ridge_count[odd[0]]} cells")
    counts = {s: 0 for s in source.simplices_of_dim(n)}
    for cell in cells:
        counts[source.canon({v[0] for v in cell})] += 1
    parities = {s: c % 2 for s, c in counts.items()}
    values = set(parities.values())
    if len(values) > 1:
        even = next(s for s, p in parities.items() if p == 0)
        odd_s = next(s for s, p in parities.items() if p == 1)
        raise PreconditionError(
            "projection degree parity is not constant: "
            f"{counts[even]} cells over {even} but {counts[odd_s]} over {odd_s}")
    return values.pop()


def same_outcome(new, old, *args) -> None:
    """``new(*args)`` returns what ``old(*args)`` returns, or raises the same
    error with the same message."""
    try:
        expected = old(*args)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=re.escape(str(exc))):
            new(*args)
        return
    assert new(*args) == expected


def assert_walk_matches_stored_route(model, ks=(1, 2, 3)) -> None:
    """The walked quotient, named by the orbit representatives, and its
    ``w1`` equal those of the stored pair complex, and so do the verdicts
    at every ``k`` of ``ks``."""
    quotient, w1 = model.swap_quotient
    ic = pair_complex(model)
    rank = model.map.source.rank
    reps = [(u, v) for u, v in model.vertices if rank[u] < rank[v]]
    assert quotient.vertices == tuple(range(len(reps)))
    if ic.complex.simplices:
        qr = quotient_by_free_involution(ic)
        assert qr.subdivision_rounds == 0
        assert quotient.renamed(reps) == qr.quotient
        assert {tuple(map(reps.__getitem__, e)): x for e, x in w1.items()} == w1_cocycle(qr)
    else:
        assert not quotient.simplices and not w1
    for k in ks:
        assert equivariant_map_exists(model, k) == equivariant_map_exists(StoredModel(ic), k)


_CLOSED_SOURCES = [f for f in _SMALL_MAPS + [_SPHERE] if f.source.is_closed_pseudomanifold()]


@PROPERTY
@given(
    st.one_of(
        covering_pieces(),
        small_non_degenerate_maps(),
        st.sampled_from(_CLOSED_SOURCES),
        st.sampled_from(_CLOSED_SOURCES).map(lambda f: barycentric_subdivide_map(f)[0]),
    ),
    st.integers(0, 99),
)
def test_walked_quotient_matches_the_stored_route(f, pick):
    """The quotient, ``w1``, verdicts and projection parities read off the
    walk equal the stored pair complex's, on whole components, on a
    component with one vertex dropped (its top cells are no mod-2 cycle)
    and on one with a vertex of another component added (not pure)."""
    try:
        model = double_point_model(f)
    except ModelInvalid:
        assume(False)
    assert_walk_matches_stored_route(model)
    comps = model.components
    for comp, other in zip(comps, comps[1:] + comps[:1]):
        dropped = set(comp) - {sorted(comp)[pick % len(comp)]}
        added = set(comp) | {sorted(other)[pick % len(other)]}
        for part in (comp, dropped, added):
            same_outcome(projection_degree_parity, old_projection_degree_parity, model, part)


def test_walked_quotient_matches_the_stored_route_on_join_lens_4_1():
    """Even p: one invariant component of three.  The walked and stored
    quotients are equal, so one Yang index serves both."""
    model = double_point_model(lens_covering(4, 1)[0])
    assert model.invariant_flags == [False, True, False]
    assert_walk_matches_stored_route(model, ks=())
    verdict = equivariant_map_exists(model, 3)
    assert (verdict.answer, verdict.reason, verdict.yang) == ("not-exists", "cup-power-nonzero", 3)
    assert verdict.quotient_f_vector == model.cell_counts == (2544, 16368, 27648, 13824)
    invariant = model.components[1]
    assert projection_degree_parity(model, invariant) == 1
    assert old_projection_degree_parity(model, invariant) == 1


def test_map_images_and_fibres_match_canonicalising_oracle():
    for f in _SMALL_MAPS + [_SPHERE]:
        stored = {s: s for s in f.target.simplices}
        for s in f.source.simplices:
            img = f.image_simplex(s)
            assert img == f.target.canon(f.vertex_map[v] for v in s)
            assert stored[img] is img  # the target's own tuple
        oracle = {}
        for s in sorted(f.source.simplices, key=f.source.sort_key):
            oracle.setdefault(f.target.canon(f.vertex_map[v] for v in s), []).append(s)
        assert list(f.fibers().items()) == list(oracle.items())


def _yang(f: SimplicialMap) -> int:
    ic = pair_complex(double_point_model(f))
    if not ic.complex.simplices:
        return -1
    qr = quotient_by_free_involution(ic)
    return mod2.yang_index(qr.quotient, w1_cocycle(qr))


@PROPERTY
@given(st.one_of(covering_pieces(), coloured_maps()))
def test_yang_index_invariant_under_subdivision(f):
    """The Yang index, and the verdict at k = 1, 2, 3, do not change under
    barycentric subdivision of the map."""
    try:
        before = _yang(f)
    except PreconditionError:
        assume(False)
    finer = barycentric_subdivide_map(f)[0]
    assert before == _yang(finer)
    models = [double_point_model(g) for g in (f, finer)]
    for k in (1, 2, 3):
        old, new = (equivariant_map_exists(model, k) for model in models)
        assert (old.answer, old.reason, old.yang) == (new.answer, new.reason, new.yang)


@PROPERTY
@given(
    st.one_of(
        covering_pieces().map(lambda f: pair_complex(double_point_model(f))),
        swapped_complexes(),
    ),
    st.integers(1, 3),
    st.integers(0, 99),
)
def test_trivial_cover_route_matches_yang_zero(ic, k, pick):
    """``trivial-cover`` is taken exactly when ``dim >= k`` and the quotient
    route finds Yang index 0; its quotient f-vector is the real quotient's,
    and its sheet split passes the checker while a damaged one fails."""
    assume(ic.complex.simplices)
    verdict = equivariant_map_exists(StoredModel(ic), k)
    qr = quotient_by_free_involution(ic)
    yang = mod2.yang_index(qr.quotient, w1_cocycle(qr))
    assert (verdict.reason == "trivial-cover") == (ic.complex.dim >= k and yang == 0)
    t = ic.involution
    sheet = mod2.sheet_split(ic.complex.connected_components(), t)
    assert (sheet is not None) == (yang == 0)
    if verdict.reason != "trivial-cover":
        return
    assert verdict.quotient_f_vector == qr.quotient.f_vector()
    assert qr.subdivision_rounds == 0

    def passes(candidate):
        return mod2.is_sheet_split(t, ic.complex.vertices, ic.complex.simplices, candidate)

    assert passes(sheet)
    v = ic.complex.vertices[pick % len(ic.complex.vertices)]
    moved = sheet ^ {v, t[v]}
    assert passes(moved) == (not ic.complex.neighbors(v))
    assert not passes(sheet | {v, t[v]})


def test_full_covers_keep_their_yang_index_under_subdivision():
    assert _yang(cycle_cover(2, 5)) == 1
    assert _yang(_SPHERE) == 2
    assert _yang(barycentric_subdivide_map(_SPHERE)[0]) == 2


# -- antipodal witnesses ----------------------------------------------------------------


def _swap_quotient(f: SimplicialMap):
    """The walked swap quotient of a map's pair model with its ``w1``, or
    ``None`` when the map has no pair model."""
    try:
        return double_point_model(f).swap_quotient
    except PreconditionError:
        return None


COCHAIN_COMPLEXES = st.one_of(
    st.sampled_from([octahedron(), torus_7(), projective_plane_6()]).map(lambda c: (c, {})),
    st.one_of(covering_pieces(), small_non_degenerate_maps(), coloured_maps(),
              st.sampled_from(_CLOSED_SOURCES))
    .map(_swap_quotient).filter(lambda qw: qw is not None),
)


@PROPERTY
@given(COCHAIN_COMPLEXES, st.data())
def test_coboundary_test_matches_the_gf2_oracle(case, data):
    """In every degree, ``is_coboundary`` answers what the lowest-bit GF(2)
    solver answers on a random 0/1 cochain, on the coboundary of a random
    cochain and on the cup power of ``w1``; a solution the solver finds has
    the cochain as its coboundary."""
    c, w = case
    space = mod2.CochainSpace(c)
    w_bits = space.pack(1, w) if c.dim >= 1 else 0
    for q in range(1, c.dim + 1):
        rows = coboundary_rows(space, q - 1)

        def delta(x: int) -> int:
            return sum(((row & x).bit_count() & 1) << i for i, row in enumerate(rows))

        below = data.draw(st.integers(0, (1 << len(space.simplices(q - 1))) - 1))
        cochain = data.draw(st.integers(0, (1 << len(space.simplices(q))) - 1))
        exact = delta(below)
        assert space.is_coboundary(exact, q)
        for bits in (cochain, exact, space.one_cocycle_power(w_bits, q)):
            x = coboundary_potential(space, bits, q)
            assert space.is_coboundary(bits, q) == (x is not None)
            if x is not None:
                assert delta(x) == bits


def old_certify_pair(model, k, values):
    """The pair-model certifier before the merge: every vertex carries a value."""
    cx = model.complex
    t = model.involution
    for v in cx.vertices:
        val = values[v]
        if len(val) != k:
            return False, [("bad-dimension", v)]
        if all(x == 0 for x in val):
            return False, [("zero-value", v)]
        if tuple(values[t[v]]) != tuple(-x for x in val):
            return False, [("not-antipodal", v)]
    evidence = []
    for s in cx.sorted_simplices():
        pts = [values[v] for v in s]
        if linalg.linearly_independent(pts):
            evidence.append((s, "independent", None))
            continue
        inside, cert = lp.zero_in_hull(pts)
        if inside:
            evidence.append((s, "origin-in-hull", cert))
            return False, evidence
        evidence.append((s, "separated", cert))
    return True, evidence


def _witness_cases():
    """(walked model, old certifier, the model that certifier takes) for the
    stored pair model and the closure model.  The fold path has no checked
    pair model (its identified stars meet), so every stored pair model is
    built unchecked."""
    maps = [fold_path_map(), figure_eight_map()] + [cycle_cover(2, n) for n in range(3, 7)]
    for f in maps:
        model = DoublePointModel(f)
        yield model, old_certify_pair, unchecked_pair_complex(f)
        yield model, closure_certify, closure_model(f)


_WITNESS_CASES = list(_witness_cases())


def assert_certifies_as_oracle(model, k: int, values: dict, oracle, stored) -> None:
    """``certify_witness`` on the walked model reaches the old certifier's
    verdict.  On success it lists each walked cell once with the kind the
    old certifier gave it, and with their swap images these are every cell
    the old certifier tested, by the off-diagonal part of each of the
    stored model's simplices.  On failure it names the old certifier's
    first failure, and hull coefficients put the origin in the hull."""
    try:
        expected_ok, expected = oracle(stored, k, values)
    except KeyError as exc:
        # The old certifiers indexed a deleted entry; it is now reported.
        expected_ok, expected = False, [("missing-or-bad-dimension", exc.args[0])]
    ok, evidence = certify_witness(model, k, values)
    assert ok == expected_ok
    if not ok:
        assert [record[:2] for record in evidence] == [expected[-1][:2]]
        if evidence[0][1] == "origin-in-hull":
            cell, _, coefficients = evidence[0]
            assert min(coefficients) >= 0 and sum(coefficients) == 1
            total = (Fraction(0),) * k
            for c, p in zip(coefficients, cell):
                total = linalg.vec_add(total, linalg.vec_scale(c, values[p]))
            assert not any(total)
        return
    kinds = {tuple(p for p in s if p[0] != p[1]): kind for s, kind, _ in expected}
    canon = stored.complex.canon
    met = {}
    for cell, kind, _ in evidence:
        for c in (cell, tuple(p[::-1] for p in cell)):
            met[canon(c)] = kind
    assert len(met) == 2 * len(evidence)
    assert met == kinds


@PROPERTY
@given(
    st.sampled_from(range(len(_WITNESS_CASES))),
    st.integers(1, 3),
    st.integers(0, 3),
    st.sampled_from(["none", "zero", "negate", "delete"]),
    st.integers(0, 99),
)
def test_merged_certifier_matches_old_certifiers(case, k, shift, damage, pick):
    model, oracle, stored = _WITNESS_CASES[case]
    values = moment_values(model.vertices, k, shift)
    keys = list(model.vertices)
    if damage != "none":
        v = keys[pick % len(keys)]
        if damage == "zero":
            values[v] = (Fraction(0),) * k
        elif damage == "negate":
            values[v] = tuple(-x for x in values[v])
        else:
            del values[v]
    assert_certifies_as_oracle(model, k, values, oracle, stored)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_merged_generator_matches_old_generators(k):
    sphere = (DoublePointModel(_SPHERE), closure_certify, closure_model(_SPHERE))
    cases = _WITNESS_CASES + ([sphere] if k == 3 else [])
    for model, oracle, stored in cases:
        draws = (moment_values(model.vertices, k, shift) for shift in range(8))
        expected = next((values for values in draws if oracle(stored, k, values)[0]), None)
        try:
            assert equivariant_witness(model, k) == expected
        except CertificationError:
            assert expected is None


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(
    st.one_of(
        small_non_degenerate_maps(),
        coloured_maps(),
        covering_pieces(),
        coloured_maps().filter(check_star_condition),  # folds more often
    ),
    st.integers(1, 3),
)
@example(fold_path_map(), 1)
def test_walked_witness_matches_the_closure_oracle(f, k):
    """The walked pair model's fold vertices are the closure model's fold
    locus, and its dimension, cell counts and components are those of
    ``D``, the closure's full subcomplex on its off-diagonal vertices, folds
    or not.  On every draw that passes the lift's gates, it gives the
    closure model's moment-curve witness, sheet split and certification
    verdicts."""
    model = DoublePointModel(f)
    closure = closure_model(f)
    assert model.fold_vertices == set(closure.fold.vertices)
    d = closure.off_diagonal()
    assert model.dim == d.dim
    assert model.cell_counts == tuple(n // 2 for n in d.f_vector())
    assert model.components == d.connected_components()
    assume(has_triple_points(f) is None and is_simple_fold(model)[0])
    try:
        walked = equivariant_witness(model, k)
    except CertificationError:
        walked = None
    assert walked == closure_moment_witness(closure, k)
    split = sheet_split_witness(model, k)
    assert split == closure_sheet_split(closure, k)
    for values in (walked, split, moment_values(model.vertices, k, 0)):
        if values is not None:
            assert certify_witness(model, k, values)[0] == closure_certify(closure, k, values)[0]


# -- constructed lifts ------------------------------------------------------------------

# Covers without triple points, so that every restriction is in the domain
# of ``construct_lift_3ptfree``.
_TRIPLE_POINT_FREE = (_COVERS[0], _COVERS[1], _SPHERE)


@settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(covering_pieces(_TRIPLE_POINT_FREE), st.integers(1, 3))
def test_constructed_lifts_verify(f, k):
    try:
        lift = construct_lift_3ptfree(f, k).lift
    except NotKPrem:
        return
    except CertificationError:
        # Neither the moment curve nor a sheet split certified, and the
        # verdict has no route to a certificate either way: 0 < Yang < k.
        # A known gap of the verdict, not a bad lift.
        verdict = equivariant_map_exists(double_point_model(f), k)
        assert verdict.answer == INCONCLUSIVE
        assert verdict.yang > 0
        return
    assert verify_embedding(f, lift).ok


@settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(
    covering_pieces(_TRIPLE_POINT_FREE),
    st.integers(1, 3),
    st.integers(0, 99),
    st.sampled_from(["zero", "negate", "skew"]),
)
def test_homotopy_certificate_matches_the_lp_route(f, k, pick, damage):
    """The lift's difference on each identified pair is twice the witness,
    and the LP route agrees that the homotopy is certified.  Replacing one
    pair's value so that its difference is no positive multiple of the
    witness fails that pair's record."""
    assume(k > 1 or damage != "skew")
    try:
        res = construct_lift_3ptfree(f, k)
    except (NotKPrem, CertificationError):
        return  # no lift: see test_constructed_lifts_verify
    g = dict(res.lift.values)
    pairs = res.model.vertices
    assert res.homotopy_certified
    assert res.homotopy_evidence == [(p, True, 2) for p in pairs]
    assert old_homotopy_certificate(closure_model(f), res.witness, g)[0]
    if not pairs:
        return
    u, v = pairs[pick % len(pairs)]
    a = res.witness[(u, v)]
    if damage == "zero":
        d = (Fraction(0),) * k
    elif damage == "negate":
        d = tuple(-x for x in a)
    else:  # a plus a unit vector off a's line
        j = next((i for i, x in enumerate(a) if x == 0), 0)
        d = tuple(x + (i == j) for i, x in enumerate(a))
    g[v] = linalg.vec_add(g[u], d)
    ok, evidence = lift._homotopy_certificate(res.model, res.witness, g)
    assert not ok
    assert ((u, v), False, None) in evidence


def old_verify_embedding(f: SimplicialMap, g: SemiLinearMap) -> tuple:
    """Evidence and violations of a non-degenerate map's verification when
    every maximal simplex ran the exact self-check."""
    evidence, violations = [], []
    for s in f.source.maximal_simplices():
        w = verify._self_check(f, g, s)
        kind = verify.EMBEDDED_SIMPLEX if w is None else verify.VIOLATION
        evidence.append(verify.PairEvidence(pair=(s, s), kind=kind, witness=w))
        if w is not None:
            violations.append(w)
    if violations:
        return evidence, violations
    for fibre in f.fibers().values():
        for s, t in combinations(fibre, 2):
            ev = verify._matched_pair_check(f, g, s, t)
            evidence.append(ev)
            if ev.kind == verify.VIOLATION:
                violations.append(ev.witness)
    return evidence, violations


@st.composite
def non_degenerate_lifts(draw):
    """A random non-degenerate map with random small integer lift values in
    one to three coordinates."""
    f = draw(st.one_of(covering_pieces(), small_non_degenerate_maps(), coloured_maps()))
    k = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    values = {v: draw(coords) for v in f.source.vertices}
    return f, SemiLinearMap(f.source, values, out_dim=k)


@PROPERTY
@given(non_degenerate_lifts())
def test_verify_without_self_checks_matches_the_self_checking_oracle(case):
    f, g = case
    res = verify_embedding(f, g)
    assert (res.evidence, res.violations) == old_verify_embedding(f, g)
    assert res.ok == (not res.violations)


def old_separation(points) -> tuple:
    """``separation`` by the rank of every set of points."""
    if linalg.linearly_independent(points):
        return "independent", None
    inside, cert = lp.zero_in_hull(points)
    return ("origin-in-hull" if inside else "separated"), cert


@PROPERTY
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.fractions(max_denominator=5), min_size=k, max_size=k)
))
@example([Fraction(0)])
@example([Fraction(0), Fraction(0), Fraction(0)])
def test_single_point_separation_matches_the_rank_route(vector):
    point = tuple(vector)
    assert separation([point]) == old_separation([point])


# -- PL refinement of graph lifts -------------------------------------------------------


@st.composite
def cycle_cover_lifts(draw):
    """``cycle_cover(2, n)`` for small ``n`` with the lift that ``lift -k 2``
    constructs, or with random integer values in the plane that ``verify``
    accepts."""
    f = cycle_cover(2, draw(st.integers(3, 6)))
    if draw(st.booleans()):
        return f, construct_lift_3ptfree(f, 2).lift
    coords = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    values = {v: tuple(map(Fraction, draw(coords))) for v in f.source.vertices}
    g = SemiLinearMap(f.source, values, out_dim=2)
    assume(verify_embedding(f, g).ok)
    return f, g


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(cycle_cover_lifts())
def test_plify_certifies_every_verified_lift_of_a_cycle_cover(case):
    """Local radii cut less than one global radius, and the certificate
    still holds: the refined lift agrees at the original vertices, every
    identified vertex pair has disjoint derived-star hulls, and the refined
    map verifies."""
    f, g = case
    res = plify(f, g)
    assert res.ok
    assert res.vertex_agreement
    assert res.hull_evidence and all(h.disjoint for h in res.hull_evidence)
    assert verify_embedding(res.refined_map, res.lift).ok
