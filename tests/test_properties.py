"""Property tests of the rank-keyed combinatorial core on random small
complexes, involutions and maps.

Each rewritten routine is compared with the straightforward construction it
replaced, kept here as the oracle: canonicalising every simplex, sorting
every matched pair cell, rebuilding each link through ``subcomplex``, and
union-find over every simplex.
"""

from itertools import combinations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from prem import gf2, mod2
from prem.complexes import InvolutionComplex, SimplicialComplex
from prem.double_points import build_double_point_complex, double_point_model
from prem.errors import PreconditionError
from prem.generators import antipodal_sphere_covering, cycle_cover
from prem.lift import build_closure_model
from prem.maps import SimplicialMap
from prem.subdivision import barycentric_subdivide_map

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


def old_link(c: SimplicialComplex, v) -> SimplicialComplex:
    return c.subcomplex({s[:i] + s[i + 1:] for s in c.star_simplices(v)
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


def old_regularity_failures(ic: InvolutionComplex) -> list:
    cx, t = ic.complex, ic.involution
    failures = [f"simplex {s} meets its own involution orbit"
                for s in cx.sorted_simplices() if any(t[v] in s for v in s)]
    images = {}
    for s in cx.simplices:
        images.setdefault(frozenset(frozenset((v, t[v])) for v in s), []).append(s)
    for fiber in images.values():
        if len(fiber) > 2:
            failures.append(f"fiber {sorted(map(tuple, fiber))} has more than one orbit pair")
        elif len(fiber) == 2 and cx.canon(t[v] for v in fiber[0]) != fiber[1]:
            failures.append(f"simplices {fiber[0]} and {fiber[1]} are identified but not swapped")
    return failures


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
    assert sum((-1) ** i * b for i, b in enumerate(betti)) == c.euler_characteristic()
    assert all(b >= 0 for b in betti)
    assert not betti or betti[0] == len(c.connected_components())


@PROPERTY
@given(st.one_of(closed_complexes(), raw_complexes()))
def test_connected_components_unchanged(c):
    assert c.connected_components() == old_components(c)


@PROPERTY
@given(st.one_of(closed_complexes(), raw_complexes()))
def test_purity_matches_face_closure_of_facets(c):
    top = [s for s in c.simplices if len(s) == c.dim + 1]
    covered = {f for s in top for k in range(1, len(s) + 1) for f in combinations(s, k)}
    assert c.is_pure() == (covered == c.simplices)


# -- involutions and quotients --------------------------------------------------------


@PROPERTY
@given(involution_complexes())
def test_cached_simplex_involution_matches_map_simplex(ic):
    cx, t = ic.complex, ic.involution
    images = ic.simplex_images()
    assert set(images) == cx.simplices
    for s, img in images.items():
        assert img == cx.canon(t[v] for v in s)
        assert images[img] is s  # the image is the stored tuple itself
        assert ic.map_simplex(s) is img
    assert ic.fixed_simplices() == sorted(
        (s for s in cx.simplices if cx.canon(t[v] for v in s) == s), key=cx.sort_key)


@PROPERTY
@given(involution_complexes())
def test_regularity_failures_and_quotient_match_oracle(ic):
    new = mod2.quotient_regularity_failures(ic)
    old = old_regularity_failures(ic)
    own = [m for m in old if m.endswith("own involution orbit")]
    assert new[:len(own)] == own
    assert sorted(new) == sorted(old)
    if ic.is_free_on_simplices() and not new:
        qr = mod2.quotient_by_free_involution(ic)
        cx, t = ic.complex, ic.involution
        proj = {v: min(v, t[v], key=cx.rank.__getitem__) for v in cx.vertices}
        assert qr.quotient.simplices == {
            tuple(sorted({proj[v] for v in s}, key=cx.rank.__getitem__))
            for s in cx.simplices}
        assert qr.quotient == SimplicialComplex(qr.quotient.vertices, qr.quotient.simplices)


# -- maps ---------------------------------------------------------------------------


@PROPERTY
@given(covering_pieces())
def test_pair_cells_match_matched_bijection_route(f):
    model = build_double_point_complex(f)
    cells = {s for s in model.complex.simplices if len(s) > 1}
    assert cells == {s for s in old_pair_cells(f, False) if len(s) > 1}
    assert model.complex == SimplicialComplex(model.complex.vertices, model.complex.simplices)
    closure = build_closure_model(f)
    assert old_pair_cells(f, True) <= closure.complex.simplices
    assert closure.complex == SimplicialComplex(
        closure.complex.vertices, closure.complex.simplices)


def _yang(f: SimplicialMap) -> int:
    ic = double_point_model(f).pair_complex
    if not ic.complex.simplices:
        return -1
    qr = mod2.quotient_by_free_involution(ic)
    return mod2.yang_index(qr.quotient, mod2.w1_cocycle(qr))


@settings(deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(covering_pieces())
def test_yang_index_invariant_under_subdivision(f):
    try:
        before = _yang(f)
    except PreconditionError:
        assume(False)
    after = _yang(barycentric_subdivide_map(f)[0])
    assert before == after


def test_full_covers_keep_their_yang_index_under_subdivision():
    assert _yang(cycle_cover(2, 5)) == 1
    assert _yang(_SPHERE) == 2
    assert _yang(barycentric_subdivide_map(_SPHERE)[0]) == 2
