"""Property tests of the rank-keyed combinatorial core, the antipodal witness
certifier and the general-position test, on random small complexes,
involutions, maps, witnesses and point configurations.

Each rewritten routine is compared with the straightforward construction it
replaced, kept here as the oracle: canonicalising every simplex, sorting
every matched pair cell, rebuilding each link through ``subcomplex``,
union-find over every simplex, the separate witness certifiers of the pair
model and of the closure model, and the separate general-position tests in
the ambient dimension and in a given affine dimension.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from prem import gf2, linalg, lp, mod2
from prem.complexes import InvolutionComplex, SimplicialComplex
from prem.double_points import _pair_complex, build_double_point_complex, double_point_model
from prem.errors import CertificationError, PreconditionError
from prem.generators import antipodal_sphere_covering, cycle_cover, figure_eight_map, fold_path_map
from prem.lift import build_closure_model
from prem.maps import SimplicialMap
from prem.obstruction import certify_witness, equivariant_witness, moment_vector
from prem.stability import is_general_position_config
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


# -- antipodal witnesses ----------------------------------------------------------------


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


def old_certify_closure(closure, k, alpha):
    """The closure-model certifier before the merge: diagonal vertices carry
    no value and drop out of every cell."""
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
        free = tuple(p for p in s if p[0] != p[1])
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


def _witness_cases():
    """(involution complex, old certifier, the model that certifier takes)
    for the pair and closure models.  The fold path has no checked pair model
    (its identified stars meet), so every pair model is built unchecked."""
    maps = [fold_path_map(), figure_eight_map()] + [cycle_cover(2, n) for n in range(3, 7)]
    for f in maps:
        ic = _pair_complex(f)
        yield ic, old_certify_pair, ic
        closure = build_closure_model(f)
        yield closure.pair_complex, old_certify_closure, closure


_WITNESS_CASES = list(_witness_cases())


def moment_values(ic: InvolutionComplex, k: int, shift: int) -> dict:
    """Moment-curve values on the first member of each non-fixed orbit, in
    vertex order, and their negatives on the partners."""
    t = ic.involution
    values = {}
    for v in ic.complex.vertices:
        if t[v] != v and v not in values:
            values[v] = moment_vector(len(values) // 2, k, shift)
            values[t[v]] = tuple(-x for x in values[v])
    return values


@PROPERTY
@given(
    st.sampled_from(range(len(_WITNESS_CASES))),
    st.integers(1, 3),
    st.integers(0, 3),
    st.sampled_from(["none", "zero", "negate", "delete"]),
    st.integers(0, 99),
)
def test_merged_certifier_matches_old_certifiers(case, k, shift, damage, pick):
    ic, oracle, model = _WITNESS_CASES[case]
    values = moment_values(ic, k, shift)
    keys = [v for v in ic.complex.vertices if v in values]
    if damage != "none":
        v = keys[pick % len(keys)]
        if damage == "zero":
            values[v] = (Fraction(0),) * k
        elif damage == "negate":
            values[v] = tuple(-x for x in values[v])
        else:
            del values[v]
    try:
        expected = oracle(model, k, values)
    except KeyError as exc:
        # The old certifiers indexed a deleted entry; it is now reported.
        expected = (False, [("missing-or-bad-dimension", exc.args[0])])
    assert certify_witness(ic, k, values) == expected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_merged_generator_matches_old_generators(k):
    sphere = build_closure_model(_SPHERE)
    cases = _WITNESS_CASES + ([(sphere.pair_complex, old_certify_closure, sphere)] if k == 3 else [])
    for ic, oracle, model in cases:
        draws = (moment_values(ic, k, shift) for shift in range(8))
        expected = next((values for values in draws if oracle(model, k, values)[0]), None)
        try:
            assert equivariant_witness(ic, k) == expected
        except CertificationError:
            assert expected is None


# -- general position -------------------------------------------------------------------


def old_general_position_config(points) -> bool:
    """General position in the ambient dimension, before the merge."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len(pts) <= 1:
        return True
    k = min(len(pts), len(pts[0]) + 1)
    if k < 2:
        return len(set(pts)) == len(pts)
    return all(linalg.affinely_independent(sub) for sub in combinations(pts, k))


def old_general_position_in_affine_dim(points, d: int) -> bool:
    """General position in a given affine dimension, before the merge."""
    points = [tuple(Fraction(x) for x in p) for p in points]
    if len(set(points)) != len(points):
        return False
    if len(points) <= 1 or d < 1:
        return True
    k = min(len(points), d + 1)
    if k < 2:
        return True
    return all(linalg.affinely_independent(sub) for sub in combinations(points, k))


@st.composite
def integer_configurations(draw):
    m = draw(st.integers(0, 3))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m), max_size=6))
    return points, draw(st.one_of(st.none(), st.integers(0, m)))


@PROPERTY
@given(integer_configurations())
def test_general_position_matches_old_tests(config):
    points, dim = config
    if dim is None:
        assert is_general_position_config(points) == old_general_position_config(points)
    else:
        assert is_general_position_config(points, dim) == (
            old_general_position_in_affine_dim(points, dim))
