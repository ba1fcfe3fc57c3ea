from fractions import Fraction
from itertools import combinations
from math import comb
from typing import List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prem import linalg, lp, verify
from prem.complexes import SimplicialComplex
from prem.errors import InternalError, MapError
from prem.generators import cycle_cover, figure_eight_map, fold_path_map
from prem.lift import construct_lift_3ptfree
from prem.maps import SemiLinearMap, SimplicialMap
from prem.verify import PairEvidence, ViolationWitness, verify_embedding

from conftest import rref

F = Fraction


def figure_eight_lift():
    f = figure_eight_map()
    values = {v: (F(0),) for v in f.source.vertices}
    values["n0"] = (F(-1),)
    values["n4"] = (F(1),)
    return f, SemiLinearMap(f.source, values)


def test_figure_eight_lift_certifies():
    f, g = figure_eight_lift()
    res = verify_embedding(f, g)
    assert res.ok
    assert res.simplices_checked == 8
    assert res.pairs_checked == 28
    # n0 and n4 over the crossing are the only same-image pair.
    assert res.kind_counts() == {"embedded-simplex": 8, "independent": 1}
    assert res.violations == []


def test_figure_eight_zero_lift_fails():
    f = figure_eight_map()
    g = SemiLinearMap(f.source, {v: (F(0),) for v in f.source.vertices})
    res = verify_embedding(f, g)
    assert not res.ok
    assert res.violations
    w = res.violations[0]
    assert w.g_value == (F(0),)
    # The two passages live on different source circles.
    assert set(w.x.support) != set(w.y.support)


def test_fold_with_height_is_embedded():
    f = fold_path_map()
    src = f.source
    a, b, c = src.vertices
    g = SemiLinearMap(src, {a: (F(0),), b: (F(0),), c: (F(1),)})
    res = verify_embedding(f, g)
    assert res.ok
    assert res.simplices_checked == 2
    assert res.pairs_checked == 1
    assert res.kind_counts() == {"embedded-simplex": 2, "independent": 2}


def test_fold_without_height_fails():
    f = fold_path_map()
    g = SemiLinearMap(f.source, {v: (F(0),) for v in f.source.vertices})
    res = verify_embedding(f, g)
    assert not res.ok
    w = res.violations[0]
    assert w.simplex_x != w.simplex_y


def test_lift_must_cover_source_vertices():
    f = figure_eight_map()
    g = SemiLinearMap(f.source, {v: (F(0),) for v in f.source.vertices})
    wrong = SemiLinearMap(f.target, {v: (F(0),) for v in f.target.vertices})
    with pytest.raises(MapError):
        verify_embedding(f, wrong)


def fold_disk_map() -> SimplicialMap:
    """Two triangles on a common edge folded onto one triangle: the shared
    face of the only LP pair is an edge, not a vertex."""
    src = SimplicialComplex.from_maximal(["a", "b", "c", "d"], [("a", "b", "c"), ("b", "c", "d")])
    tgt = SimplicialComplex.from_maximal(["x", "y", "z"], [("x", "y", "z")])
    return SimplicialMap(src, tgt, {"a": "x", "b": "y", "c": "z", "d": "x"})


def collapsed_triangle_map() -> SimplicialMap:
    """A triangle whose edge ``b c`` collapses onto ``y``, and an edge ``c d``
    over the triangle's image: a degenerate map, decided by pair LPs."""
    src = SimplicialComplex.from_maximal(["a", "b", "c", "d"], [("a", "b", "c"), ("c", "d")])
    tgt = SimplicialComplex.from_maximal(["x", "y"], [("x", "y")])
    return SimplicialMap(src, tgt, {"a": "x", "b": "y", "c": "y", "d": "x"})


def test_unbounded_pair_lp_is_internal_error(monkeypatch):
    """``a c`` and ``c d`` share ``c`` but not a simplex: the pair maximizes
    the mass off ``c``."""
    f = collapsed_triangle_map()
    g = SemiLinearMap(f.source, {"a": (F(0),), "b": (F(0),), "c": (F(1),), "d": (F(0),)})
    monkeypatch.setattr(lp, "lp_max", lambda a, b, c: lp.LPResult(status="unbounded"))
    with pytest.raises(InternalError) as info:
        verify_embedding(f, g)
    assert info.value.exit_code == 70


# -- the same-image pair loop against the per-objective check of every pair ----

DISJOINT_IMAGES = "disjoint-images"
MATCHED_KINDS = {"independent", "separated", verify.VIOLATION}
LP_KINDS = {verify.SAME_CARRIER, verify.FARKAS, verify.DIAGONAL_CONFINED, verify.VIOLATION}


def oracle_pair_check(f, g, s, t) -> PairEvidence:
    """The former test of a pair of maximal simplices: a feasibility LP, then
    one ``lp_max`` per off-face coordinate and per signed difference on the
    shared face."""
    img_s = {f.vertex_map[v] for v in s}
    img_t = {f.vertex_map[w] for w in t}
    if not (img_s & img_t):
        return PairEvidence(pair=(s, t), kind=DISJOINT_IMAGES)
    if f.source.has_simplex(set(s) | set(t)):
        return PairEvidence(pair=(s, t), kind=verify.SAME_CARRIER)
    frame = sorted(img_s | img_t, key=f.target.rank.__getitem__)
    cols_s = verify._combined_columns(f, g, s, frame)
    cols_t = verify._combined_columns(f, g, t, frame)
    d = len(cols_s[0])
    ns, nt = len(s), len(t)
    a = [[c[i] for c in cols_s] + [-c[i] for c in cols_t] for i in range(d)]
    a.append([F(1)] * ns + [F(0)] * nt)
    a.append([F(0)] * ns + [F(1)] * nt)
    b = [F(0)] * d + [F(1), F(1)]
    res = lp.lp_feasible(a, b, n=ns + nt)
    if res.status == "infeasible":
        return PairEvidence(pair=(s, t), kind=verify.FARKAS)
    shared = set(s) & set(t)
    if not shared:
        return PairEvidence(pair=(s, t), kind=verify.VIOLATION)
    objectives: List[List[Fraction]] = []
    for i, v in enumerate(s):
        if v not in shared:
            obj = [F(0)] * (ns + nt)
            obj[i] = F(1)
            objectives.append(obj)
    for j, w in enumerate(t):
        if w not in shared:
            obj = [F(0)] * (ns + nt)
            obj[ns + j] = F(1)
            objectives.append(obj)
    for v in shared:
        i, j = s.index(v), t.index(v)
        for sign in (1, -1):
            obj = [F(0)] * (ns + nt)
            obj[i] = F(sign)
            obj[ns + j] = F(-sign)
            objectives.append(obj)
    for obj in objectives:
        mx = lp.lp_max(a, b, obj)
        assert mx.status == "optimal"
        if mx.value > 0:
            return PairEvidence(pair=(s, t), kind=verify.VIOLATION)
    return PairEvidence(pair=(s, t), kind=verify.DIAGONAL_CONFINED)


def _push(f, bp) -> dict:
    """f(x) as target-vertex weights."""
    acc: dict = {}
    for v, c in zip(bp.support, bp.coords):
        acc[f.vertex_map[v]] = acc.get(f.vertex_map[v], F(0)) + c
    return acc


MAPS = st.one_of(
    st.just(fold_path_map()),
    st.just(figure_eight_map()),
    st.just(fold_disk_map()),
    st.just(collapsed_triangle_map()),
    st.integers(3, 6).map(lambda b: cycle_cover(2, b)),
)


@st.composite
def lifted_maps(draw):
    f = draw(MAPS)
    k = draw(st.sampled_from([1, 2]))
    coord = st.integers(-2, 2).map(F)
    values = {v: tuple(draw(st.lists(coord, min_size=k, max_size=k))) for v in f.source.vertices}
    return f, SemiLinearMap(f.source, values)


PROPERTY = settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(lifted_maps())
def test_one_lp_pair_check_matches_oracle(fg):
    """``verify_embedding`` loops over same-image pairs only; the oracle
    decides every pair of maximal simplices.  ``ok`` agrees, and every
    violation re-checks exactly."""
    f, g = fg
    res = verify_embedding(f, g)
    maximal = f.source.maximal_simplices()
    embedded = all(verify._self_check(f, g, s) is None for s in maximal)
    oracle_ok = embedded and all(
        oracle_pair_check(f, g, s, t).kind != verify.VIOLATION
        for s, t in combinations(maximal, 2)
    )
    assert res.ok == oracle_ok
    assert res.simplices_checked == len(maximal)
    if embedded:
        assert res.pairs_checked == comb(len(maximal), 2)
        same_image = [p for fibre in f.fibers().values() for p in combinations(fibre, 2)]
        pairs = res.evidence[len(maximal) :]
        assert [ev.pair for ev in pairs] == same_image
        kinds = MATCHED_KINDS if f.is_non_degenerate() else LP_KINDS
        assert {ev.kind for ev in pairs} <= kinds
    for w in res.violations:
        x = dict(zip(w.x.support, w.x.coords))
        y = dict(zip(w.y.support, w.y.coords))
        assert x != y
        assert set(w.x.support) <= set(w.simplex_x)
        assert set(w.y.support) <= set(w.simplex_y)
        assert sum(w.x.coords) == 1 and sum(w.y.coords) == 1
        assert _push(f, w.x) == _push(f, w.y)
        assert g(w.x) == g(w.y) == w.g_value


def rref_self_check(f: SimplicialMap, g: SemiLinearMap, s) -> Optional[ViolationWitness]:
    """The self-check's witness with the affine dependency read off the
    reduced row echelon form: 1 in the first non-pivot column j0, minus
    column j0 of the reduced matrix in the pivot columns."""
    frame = sorted({f.vertex_map[v] for v in s}, key=f.target.rank.__getitem__)
    cols = verify._combined_columns(f, g, s, frame)
    if linalg.affinely_independent(cols):
        return None
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]
    rows.append([F(1)] * len(cols))
    reduced, piv_cols, _ = rref(rows)
    j0 = next(j for j in range(len(cols)) if j not in piv_cols)
    dep = [F(0)] * len(cols)
    dep[j0] = F(1)
    for r, pc in enumerate(piv_cols):
        dep[pc] = -reduced[r][j0]
    pos = sum(c for c in dep if c > 0)
    x = verify._point_from_coeffs(s, [max(c, F(0)) / pos for c in dep])
    y = verify._point_from_coeffs(s, [max(-c, F(0)) / pos for c in dep])
    return ViolationWitness(simplex_x=s, simplex_y=s, x=x, y=y, g_value=g(x))


@st.composite
def collapsed_simplices(draw):
    """One source simplex of two to five vertices sent onto a target simplex
    with fewer vertices, so the map is degenerate, lifted by small values
    in one or two coordinates, so that the self-check often finds a
    dependency."""
    n = draw(st.integers(2, 5))
    source = [f"v{i}" for i in range(n)]
    target = [f"t{j}" for j in range(draw(st.integers(1, n - 1)))]
    images = draw(st.lists(st.sampled_from(target), min_size=n, max_size=n))
    s = tuple(source)
    f = SimplicialMap(SimplicialComplex.from_maximal(source, [s]),
                      SimplicialComplex.from_maximal(target, [tuple(target)]),
                      dict(zip(source, images)))
    k = draw(st.integers(1, 2))
    coord = st.fractions(min_value=-1, max_value=1, max_denominator=2)
    values = {v: tuple(draw(st.lists(coord, min_size=k, max_size=k))) for v in source}
    return f, SemiLinearMap(f.source, values), s


@PROPERTY
@given(collapsed_simplices())
def test_self_check_matches_the_rref_route(case):
    """The self-check's dependency, one ``solve`` per column up to the
    first dependent one, gives the witness that ``rref`` gives."""
    f, g, s = case
    assert verify._self_check(f, g, s) == rref_self_check(f, g, s)


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_one_solve_per_undecided_pair(monkeypatch):
    """An ``independent`` or ``same-carrier`` pair takes no LP; every other
    pair record takes exactly one."""
    solves = _count_calls(monkeypatch, lp, "lp_solve")
    cover = cycle_cover(2, 5)
    # The edge n9 n0 and its partner n4 n5 get differences -5 and 5: a
    # violation; the other edge pairs get 5 and 5: separated.
    wrapped = SemiLinearMap(cover.source, {f"n{i}": (F(i),) for i in range(10)})
    collapsed = collapsed_triangle_map()
    lifted = SemiLinearMap(
        collapsed.source, {"a": (F(0),), "b": (F(0),), "c": (F(1),), "d": (F(2),)}
    )
    counts = []
    for f, g in [(cover, wrapped), (collapsed, lifted)]:
        solves.clear()
        res = verify_embedding(f, g)
        kinds = res.kind_counts()
        free = kinds.get("independent", 0) + kinds.get(verify.SAME_CARRIER, 0)
        assert len(solves) == len(res.evidence) - res.simplices_checked - free > 0
        counts.append(kinds)
    assert counts[0] == {"embedded-simplex": 10, "independent": 5, "separated": 4, "violation": 1}


@pytest.mark.parametrize("b", [3, 5, 100])
def test_pair_checks_run_on_candidate_pairs_only(monkeypatch, b):
    """The candidate pairs are the same-image pairs.  On the ``lift -k 2``
    lift of the double cover of a b-cycle, each target vertex and each target
    edge has two preimages: 2b pairs, all ``independent``, no LP, and every
    one of the C(2b, 2) pairs of edges decided."""
    f = cycle_cover(2, b)
    g = construct_lift_3ptfree(f, 2).lift
    checks = _count_calls(monkeypatch, verify, "_matched_pair_check")
    self_checks = _count_calls(monkeypatch, verify, "_self_check")
    solves = _count_calls(monkeypatch, lp, "lp_solve")
    res = verify_embedding(f, g)
    assert res.ok
    assert self_checks == []  # a non-degenerate map embeds every simplex
    assert len(checks) == 2 * b
    assert res.pairs_checked == comb(2 * b, 2)
    assert res.kind_counts() == {verify.EMBEDDED_SIMPLEX: 2 * b, "independent": 2 * b}
    assert solves == []
