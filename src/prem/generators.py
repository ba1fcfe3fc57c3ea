"""Builders for the example maps and complexes used by the test-suite, the
demos, and the command-line tour: cyclic covers of cycles, antipodal spheres
(cross-polytope boundaries), the two-loop wedge maps, fold paths, and the
cyclic covering of a three-sphere built as a join of two circles together
with its cyclic quotient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from typing import Dict, List, Tuple

from .complexes import SimplicialComplex
from .double_points import check_star_condition
from .errors import InternalError, PreconditionError
from .maps import SemiLinearMap, SimplicialMap
from .formats import id_token
from .mod2 import rank_orbit_quotient


def _cycle_complex(n: int, prefix: str = "n") -> SimplicialComplex:
    """Simplicial circle with ``n`` vertices ``<prefix>0 .. <prefix>{n-1}``."""
    return _cycle_complex_from_listing([f"{prefix}{i}" for i in range(n)])


def _path_complex(ids: List) -> SimplicialComplex:
    edges = {tuple(ids[i : i + 2]) for i in range(len(ids) - 1)}
    return SimplicialComplex(list(ids), edges | {(v,) for v in ids})


def cycle_cover(fold: int, base: int) -> SimplicialMap:
    """The ``fold``-sheeted covering of a ``base``-gon by a ``fold*base``-gon,
    sending vertex i to vertex i mod base."""
    if fold < 1:
        raise PreconditionError("fold must be at least 1")
    src = _cycle_complex(fold * base, "n")
    tgt = _cycle_complex(base, "b")
    return SimplicialMap(src, tgt, {f"n{i}": f"b{i % base}" for i in range(fold * base)})


def figure_eight_map() -> SimplicialMap:
    """An eight-cycle mapped onto a wedge of two four-cycles, two-to-one only
    at the wedge point."""
    src = _cycle_complex(8, "n")
    tv = ["w", "p1", "p2", "p3", "q1", "q2", "q3"]
    tedges = {
        ("w", "p1"), ("p1", "p2"), ("p2", "p3"), ("w", "p3"),
        ("w", "q1"), ("q1", "q2"), ("q2", "q3"), ("w", "q3"),
    }
    tgt = SimplicialComplex(tv, tedges | {(v,) for v in tv})
    vm = {"n0": "w", "n1": "p1", "n2": "p2", "n3": "p3",
          "n4": "w", "n5": "q1", "n6": "q2", "n7": "q3"}
    return SimplicialMap(src, tgt, vm)


def fold_path_map() -> SimplicialMap:
    """A three-vertex path folded onto a single edge at its middle vertex."""
    src = _path_complex(["a", "b", "c"])
    tgt = _path_complex(["x", "y"])
    return SimplicialMap(src, tgt, {"a": "x", "b": "y", "c": "x"})


def wiggly_figure_eight() -> Tuple[SimplicialMap, SemiLinearMap]:
    """The figure-eight map with both sides refined four-fold and a lift that
    wiggles by ±1/8 at the refinement vertices.  The lift's combined map is
    injective, which makes the pair the standard refinement-cascade input."""
    base = figure_eight_map()
    k_ids = [f"n{i}" for i in range(8)]
    src_ids: List = []
    for i in range(8):
        src_ids.append(k_ids[i])
        src_ids.extend(("kc", i, j) for j in (1, 2, 3))
    src = _cycle_complex_from_listing(src_ids)

    loop_paths = []
    seen: List = []
    tedges = set()
    for loop, ids in (("p", ["w", "p1", "p2", "p3", "w"]),
                      ("q", ["w", "q1", "q2", "q3", "w"])):
        path: List = []
        for i in range(4):
            path.append(ids[i])
            path.extend(("mc", loop, i, j) for j in (1, 2, 3))
        path.append(ids[4])
        loop_paths.append(path)
        for x, y in zip(path, path[1:]):
            tedges.add((x, y))
        for v in path:
            if v not in seen:
                seen.append(v)
    tgt = SimplicialComplex(seen, tedges | {(v,) for v in seen})

    walk = src_ids + [src_ids[0]]
    p_path, q_path = loop_paths
    vm: Dict = {}
    for idx in range(17):
        vm[walk[idx]] = p_path[idx]
    for idx in range(16, 32):
        vm[walk[idx]] = q_path[idx - 16]
    f = SimplicialMap(src, tgt, vm)

    heights = {"n0": Fraction(-1), "n4": Fraction(1)}
    values: Dict = {}
    for v in src_ids:
        if isinstance(v, tuple):
            _, i, j = v
            a, b = k_ids[i], k_ids[(i + 1) % 8]
            t = Fraction(j, 4)
            base_val = (1 - t) * heights.get(a, Fraction(0)) + t * heights.get(b, Fraction(0))
            values[v] = (base_val + Fraction((-1) ** j, 8),)
        else:
            values[v] = (heights.get(v, Fraction(0)),)
    return f, SemiLinearMap(src, values, out_dim=1)


def _cycle_complex_from_listing(ids: List) -> SimplicialComplex:
    """Simplicial circle through the given distinct vertex ids in order."""
    if len(ids) < 3:
        raise PreconditionError("a simplicial circle needs at least 3 vertices")
    rank = {v: i for i, v in enumerate(ids)}
    edges = set()
    for i in range(len(ids)):
        a, b = ids[i], ids[(i + 1) % len(ids)]
        edges.add((a, b) if rank[a] < rank[b] else (b, a))
    return SimplicialComplex(list(ids), edges | {(v,) for v in ids})


def cross_polytope_boundary(m: int) -> Tuple[SimplicialComplex, Dict]:
    """Boundary of the (m+1)-dimensional cross-polytope (a simplicial
    m-sphere) and its antipodal involution on vertices."""
    if m < 1:
        raise PreconditionError("cross-polytope boundary needs dimension >= 1")
    vertices: List = []
    for i in range(m + 1):
        vertices.extend((f"p{i}", f"m{i}"))
    facets = []
    for signs in product("pm", repeat=m + 1):
        facets.append(tuple(f"{s}{i}" for i, s in enumerate(signs)))
    c = SimplicialComplex.from_maximal(vertices, facets)
    swap = {}
    for i in range(m + 1):
        swap[f"p{i}"] = f"m{i}"
        swap[f"m{i}"] = f"p{i}"
    return c, swap


# -- cyclic group actions and their quotients ----------------------------------
#
# A covering is the orbit projection of a free cyclic action, built by
# :func:`mod2.rank_orbit_quotient` after the barycentric subdivisions that
# make the action regular.  Regularity implies the disjoint-closed-stars
# condition of the pair model: adjacent vertices of one orbit break R1, and a
# common neighbour of two vertices of one orbit puts two edges of different
# orbits into one fibre, which breaks R2.


def _join_sphere(p: int) -> SimplicialComplex:
    """The join of two ``p``-gons: a simplicial 3-sphere whose facets pair an
    edge of the first circle with an edge of the second."""
    if p < 3:
        raise PreconditionError("join of circles needs p >= 3")
    a = [f"a{i}" for i in range(p)]
    b = [f"b{j}" for j in range(p)]
    facets = [
        (a[i], a[(i + 1) % p], b[j], b[(j + 1) % p])
        for i in range(p)
        for j in range(p)
    ]
    return SimplicialComplex.from_maximal(a + b, facets)


def _orbit_covering(c: SimplicialComplex, gamma: Dict, order: int) -> Tuple[SimplicialMap, int]:
    """The orbit projection of a free cyclic action and the number of
    subdivision rounds it took.  Each vertex is named once, by the file
    token of its barycentric id, so the map is the one that writing it and
    reading it back gives."""
    rq = rank_orbit_quotient(c, gamma, order)
    tokens = [id_token(v) for v in rq.labels]
    upstairs = rq.upstairs.renamed(tokens)
    quotient = rq.quotient.renamed(tokens)
    vertex_map = dict(zip(tokens, map(tokens.__getitem__, rq.projection)))
    rounds = rq.subdivision_rounds
    del rq  # the rank complexes would raise the peak memory of the map check
    projection = SimplicialMap(upstairs, quotient, vertex_map)
    if check_star_condition(projection):
        raise InternalError("a regular orbit map breaks the disjoint-closed-stars condition")
    return projection, rounds


def lens_covering(p: int, q: int) -> Tuple[SimplicialMap, int]:
    """The ``p``-fold cyclic covering of the quotient of the join-of-circles
    3-sphere by the rotation pair (advance the first circle by one, the
    second by ``q``): subdivides barycentrically until the orbit map is a
    simplicial quotient, then returns the projection and the number of
    rounds used.  Its vertex ids are the tokens that ``write_map`` prints,
    such as ``a0+a1``."""
    if p < 3:
        raise PreconditionError("the cyclic quotient of the join sphere needs p >= 3")
    if not (1 <= q < p) or gcd(p, q) != 1:
        raise PreconditionError("the rotation parameter must be a unit modulo p")
    c = _join_sphere(p)
    gamma = {}
    for i in range(p):
        gamma[f"a{i}"] = f"a{(i + 1) % p}"
        gamma[f"b{i}"] = f"b{(i + q) % p}"
    return _orbit_covering(c, gamma, p)


def antipodal_sphere_covering(m: int) -> Tuple[SimplicialMap, int]:
    """The two-fold covering of real projective m-space by the cross-polytope
    m-sphere, subdivided until the antipodal orbit map is simplicial.  Its
    vertex ids are the tokens that ``write_map`` prints."""
    return _orbit_covering(*cross_polytope_boundary(m), 2)
