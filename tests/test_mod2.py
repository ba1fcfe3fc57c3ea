import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import prem
from prem.errors import PreconditionError
from prem.generators import cross_polytope_boundary, _cycle_complex
from prem.mod2 import CochainSpace, is_sheet_split, sheet_split, yang_index

from conftest import (
    InvolutionComplex,
    complex_from_facets,
    cup,
    octahedron,
    quotient_by_free_involution,
    regularity_failures,
    w1_cocycle,
)

F = Fraction


def antipodal_cycle(n: int) -> InvolutionComplex:
    c = _cycle_complex(n)
    half = n // 2
    t = {f"n{i}": f"n{(i + half) % n}" for i in range(n)}
    return InvolutionComplex(c, t)


def test_regularity_hexagon_passes():
    ic = antipodal_cycle(6)
    assert regularity_failures(ic.complex, ic.involution, 2) == []


def test_regularity_square_fails():
    # All four edges of the square share one orbit key, so the orbit map
    # identifies too much to stay simplicial.
    ic = antipodal_cycle(4)
    assert regularity_failures(ic.complex, ic.involution, 2) != []


# The R1/R2 failures of the rotation of the join sphere by a third of a
# turn, printed as JSON.
_LENS_FAILURES = """
import json
from prem import mod2
from prem.generators import _join_sphere
cx = _join_sphere(3)
gamma = {}
for i in range(3):
    gamma[f"a{i}"] = f"a{(i + 1) % 3}"
    gamma[f"b{i}"] = f"b{(i + 1) % 3}"
print(json.dumps(mod2._regularity(*mod2._ranked(cx, gamma), 3, cx.vertices)[0]))
"""


def test_regularity_failures_do_not_depend_on_the_hash_seed():
    # Before the fibres were sorted, seeds 0 and 2 listed the three
    # fibres that are not one orbit in two different orders.
    src = str(Path(prem.__file__).parent.parent)
    runs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _LENS_FAILURES], env=env,
                             capture_output=True, text=True, check=True).stdout
        runs.append(json.loads(out))
    assert runs[0] == runs[1]
    assert sum("is not one orbit" in failure for failure in runs[0]) == 3


def test_quotient_hexagon_no_subdivision():
    qr = quotient_by_free_involution(antipodal_cycle(6))
    assert qr.subdivision_rounds == 0
    assert qr.quotient.f_vector() == (3, 3)


def test_quotient_square_subdivides_once():
    qr = quotient_by_free_involution(antipodal_cycle(4))
    assert qr.subdivision_rounds == 1
    assert qr.quotient.f_vector() == (4, 4)
    # Projection is two-to-one onto representatives.
    fibers = {}
    for v, r in qr.projection.items():
        fibers.setdefault(r, set()).add(v)
    assert all(len(f) == 2 for f in fibers.values())


def test_quotient_octahedron_is_projective_plane():
    qr = quotient_by_free_involution(InvolutionComplex(*cross_polytope_boundary(2)))
    assert qr.subdivision_rounds == 1
    assert qr.quotient.f_vector() == (13, 36, 24)
    assert qr.quotient.is_closed_pseudomanifold()


def test_quotient_rejects_fixed_simplex():
    c = complex_from_facets([("a", "b")])
    with pytest.raises(PreconditionError):
        quotient_by_free_involution(InvolutionComplex(c, {"a": "b", "b": "a"}))


def test_w1_hexagon_values():
    qr = quotient_by_free_involution(antipodal_cycle(6))
    w = w1_cocycle(qr)
    q = qr.quotient
    # Two quotient edges lift straight, the third lift crosses the deck swap.
    assert w[q.canon(("n0", "n1"))] == 0
    assert w[q.canon(("n1", "n2"))] == 0
    assert w[q.canon(("n0", "n2"))] == 1


def test_yang_circle_is_one():
    qr = quotient_by_free_involution(antipodal_cycle(6))
    assert yang_index(qr.quotient, w1_cocycle(qr)) == 1


def test_yang_ladder_spheres():
    # Quotients of the antipodal 1- and 2-sphere: projective line and plane.
    expected = {1: 1, 2: 2}
    for m, want in expected.items():
        qr = quotient_by_free_involution(InvolutionComplex(*cross_polytope_boundary(m)))
        assert yang_index(qr.quotient, w1_cocycle(qr)) == want


def test_yang_trivial_cover_is_zero():
    # Two disjoint triangles swapped by the involution: trivial double cover.
    c = complex_from_facets(
        [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "z"), ("z", "x")]
    )
    t = {"a": "x", "b": "y", "c": "z", "x": "a", "y": "b", "z": "c"}
    qr = quotient_by_free_involution(InvolutionComplex(c, t))
    w = w1_cocycle(qr)
    assert set(w.values()) == {0}
    assert yang_index(qr.quotient, w) == 0


def test_cochain_coboundary_of_potential_is_cocycle():
    c = octahedron()
    space = CochainSpace(c)
    # d(indicator of vertex "n") is supported on the edges at "n".
    dphi = space.pack(1, {e: 1 for e in c.simplices_of_dim(1) if "n" in e})
    assert space.is_cocycle(dphi, 1)
    assert space.is_coboundary(dphi, 1)


def test_cochain_single_edge_is_not_cocycle_on_sphere():
    c = octahedron()
    space = CochainSpace(c)
    bits = space.pack(1, {c.canon(("a", "b")): 1})
    assert not space.is_cocycle(bits, 1)


def test_cochain_circle_generator_not_coboundary():
    circle = complex_from_facets([("a", "b"), ("b", "c"), ("c", "a")])
    space = CochainSpace(circle)
    bits = space.pack(1, {circle.canon(("a", "b")): 1})
    assert space.is_cocycle(bits, 1)
    assert not space.is_coboundary(bits, 1)


def test_cup_with_unit_is_identity():
    qr = quotient_by_free_involution(InvolutionComplex(*cross_polytope_boundary(2)))
    space = CochainSpace(qr.quotient)
    w_bits = space.pack(1, w1_cocycle(qr))
    assert cup(space, space.ones(0), 0, w_bits, 1) == w_bits


def test_cup_square_matches_direct_power():
    # Two routes to w \smile w must agree bit for bit.
    qr = quotient_by_free_involution(InvolutionComplex(*cross_polytope_boundary(2)))
    space = CochainSpace(qr.quotient)
    w_bits = space.pack(1, w1_cocycle(qr))
    assert cup(space, w_bits, 1, w_bits, 1) == space.one_cocycle_power(w_bits, 2)
    assert space.one_cocycle_power(w_bits, 2) != 0
    assert not space.is_coboundary(space.one_cocycle_power(w_bits, 2), 2)


def test_sheet_split_of_invariant_and_swapped_components():
    ic = antipodal_cycle(6)
    assert len(ic.complex.connected_components()) == 1
    assert sheet_split(ic.complex.connected_components(), ic.involution) is None

    c = complex_from_facets([("a", "b"), ("x", "y")])
    t = {"a": "x", "b": "y", "x": "a", "y": "b"}
    ic = InvolutionComplex(c, t)
    comps = ic.complex.connected_components()
    assert len(comps) == 2
    sheet = sheet_split(comps, t)
    assert sheet == {"a", "b"}
    assert is_sheet_split(t, c.vertices, c.simplices, sheet)
    # One cell of each swap orbit decides as much as every cell.
    assert is_sheet_split(t, c.vertices, [("a",), ("b",), ("a", "b")], sheet)
    assert not is_sheet_split(t, c.vertices, [("a", "b")], {"a", "y"})
