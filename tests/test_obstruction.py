import pytest

from prem.complexes import InvolutionComplex, SimplicialComplex
from prem.double_points import double_point_model
from prem.errors import CertificationError, PreconditionError
from prem.generators import cross_polytope_boundary, cycle_cover, figure_eight_map
from prem.obstruction import (
    EXISTS,
    INCONCLUSIVE,
    NOT_EXISTS,
    certify_witness,
    equivariant_map_exists,
    equivariant_witness,
    prem_report,
    projection_degree_parity,
)

from conftest import StoredModel


def swapped_pair(facets, rename):
    """Two disjoint copies of a complex swapped by the involution."""
    other = [tuple(rename[v] for v in s) for s in facets]
    vertices = sorted({v for s in facets for v in s}) + sorted(
        {v for s in other for v in s}
    )
    c = SimplicialComplex.from_maximal(vertices, list(facets) + other)
    t = dict(rename)
    t.update({w: v for v, w in rename.items()})
    return InvolutionComplex(c, t)


def test_exists_by_dimension():
    model = double_point_model(cycle_cover(3, 3))
    v = equivariant_map_exists(model, 2)
    assert v.answer == EXISTS
    assert v.reason == "dimension-below-k"
    assert v.dim == 1


def flipped_torus(fins: bool = False) -> InvolutionComplex:
    """The 6 x 3 grid torus with the free involution (i, j) -> (i + 3, j),
    which negates the first circle factor.  The quotient is the 3 x 3 grid
    torus and w1 comes from the first circle, so the Yang index is 1.  With
    ``fins``, a triangle glued along the edge (0, 0)-(1, 0) and its image
    along (3, 0)-(4, 0) make the quotient pinch along an edge."""

    def v(i, j):
        return (i % 6, j % 3)

    facets = [f for i in range(6) for j in range(3)
              for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                        (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
    vertices = [(i, j) for i in range(6) for j in range(3)]
    t = {(i, j): v(i + 3, j) for (i, j) in vertices}
    if fins:
        facets += [("f", (0, 0), (1, 0)), ("F", (3, 0), (4, 0))]
        vertices += ["f", "F"]
        t.update(f="F", F="f")
    return InvolutionComplex(SimplicialComplex.from_maximal(vertices, facets), t)


BOWTIE = [("a", "b", "c"), ("a", "d", "e")]


def test_exists_by_trivial_cover():
    # Every component of the pair model is swapped with another one.
    model = double_point_model(cycle_cover(3, 3))
    v = equivariant_map_exists(model, 1)
    assert v.answer == EXISTS
    assert v.reason == "trivial-cover"
    assert v.yang == 0
    assert v.quotient_f_vector == (9, 9)
    assert v.manifold_checked is None
    bowties = swapped_pair(BOWTIE, {x: x.upper() for x in "abcde"})
    for k in (1, 2):
        v = equivariant_map_exists(StoredModel(bowties), k)
        assert (v.answer, v.reason, v.yang, v.dim) == (EXISTS, "trivial-cover", 0, 2)
        assert v.quotient_f_vector == (5, 6, 2)


def test_exists_by_manifold_route():
    v = equivariant_map_exists(StoredModel(flipped_torus()), 2)
    assert v.answer == EXISTS
    assert v.reason == "manifold-complete-obstruction"
    assert v.yang == 1
    assert v.quotient_f_vector == (9, 27, 18)
    assert v.manifold_checked is True


def test_not_exists_by_cup_power():
    model = double_point_model(cycle_cover(2, 4))
    v = equivariant_map_exists(model, 1)
    assert v.answer == NOT_EXISTS
    assert v.reason == "cup-power-nonzero"
    assert v.yang == 1
    assert v.quotient_f_vector == (4, 4)


def test_not_exists_antipodal_sphere():
    v = equivariant_map_exists(StoredModel(cross_polytope_boundary(2)), 2)
    assert v.answer == NOT_EXISTS
    assert v.yang == 2


def test_inconclusive_nonmanifold_quotient():
    # Dimension equals k, but the fins make the quotient pinch along an edge.
    v = equivariant_map_exists(StoredModel(flipped_torus(fins=True)), 2)
    assert v.answer == INCONCLUSIVE
    assert v.reason == "mod2-only"
    assert v.yang == 1
    assert v.manifold_checked is False


def test_inconclusive_dimension_above_k():
    # An antipodal hexagon (Yang index 1) beside two swapped tetrahedra.
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    c = SimplicialComplex.from_maximal(
        list(range(6)) + list("abcdABCD"), hexagon + [tuple("abcd"), tuple("ABCD")]
    )
    t = {i: (i + 3) % 6 for i in range(6)}
    t.update({x: x.upper() for x in "abcd"})
    t.update({x.upper(): x for x in "abcd"})
    v = equivariant_map_exists(StoredModel(InvolutionComplex(c, t)), 2)
    assert v.answer == INCONCLUSIVE
    assert v.reason == "mod2-only"
    assert (v.dim, v.yang) == (3, 1)


def test_k_must_be_positive():
    model = double_point_model(cycle_cover(3, 3))
    with pytest.raises(PreconditionError, match="positive"):
        equivariant_map_exists(model, 0)


def test_witness_certified_on_double_cover():
    model = double_point_model(cycle_cover(2, 4))
    values = equivariant_witness(model, 2)
    ok, evidence = certify_witness(model, 2, values)
    assert ok
    t = model.involution
    for v, val in values.items():
        assert tuple(values[t[v]]) == tuple(-x for x in val)
        assert any(x != 0 for x in val)


def test_witness_impossible_when_obstructed():
    # Yang index 1 blocks any equivariant map to the 0-sphere.
    model = double_point_model(cycle_cover(2, 4))
    with pytest.raises(CertificationError):
        equivariant_witness(model, 1)


def test_certify_rejects_bad_values():
    model = double_point_model(cycle_cover(2, 4))
    values = equivariant_witness(model, 2)
    broken = dict(values)
    some = next(iter(broken))
    broken[some] = (0, 0)
    ok, evidence = certify_witness(model, 2, broken)
    assert not ok
    assert evidence[0][0] in ("zero-value", "not-antipodal")


def test_projection_parity_invariant_circle():
    model = double_point_model(cycle_cover(2, 4))
    comp = model.complex.connected_components()[0]
    assert projection_degree_parity(model, comp) == 1


def test_projection_parity_swapped_circles():
    model = double_point_model(cycle_cover(3, 3))
    for comp in model.complex.connected_components():
        assert projection_degree_parity(model, comp) == 1


def test_projection_parity_validates_component():
    model = double_point_model(cycle_cover(2, 4))
    comp = model.complex.connected_components()[0]
    one_vertex = [next(iter(comp))]
    with pytest.raises(PreconditionError):
        projection_degree_parity(model, one_vertex)


def test_projection_parity_needs_closed_source():
    # The figure-eight pair model sits over a wedge, not a pseudomanifold
    # circle, and its components are zero-dimensional points besides.
    model = double_point_model(figure_eight_map())
    comp = model.complex.connected_components()[0]
    with pytest.raises(PreconditionError):
        projection_degree_parity(model, comp)


def test_report_metastable_failure_is_inconclusive():
    rep = prem_report(cycle_cover(3, 3), 1)
    assert rep.verdict.answer == EXISTS
    assert rep.conclusion == "inconclusive"
    assert rep.hyp_codim is True
    assert rep.hyp_metastable is False
    assert any("2(m+k) >= 3(n+1)" in note for note in rep.notes)
    assert rep.components == 2
    assert rep.invariant_components == 0


def test_report_k_prem_when_hypotheses_hold():
    rep = prem_report(cycle_cover(3, 3), 2)
    assert rep.verdict.answer == EXISTS
    assert rep.conclusion == "k-prem"
    assert rep.hyp_metastable is True


def test_report_not_k_prem_with_parity():
    rep = prem_report(cycle_cover(2, 4), 1)
    assert rep.verdict.answer == NOT_EXISTS
    assert rep.conclusion == "not-k-prem"
    assert rep.invariant_parities == [1]
    assert rep.parity_reading == "even"


def test_report_vacuous_parity_reading():
    rep = prem_report(cycle_cover(3, 3), 1)
    assert rep.invariant_parities == []
    assert rep.parity_reading == "both"
    assert any("vacuously" in note for note in rep.notes)
