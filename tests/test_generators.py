import pytest

from prem import formats, generators, mod2, subdivision
from prem.cli import main
from prem.complexes import SimplicialComplex
from prem.errors import PreconditionError
from prem.generators import (
    antipodal_sphere_covering,
    cross_polytope_boundary,
    _cycle_complex,
    _cycle_complex_from_listing,
    cycle_cover,
    figure_eight_map,
    fold_path_map,
    _join_sphere,
    lens_covering,
    _path_complex,
    wiggly_figure_eight,
)
from prem.gf2 import betti_mod2

from conftest import InvolutionComplex, fixed_simplices, regularity_failures


def test_cycle_complex():
    c = _cycle_complex(5)
    assert c.f_vector() == (5, 5)
    assert c.is_closed_pseudomanifold()
    with pytest.raises(PreconditionError):
        _cycle_complex(2)
    with pytest.raises(PreconditionError):
        _cycle_complex_from_listing(["a", "b"])


def test_path_complex():
    p = _path_complex(["a", "b", "c"])
    assert p.f_vector() == (3, 2)
    assert not p.is_closed_pseudomanifold()


def test_cycle_cover_shapes():
    f = cycle_cover(3, 3)
    assert f.source.f_vector() == (9, 9)
    assert f.target.f_vector() == (3, 3)
    assert f.is_non_degenerate()
    assert f.vertex_map["n4"] == "b1"
    with pytest.raises(PreconditionError):
        cycle_cover(0, 3)
    with pytest.raises(PreconditionError):
        cycle_cover(2, 2)


def test_figure_eight_shapes():
    f = figure_eight_map()
    assert f.source.f_vector() == (8, 8)
    assert f.target.f_vector() == (7, 8)
    # Exactly one target vertex has two preimages.
    fibers = {}
    for v, w in f.vertex_map.items():
        fibers.setdefault(w, []).append(v)
    doubled = {w: vs for w, vs in fibers.items() if len(vs) > 1}
    assert set(doubled) == {"w"}
    assert sorted(doubled["w"]) == ["n0", "n4"]


def test_fold_path_shape():
    f = fold_path_map()
    assert f.source.f_vector() == (3, 2)
    assert f.target.f_vector() == (2, 1)
    assert f.is_non_degenerate()


def test_wiggly_figure_eight_shapes():
    f, g = wiggly_figure_eight()
    assert f.source.f_vector() == (32, 32)
    assert f.target.f_vector() == (31, 32)
    assert f.is_non_degenerate()
    assert set(g.values) == set(f.source.vertices)


def test_cross_polytope_boundaries():
    assert cross_polytope_boundary(1)[0].f_vector() == (4, 4)
    oct_ = InvolutionComplex(*cross_polytope_boundary(2))
    assert oct_.complex.f_vector() == (6, 12, 8)
    assert betti_mod2(oct_.complex) == [1, 0, 1]
    three = InvolutionComplex(*cross_polytope_boundary(3))
    assert three.complex.f_vector() == (8, 24, 32, 16)
    assert betti_mod2(three.complex) == [1, 0, 0, 1]
    for ic in (oct_, three):
        assert fixed_simplices(ic) == []
    with pytest.raises(PreconditionError):
        cross_polytope_boundary(0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gen_cross_polytope_reads_back_as_a_free_involution(m, tmp_path):
    """The written complex and its ``t`` lines parse back to the generated
    complex with an involution that maps every simplex to another one."""
    path = tmp_path / "cross.complex"
    assert main(["gen", "cross-polytope", str(m), "-o", str(path)]) == 0
    doc = formats.parse_complex(path.read_text(encoding="utf-8"))
    ic = InvolutionComplex(doc.complex, doc.involution)
    assert (ic.complex, ic.involution) == cross_polytope_boundary(m)
    assert fixed_simplices(ic) == []


def test_antipodal_sphere_covering_rounds():
    for m, quotient_fv in ((1, (4, 4)), (2, (13, 36, 24))):
        proj, rounds = antipodal_sphere_covering(m)
        assert rounds == 1
        assert proj.target.f_vector() == quotient_fv
        assert proj.is_non_degenerate()
        # Projection is exactly two-to-one on vertices.
        fibers = {}
        for v, w in proj.vertex_map.items():
            fibers.setdefault(w, []).append(v)
        assert all(len(vs) == 2 for vs in fibers.values())


def test_join_sphere():
    js = _join_sphere(3)
    assert js.f_vector() == (6, 15, 18, 9)
    assert js.is_closed_pseudomanifold()
    assert betti_mod2(js) == [1, 0, 0, 1]
    with pytest.raises(PreconditionError):
        _join_sphere(2)


def test_cyclic_quotient_regularity_gate():
    # The raw rotation action on the join sphere is not yet regular.
    js = _join_sphere(3)
    gamma = {}
    for i in range(3):
        gamma[f"a{i}"] = f"a{(i + 1) % 3}"
        gamma[f"b{i}"] = f"b{(i + 1) % 3}"
    assert regularity_failures(js, gamma, 3) != []


def test_lens_covering_3_1():
    proj, rounds = lens_covering(3, 1)
    assert rounds == 2
    assert proj.source.f_vector() == (960, 6144, 10368, 5184)
    assert proj.target.f_vector() == (320, 2048, 3456, 1728)
    assert proj.is_non_degenerate()
    with pytest.raises(PreconditionError):
        lens_covering(2, 1)


def test_lens_covering_checks_regularity_once_per_round(monkeypatch):
    calls = []
    check = mod2._regularity

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(mod2, "_regularity", counted)
    _, rounds = lens_covering(3, 1)
    assert len(calls) == rounds + 1


@pytest.mark.parametrize(
    "build", [lambda: lens_covering(3, 1), lambda: lens_covering(5, 2),
              lambda: antipodal_sphere_covering(2)],
    ids=["lens-3-1", "lens-5-2", "antipodal-2"],
)
def test_generated_coverings_are_named_by_their_file_tokens(build):
    proj, _ = build()
    back = formats.parse_map(formats.write_map(proj)).map
    for mine, read in ((proj.source, back.source), (proj.target, back.target)):
        assert mine.vertices == read.vertices
        assert mine.simplices == read.simplices
    assert proj.vertex_map == back.vertex_map


def test_lens_covering_neither_canonicalises_nor_subdivides_labels(monkeypatch):
    sphere = _join_sphere(3)

    def refuse(*args, **kwargs):
        raise AssertionError("labels were canonicalised or subdivided")

    monkeypatch.setattr(generators, "_join_sphere", lambda p: sphere)
    monkeypatch.setattr(subdivision, "barycentric_subdivide", refuse)
    monkeypatch.setattr(SimplicialComplex, "canon", refuse)
    proj, rounds = lens_covering(3, 1)
    assert rounds == 2
    assert proj.source.f_vector() == (960, 6144, 10368, 5184)
