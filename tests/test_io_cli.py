"""Tests for the text formats and the command-line interface."""

import json
from fractions import Fraction as F

import pytest

from prem import formats, lp
from prem.cli import main
from prem.complexes import SimplicialComplex
from prem.errors import ParseError
from prem.generators import antipodal_sphere_covering, lens_covering
from prem.lift import build_closure_model, closure_witness

# ---------------------------------------------------------------------------
# tokens and fractions


def test_id_token_mangles_tuples():
    assert formats.id_token("n0") == "n0"
    assert formats.id_token(("a", "b")) == "a+b"
    assert formats.pair_token("a", "b") == "a,b"
    with pytest.raises(ParseError):
        formats.id_token("has space")
    with pytest.raises(ParseError):
        formats.id_token("a,b")
    with pytest.raises(ParseError):
        formats.id_token("")


def test_token_table_rejects_ids_that_print_alike():
    c = SimplicialComplex.from_maximal(["a+b", ("a", "b")], [])
    with pytest.raises(ParseError, match=r"'a\+b' and \('a', 'b'\) both print as 'a\+b'"):
        formats.token_table(c)
    with pytest.raises(ParseError):
        formats.write_complex(formats.ComplexDocument(c))


def test_write_map_tokens_each_vertex_once(monkeypatch):
    f, _rounds = lens_covering(3, 1)
    real, top, depth = formats.id_token, [], [0]

    def counting(v):
        if not depth[0]:
            top.append(v)
        depth[0] += 1
        try:
            return real(v)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(formats, "id_token", counting)
    text = formats.write_map(f)
    assert 0 < len(top) <= len(f.source.vertices) + len(f.target.vertices)
    assert text.count("\nm ") == len(f.source.vertices)


def test_fraction_round_trip():
    assert formats.format_fraction(F(3, 4)) == "3/4"
    assert formats.format_fraction(F(5)) == "5/1"
    assert formats.format_fraction(F(-1, 2)) == "-1/2"
    assert formats.parse_fraction("3/4", "here") == F(3, 4)
    assert formats.parse_fraction("7", "here") == F(7)
    with pytest.raises(ParseError):
        formats.parse_fraction("x/y", "here")
    with pytest.raises(ParseError):
        formats.parse_fraction("1/0", "here")


# ---------------------------------------------------------------------------
# document round trips

HEXAGON = """\
# a hexagon with coordinates and the antipodal pairing
v p0
v p1
v p2
v p3
v p4
v p5
s p0 p1
s p1 p2
s p2 p3
s p3 p4
s p4 p5
s p5 p0
c p0 2 0
c p1 1 2
c p2 -1 2
c p3 -2 0
c p4 -1 -2
c p5 1 -2
t p0 p3
t p1 p4
t p2 p5
"""


def test_complex_document_round_trip():
    doc = formats.parse_complex(HEXAGON)
    assert doc.complex.f_vector() == (6, 6)
    assert doc.coordinates["p1"] == (F(1), F(2))
    assert doc.involution["p0"] == "p3"
    assert doc.involution["p3"] == "p0"
    text = formats.write_complex(doc)
    again = formats.parse_complex(text)
    assert formats.write_complex(again) == text
    assert again.complex.simplices == doc.complex.simplices
    assert again.coordinates == doc.coordinates
    assert again.involution == doc.involution
    assert doc.coordinates["p3"] == (F(-2), F(0))
    assert doc.involution["p2"] == "p5"


def test_map_document_round_trip(tmp_path):
    path = tmp_path / "cover.map"
    assert main(["gen", "cycle-cover", "3", "3", "-o", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    doc = formats.parse_map(text)
    assert doc.source.complex.f_vector() == (9, 9)
    assert doc.target.complex.f_vector() == (3, 3)
    assert doc.map.vertex_map["n4"] == "b1"
    rewritten = formats.write_map(doc.map, source=doc.source, target=doc.target)
    assert rewritten == text
    assert formats.parse_map(rewritten).map.vertex_map == doc.map.vertex_map


def test_lift_and_witness_round_trip():
    doc = formats.parse_complex(HEXAGON)
    values = {v: (F(i, 3), F(-i)) for i, v in enumerate(doc.complex.vertices)}
    from prem.maps import SemiLinearMap

    g = SemiLinearMap(doc.complex, values, 2)
    text = formats.write_lift(g)
    parsed = formats.parse_lift(text, doc.complex)
    assert parsed.values == g.values
    assert formats.write_lift(parsed) == text

    witness = {("p0", "p3"): (F(1), F(-1, 2)), ("p1", "p4"): (F(0), F(2))}
    wtext = formats.write_witness(witness)
    assert "w p0,p3 1/1 -1/2" in wtext
    assert formats.parse_witness(wtext) == witness


def test_star_boundary_document():
    doc = formats.parse_complex(HEXAGON)
    text = "s p0 p1\ns p5 p0\ng p1 1 0\ng p5 0 1\n"
    sb = formats.parse_star_boundary(text, doc.complex)
    assert doc.complex.canon(("p0", "p1")) in sb.simplices
    assert sb.values["p5"] == (F(0), F(1))
    with pytest.raises(ParseError):
        formats.parse_star_boundary("s p0 zz\n", doc.complex)
    with pytest.raises(ParseError):
        formats.parse_star_boundary("g p1 1\ng p1 2\n", doc.complex)
    with pytest.raises(ParseError):
        formats.parse_star_boundary("x p1 1\n", doc.complex)


def test_parse_errors():
    with pytest.raises(ParseError):
        formats.parse_complex("v a\nv a\ns a\n")  # duplicate vertex
    with pytest.raises(ParseError):
        formats.parse_complex("v a\ns a b\n")  # undeclared vertex in simplex
    with pytest.raises(ParseError):
        formats.parse_complex("v a\nv b\ns a b\nc a 0\n")  # coords missing for b
    with pytest.raises(ParseError):
        formats.parse_complex("v a\nq a\n")  # unknown line kind
    with pytest.raises(ParseError):
        formats.parse_complex("")  # no vertices at all
    with pytest.raises(ParseError):
        formats.parse_map("source\nv a\ns a\nmap\nm a a\n")  # no target section
    bad_map = (
        "source\nv a\nv b\ns a b\n"
        "target\nv x\nv y\ns x\ns y\n"
        "map\nm a x\nm b y\n"
    )
    with pytest.raises(ParseError, match="not simplicial"):
        formats.parse_map(bad_map)
    square = SimplicialComplex.from_maximal(("a", "b"), [("a", "b")])
    with pytest.raises(ParseError):
        formats.parse_lift("g a 1\n", square)  # value for b missing
    with pytest.raises(ParseError):
        formats.parse_witness("w noseparator 1\n")


@pytest.mark.parametrize(
    "parse, text, where",
    [
        (formats.parse_lift, "g a 1\ng b 1 2\n", "lift"),
        (lambda text, _: formats.parse_witness(text), "w a,b 1\nw b,a 1 2\n", "witness"),
        (formats.parse_star_boundary, "s a b\ng a 1\ng b 1 2\n", "star boundary"),
    ],
    ids=["lift", "witness", "star-boundary"],
)
def test_vector_lines_of_mixed_dimension_rejected(parse, text, where):
    square = SimplicialComplex.from_maximal(("a", "b"), [("a", "b")])
    lineno = text.count("\n")
    with pytest.raises(ParseError) as exc:
        parse(text, square)
    assert str(exc.value) == f"line {lineno} ({where}): expected 1 coordinates, got 2"


# ---------------------------------------------------------------------------
# CLI fixtures


@pytest.fixture()
def cover9(tmp_path):
    path = tmp_path / "cover9to3.map"
    assert main(["gen", "cycle-cover", "3", "3", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def cover8(tmp_path):
    path = tmp_path / "cover8to4.map"
    assert main(["gen", "cycle-cover", "2", "4", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def fig8(tmp_path):
    path = tmp_path / "fig8.map"
    assert main(["gen", "figure-eight", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def fig8_lift(tmp_path, fig8):
    path = tmp_path / "fig8.lift"
    assert main(["lift", "-k", "1", fig8, "-o", str(path)]) == 0
    return str(path)


# ---------------------------------------------------------------------------
# CLI: generators and determinism


def test_gen_is_deterministic(capsys):
    assert main(["gen", "cycle-cover", "3", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "cycle-cover", "3", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = formats.parse_map(first)
    assert doc.source.complex.f_vector() == (9, 9)


def test_gen_rejects_bad_requests(capsys):
    assert main(["gen", "no-such-shape"]) == 64
    assert "unknown generator" in capsys.readouterr().err
    assert main(["gen", "cycle-cover", "3"]) == 64
    assert "parameter" in capsys.readouterr().err
    assert main(["gen", "cycle-cover", "a", "b"]) == 64
    assert "not an integer" in capsys.readouterr().err


def test_gen_join_lens_rejects_a_non_unit_rotation(capsys):
    for p, q in (("2", "7"), ("2", "0"), ("3", "3")):
        assert main(["gen", "join-lens", p, q]) == 65
        assert capsys.readouterr().err == (
            "error (PreconditionError): the rotation parameter must be a unit modulo p\n"
        )


def test_gen_join_lens_rejects_fewer_than_two_sheets(capsys):
    for p in ("1", "0", "-3"):
        assert main(["gen", "join-lens", p, "1"]) == 65
        assert capsys.readouterr().err == (
            "error (PreconditionError): join-lens needs p = 2 with q = 1,"
            " or p >= 3 with q a unit modulo p\n"
        )


def test_gen_outputs_reparse(capsys):
    for spec in (
        ["gen", "figure-eight"],
        ["gen", "fold-path"],
        ["gen", "cross-polytope", "2"],
        ["gen", "cycle-cover", "2", "4"],
    ):
        assert main(spec) == 0
        text = capsys.readouterr().out
        if spec[1] == "cross-polytope":
            doc = formats.parse_complex(text)
            assert doc.complex.f_vector() == (6, 12, 8)
            assert doc.involution is not None
        else:
            formats.parse_map(text)


# ---------------------------------------------------------------------------
# CLI: analysis subcommands


def test_delta_text_report(capsys, cover9):
    assert main(["delta", cover9]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "# pair cells by dimension: 18 18"
    assert lines[1] == "# components: 2"
    assert lines[2] == "# invariant components: 0"
    assert lines[3] == "# subdivision rounds: 0"
    assert "v n0+n3" in lines
    assert "v n0+n6" in lines
    # running it twice yields byte-identical output
    assert main(["delta", cover9]) == 0
    assert capsys.readouterr().out == out


def test_yang_json(capsys, cover8):
    assert main(["yang", cover8, "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload == {
        "command": "yang",
        "quotient_cells_by_dimension": [4, 4],
        "quotient_mod2_betti": [1, 1],
        "schema": 1,
        "yang_index": 1,
    }
    assert '"schema": 1' in out


BOWTIES = """\
source
v a
v b
v c
v d
v e
v A
v B
v C
v D
v E
s a b c
s a d e
s A B C
s A D E
target
v x
v y
v z
v p
v q
s x y z
s x p q
map
m a x
m b y
m c z
m d p
m e q
m A x
m B y
m C z
m D p
m E q
"""


# A hexagon double-covering a triangle (Yang index 1) beside two tetrahedra
# on one: at k = 2 the pair model has dimension 3 > k and the mod-2 test is
# silent.
HEXAGON_AND_TETRAHEDRA = """\
source
v n0
v n1
v n2
v n3
v n4
v n5
v a
v b
v c
v d
v A
v B
v C
v D
s n0 n1
s n1 n2
s n2 n3
s n3 n4
s n4 n5
s n0 n5
s a b c d
s A B C D
target
v x0
v x1
v x2
v p
v q
v r
v s
s x0 x1
s x1 x2
s x0 x2
s p q r s
map
m n0 x0
m n1 x1
m n2 x2
m n3 x0
m n4 x1
m n5 x2
m a p
m b q
m c r
m d s
m A p
m B q
m C r
m D s
"""


def test_obstruct_exit_codes(capsys, tmp_path, cover9, cover8):
    assert main(["obstruct", "-k", "1", cover9]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: exists"
    assert out[1] == "reason: trivial-cover"
    assert out[2] == "yang index: 0"

    assert main(["obstruct", "-k", "1", cover8]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: not-exists"
    assert out[1] == "reason: cup-power-nonzero"
    assert out[2] == "yang index: 1"

    bowties = tmp_path / "bowties.map"
    bowties.write_text(BOWTIES, encoding="utf-8")
    assert main(["obstruct", "-k", "2", str(bowties)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: exists"
    assert out[1] == "reason: trivial-cover"

    mixed = tmp_path / "mixed.map"
    mixed.write_text(HEXAGON_AND_TETRAHEDRA, encoding="utf-8")
    assert main(["obstruct", "-k", "2", str(mixed)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: inconclusive"
    assert out[1] == "reason: mod2-only"
    assert out[2] == "yang index: 1"


def test_report_thm3_json(capsys, cover9):
    assert main(["report-thm3", cover9, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "exists"
    assert payload["reason"] == "trivial-cover"
    assert payload["conclusion"] == "inconclusive"
    assert payload["components"] == 2
    assert payload["invariant_components"] == 0
    assert payload["invariant_projection_parities"] == []
    assert payload["parity_reading"] == "both"
    assert payload["dimension_inequality"] is False
    assert payload["codimension_hypothesis"] is True
    assert payload["yang_index"] == 0
    assert payload["k"] == 1
    assert payload["source_dim"] == 1
    assert payload["target_dim"] == 1
    assert payload["schema"] == 1
    assert any("2(m+k) >= 3(n+1)" in note for note in payload["notes"])


POINTS_TO_A_POINT = "source\nv a\nv b\ns a\ns b\ntarget\nv x\ns x\nmap\nm a x\nm b x\n"
EDGE_IDENTITY = "source\nv a\nv b\ns a b\ntarget\nv x\nv y\ns x y\nmap\nm a x\nm b y\n"


def test_report_thm3_on_a_zero_dimensional_source_is_a_precondition_error(capsys, tmp_path):
    """k is the source dimension, so two points give k = 0, for which no
    sphere question is posed: an input error, in text and under --json."""
    path = tmp_path / "points.map"
    path.write_text(POINTS_TO_A_POINT, encoding="utf-8")
    assert main(["report-thm3", str(path)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error (PreconditionError): k must be a positive integer, not 0\n"
    assert main(["report-thm3", str(path), "--json"]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert (error["type"], error["exit_code"]) == ("PreconditionError", 65)


def test_report_thm3_without_double_points_is_k_prem(capsys, tmp_path):
    """A map that identifies no two points is an embedding already, even
    where the dimension hypotheses fail: ``lift`` gives g = 0 and
    ``verify`` accepts it."""
    path = tmp_path / "edge.map"
    path.write_text(EDGE_IDENTITY, encoding="utf-8")
    assert main(["report-thm3", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["verdict"], payload["reason"]) == ("exists", "dimension-below-k")
    assert payload["dimension_inequality"] is False
    assert payload["conclusion"] == "k-prem"
    assert payload["notes"][-1] == (
        "the map has no double points, so it is already an embedding and g = 0 lifts it")
    assert main(["report-thm3", str(path)]) == 0
    assert "conclusion: 1-prem" in capsys.readouterr().out.splitlines()
    lift = tmp_path / "edge.lift"
    assert main(["lift", "-k", "1", str(path), "-o", str(lift)]) == 0
    assert "g a 0/1\ng b 0/1\n" in lift.read_text(encoding="utf-8")
    assert main(["verify", str(path), str(lift)]) == 0


def test_lift_subcommand(capsys, fig8, cover9):
    assert main(["lift", "-k", "1", fig8]) == 0
    out = capsys.readouterr().out
    assert "# embedding certificate: ok" in out
    assert "# pairs checked: 28" in out
    doc = formats.parse_map(open(fig8, encoding="utf-8").read())
    g = formats.parse_lift(out, doc.source.complex)
    assert g.values["n0"] == (F(-1),)
    assert g.values["n4"] == (F(1),)
    assert all(g.values[f"n{i}"] == (F(0),) for i in (1, 2, 3, 5, 6, 7))

    assert main(["lift", "-k", "1", cover9]) == 65
    err = capsys.readouterr().err
    assert err.startswith("error (TriplePointsPresent)")


def test_lift_on_obstructed_map_exits_65(capsys, tmp_path):
    """The double cover of a 5-cycle has Yang index 1, so no single extra
    coordinate separates its sheets: an input verdict, not a bug."""
    path = str(tmp_path / "cover10to5.map")
    assert main(["gen", "cycle-cover", "2", "5", "-o", path]) == 0
    assert main(["obstruct", "-k", "1", path]) == 1
    capsys.readouterr()
    assert main(["lift", "-k", "1", path]) == 65
    err = capsys.readouterr().err
    assert err.startswith("error (NotKPrem): not-k-prem")
    assert "Yang index 1" in err
    assert main(["lift", "-k", "2", path, "-o", str(tmp_path / "ok.lift")]) == 0


# On cycle-cover 2 5, the pairs (n0, n5) and (n1, n6) get opposite values, so
# the hull of the cell of the edges n0 n1 and n5 n6 holds the origin; so does
# that of the edges n4 n5 and n9 n0, which comes later in the pair complex's
# order.
HULL_WITNESS = "".join(
    f"w n{i},n{i + 5} {x}\nw n{i + 5},n{i} {-x}\n" for i, x in enumerate([1, -1, 1, 1, 1])
)


@pytest.mark.parametrize(
    "gen, witness, reason",
    [
        (["figure-eight"], "w n0,n4 -1\nw n4,n0 -1\n", "('not-antipodal', ('n0', 'n4'))"),
        (["figure-eight"], "w n0,n4 1 0\nw n4,n0 -1 0\n",
         "('missing-or-bad-dimension', ('n0', 'n4'))"),
        (["figure-eight"], "w n0,n4 1\n", "('missing-or-bad-dimension', ('n4', 'n0'))"),
        (["cycle-cover", "2", "5"], HULL_WITNESS,
         "((('n0', 'n5'), ('n1', 'n6')), 'origin-in-hull')"),
    ],
    ids=["negated", "wrong-dimension", "incomplete", "origin-in-hull"],
)
def test_lift_rejects_failing_witness_with_65(capsys, tmp_path, gen, witness, reason):
    """A supplied witness that fails certification is an input fault: on the
    figure eight the certified one is ``n0,n4 -> 1``, ``n4,n0 -> -1``.  A
    hull failure names the failing cell that comes first in the pair
    complex's order, whatever the order of the walk."""
    map_path, path = tmp_path / "in.map", tmp_path / "in.witness"
    assert main(["gen", *gen, "-o", str(map_path)]) == 0
    path.write_text(witness, encoding="utf-8")
    assert main(["lift", "-k", "1", str(map_path), "--alpha", str(path)]) == 65
    err = capsys.readouterr().err
    assert err == f"error (PreconditionError): supplied witness fails certification: {reason}\n"


def test_lift_rejects_star_vertex_without_value(capsys, tmp_path, fig8):
    star = tmp_path / "star"
    star.write_text("s n0 n4\ng n0 3/1\n", encoding="utf-8")
    argv = ["lift", "-k", "1", fig8, "--star", str(star)]
    assert main(argv) == 65
    err = capsys.readouterr().err
    assert err == "error (PreconditionError): boundary vertex 'n4' has no value\n"
    assert main(argv + ["--json"]) == 65
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {
        "type": "PreconditionError",
        "message": "boundary vertex 'n4' has no value",
        "exit_code": 65,
    }


def test_verify_subcommand(capsys, tmp_path, fig8, fig8_lift):
    assert main(["verify", fig8, fig8_lift]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "embedding certificate: ok"
    assert out[1] == "simplices checked: 8"
    assert out[2] == "pairs checked: 28"
    assert out[3] == "evidence kinds: embedded-simplex 8, independent 1"

    zero = tmp_path / "zero.lift"
    zero.write_text("".join(f"g n{i} 0\n" for i in range(8)), encoding="utf-8")
    assert main(["verify", fig8, str(zero)]) == 1
    out = capsys.readouterr().out
    assert "embedding certificate: FAILED" in out
    assert "violation: simplices [n0] and [n4] share value (0/1)" in out


def test_verify_has_no_jobs_flag(capsys, fig8, fig8_lift):
    assert main(["verify", fig8, fig8_lift, "--jobs", "2"]) == 64
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_json_honours_out_file(capsys, tmp_path, fig8, fig8_lift):
    assert main(["verify", fig8, fig8_lift, "--json"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "verify.json"
    assert main(["verify", fig8, fig8_lift, "--json", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed
    assert json.loads(printed)["command"] == "verify"


def test_stability_honours_out_file(capsys, tmp_path):
    cx = tmp_path / "w.complex"
    cx.write_text("v p\nv q\nv r\ns p q\ns q r\n", encoding="utf-8")
    vals = tmp_path / "w.values"
    vals.write_text("g p 0\ng q 2\ng r 1\n", encoding="utf-8")
    assert main(["stability", str(cx), str(vals)]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "stability.json"
    assert main(["stability", str(cx), str(vals), "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed
    assert json.loads(printed)["command"] == "stability"


def test_output_into_missing_directory_exits_73(capsys, tmp_path):
    missing = tmp_path / "missing" / "x.map"
    assert main(["gen", "cycle-cover", "2", "3", "-o", str(missing)]) == 73
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error (OutputError): cannot write {missing}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_json_output_into_missing_directory_is_a_json_error(capsys, tmp_path, fig8, fig8_lift):
    missing = tmp_path / "missing" / "x.json"
    assert main(["verify", fig8, fig8_lift, "--json", "-o", str(missing)]) == 73
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["schema"] == 1
    assert doc["error"]["type"] == "OutputError"
    assert doc["error"]["exit_code"] == 73
    assert doc["error"]["message"].startswith(f"cannot write {missing}: ")


def test_lift_and_verify_on_the_double_cover_of_a_1000_cycle(capsys, tmp_path):
    """2 000 source edges make C(2000, 2) = 1 999 000 pairs; one vertex pair
    and one edge pair per target vertex, 2 000 in all, share an image."""
    cover, lift = str(tmp_path / "cover.map"), str(tmp_path / "cover.lift")
    assert main(["gen", "cycle-cover", "2", "1000", "-o", cover]) == 0
    assert main(["lift", "-k", "2", cover, "-o", lift]) == 0
    assert main(["verify", cover, lift, "--json"]) == 0
    ver = json.loads(capsys.readouterr().out)
    assert ver["ok"] is True
    assert ver["pairs_checked"] == 1_999_000
    assert ver["evidence_kinds"] == {"embedded-simplex": 2000, "independent": 2000}


def test_plify_text_reparses(capsys, fig8, fig8_lift):
    assert main(["plify", fig8, fig8_lift, "--trace"]) == 0
    out = capsys.readouterr().out
    head = out.splitlines()
    assert head[0] == "# result: ok"
    assert head[1] == "# vertex agreement: ok"
    assert head[2] == "# derived star hulls disjoint: ok"
    assert head[3] == "# embedding certificate: ok"
    assert "# stage 0: pairs 1" in out
    assert "cells 16/15" in out
    assert "# stage 1: pairs 0" in out
    complex_lines, lift_lines = [], []
    for raw in out.splitlines():
        body = raw.split("#", 1)[0].strip()
        (lift_lines if body.startswith("g ") else complex_lines).append(raw)
    doc = formats.parse_complex("\n".join(complex_lines))
    lift = formats.parse_lift("\n".join(lift_lines), doc.complex)
    assert doc.complex.f_vector() == (32, 32)
    assert lift.values["n0"] == (F(-1),)
    assert lift.values["n4"] == (F(1),)


def test_plify_json_payload(capsys, fig8, fig8_lift):
    assert main(["plify", fig8, fig8_lift, "--json", "--trace"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["vertex_agreement"] is True
    assert payload["derived_star_hulls_disjoint"] is True
    assert payload["refined_cells_by_dimension"] == [16, 16]
    assert payload["derived_cells_by_dimension"] == [32, 32]
    ver = payload["verification"]
    assert ver["ok"] is True
    assert ver["simplices_checked"] == 16
    assert ver["pairs_checked"] == 120
    stage0 = payload["stages"][0]
    assert stage0 == {
        "base_cells": 15,
        "cuts_added": 8,
        "lambda_sq": "1/2",
        "max_diameter_sq": "4/1",
        "pairs": 1,
        "r_applied_sq": "1/2",
        "r_nominal_sq": "2/1",
        "refined_cells": 16,
        "separation_sq": "4/1",
        "stage": 0,
    }
    assert payload["derived_lift"]["n0"] == ["-1/1"]
    assert payload["derived_lift"]["n4"] == ["1/1"]


# The two-triangle wedge input of the golden ``plify`` cases with source
# vertex ``f`` renamed ``a+b``: the barycentre of the edge ``a b`` prints as
# ``a+b`` too, so the derived complex has no faithful text form.
COLLIDING_WEDGE = (
    "source\n" + "".join(f"v {v}\n" for v in ("a", "b", "c", "d", "e", "a+b"))
    + "s a b c\ns d e a+b\n"
    + "target\n" + "".join(f"v {v}\n" for v in "xyzuw") + "s x y z\ns x u w\n"
    + "map\nm a x\nm b y\nm c z\nm d x\nm e u\nm a+b w\n"
)
COLLIDING_LIFT = "g a 0 0\ng b 1 0\ng c 0 0\ng d 0 9\ng e 1 9\ng a+b 0 9\n"


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_plify_rejects_derived_vertices_that_print_alike(capsys, tmp_path, mode):
    (tmp_path / "w.map").write_text(COLLIDING_WEDGE)
    (tmp_path / "w.lift").write_text(COLLIDING_LIFT)
    assert main(["plify", str(tmp_path / "w.map"), str(tmp_path / "w.lift"), *mode]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    report = json.loads(captured.err)["error"]["message"] if mode else captured.err
    assert "both print as 'a+b'" in report


def test_stability_subcommand(capsys, tmp_path):
    cx = tmp_path / "w.complex"
    cx.write_text(
        "v p\nv q\nv r\nv s\nv t\ns p q\ns q r\ns r s\ns s t\n", encoding="utf-8"
    )
    vals = tmp_path / "w.values"
    vals.write_text("g p 0\ng q 2\ng r 1\ng s 2\ng t 0\n", encoding="utf-8")
    assert main(["stability", str(cx), str(vals)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is False
    assert payload["critical_vertices"] == ["q", "r", "s"]
    assert payload["critical_values_injective"] is False
    assert payload["embeds_all_edges"] is True
    assert payload["degenerate_edges"] == []
    assert "stability undecided" in payload["verdict"]


def test_stability_rejects_vector_values(capsys, tmp_path):
    """Values with a second coordinate are not a map to the line, so no
    coordinate may be dropped to make one."""
    cx = tmp_path / "path.complex"
    cx.write_text("v a\nv b\nv c\ns a b\ns b c\n", encoding="utf-8")
    vals = tmp_path / "path.values"
    vals.write_text("g a 0 5\ng b 1 5\ng c 2 5\n", encoding="utf-8")
    assert main(["stability", str(cx), str(vals)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error (PreconditionError): line report requires")


def test_cli_failure_modes(capsys, tmp_path, cover9):
    assert main(["no-such-command"]) == 64
    capsys.readouterr()
    assert main(["delta", str(tmp_path / "missing.map")]) == 64
    assert "cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.map"
    bad.write_text("source\nv a\nv a\n", encoding="utf-8")
    assert main(["delta", str(bad)]) == 64
    assert "declared twice" in capsys.readouterr().err
    assert main(["obstruct", cover9]) == 64  # -k is required
    capsys.readouterr()
    assert main(["obstruct", "-k", "0", cover9]) == 65
    assert "positive" in capsys.readouterr().err


def test_lift_with_a_witness_on_the_sphere_solves_no_lp(capsys, tmp_path, monkeypatch):
    """The antipodal 2-sphere covering at k = 3: every walked cell and
    same-image pair is settled by independence, and the homotopy by one
    positive multiple per pair, so no LP runs."""
    f, _rounds = antipodal_sphere_covering(2)
    map_path, witness = tmp_path / "sphere.map", tmp_path / "sphere.witness"
    map_path.write_text(formats.write_map(f), encoding="utf-8")
    alpha = closure_witness(build_closure_model(f), 3)
    witness.write_text(formats.write_witness(alpha), encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(lp, "lp_solve", refuse)
    assert main(["lift", "-k", "3", str(map_path), "--alpha", str(witness), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["homotopy_certified"] is True
    assert payload["verification"]["ok"] is True


@pytest.mark.parametrize("command", ["obstruct", "lift"])
def test_k_is_checked_before_the_map_is_read(capsys, monkeypatch, cover9, command):
    """``-k 0`` is refused before the map is parsed: exit 65, one line of
    text or one JSON error object."""

    def refuse(text):
        raise AssertionError("the map was parsed")

    monkeypatch.setattr(formats, "parse_map", refuse)
    assert main([command, "-k", "0", cover9]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error (PreconditionError): k must be a positive integer, not 0\n"
    assert main([command, "-k", "0", cover9, "--json"]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert (error["type"], error["exit_code"]) == ("PreconditionError", 65)


@pytest.mark.parametrize(
    "argv, exit_code, kind",
    [
        (["obstruct", "-k", "0", "{cover9}", "--json"], 65, "PreconditionError"),
        (["delta", "{missing}", "--json"], 64, "ParseError"),
        (["obstruct", "{cover9}", "--json"], 64, "ParseError"),  # -k is required
        (["stability", "{cover9}", "{cover9}", "--json"], 64, "ParseError"),  # no --json
    ],
    ids=["precondition", "unreadable", "parse", "unknown-flag"],
)
def test_json_errors_are_json(capsys, tmp_path, cover9, argv, exit_code, kind):
    argv = [a.format(cover9=cover9, missing=tmp_path / "missing.map") for a in argv]
    assert main(argv) == exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["schema"] == 1
    assert doc["error"]["type"] == kind
    assert doc["error"]["exit_code"] == exit_code
    assert doc["error"]["message"]
    # The same failure without --json keeps the one-line text form.
    assert main([a for a in argv if a != "--json"]) == exit_code
    err = capsys.readouterr().err
    assert err.startswith(f"error ({kind}): ")
    assert err.endswith("\n") and err.count("\n") == 1


def test_output_file_option(capsys, tmp_path, cover9):
    out_path = tmp_path / "delta.txt"
    assert main(["delta", cover9, "-o", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["delta", cover9]) == 0
    assert out_path.read_text(encoding="utf-8") == capsys.readouterr().out
