"""Tests for the text formats and the command-line interface."""

import argparse
import json
import os
from fractions import Fraction as F

import pytest

from prem import formats
from prem.cli import _jobs, main
from prem.complexes import SimplicialComplex
from prem.errors import ParseError

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
    # the typed views are available once the optional sections are present
    assert doc.geometric().coords["p3"] == (F(-2), F(0))
    assert doc.with_involution().involution["p2"] == "p5"


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


def test_obstruct_exit_codes(capsys, tmp_path, cover9, cover8):
    assert main(["obstruct", "-k", "1", cover9]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: exists"
    assert out[1] == "reason: manifold-complete-obstruction"
    assert out[2] == "yang index: 0"

    assert main(["obstruct", "-k", "1", cover8]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: not-exists"
    assert out[1] == "reason: cup-power-nonzero"
    assert out[2] == "yang index: 1"

    bowties = tmp_path / "bowties.map"
    bowties.write_text(BOWTIES, encoding="utf-8")
    assert main(["obstruct", "-k", "2", str(bowties)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: inconclusive"
    assert out[1] == "reason: mod2-only"


def test_report_thm3_json(capsys, cover9):
    assert main(["report-thm3", cover9, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "exists"
    assert payload["reason"] == "manifold-complete-obstruction"
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


@pytest.mark.parametrize(
    "witness",
    [
        "w n0,n4 -1\nw n4,n0 -1\n",
        "w n0,n4 1 0\nw n4,n0 -1 0\n",
        "w n0,n4 1\n",
    ],
    ids=["negated", "wrong-dimension", "incomplete"],
)
def test_lift_rejects_failing_witness_with_65(capsys, tmp_path, fig8, witness):
    """A supplied witness that fails certification is an input fault: the
    certified one is ``n0,n4 -> 1``, ``n4,n0 -> -1``."""
    path = tmp_path / "fig8.witness"
    path.write_text(witness, encoding="utf-8")
    assert main(["lift", "-k", "1", fig8, "--alpha", str(path)]) == 65
    err = capsys.readouterr().err
    assert err.startswith("error (PreconditionError): supplied witness fails certification")


def test_verify_subcommand(capsys, tmp_path, fig8, fig8_lift):
    assert main(["verify", fig8, fig8_lift]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "embedding certificate: ok"
    assert out[1] == "simplices checked: 8"
    assert out[2] == "pairs checked: 28"
    assert out[3].startswith("evidence kinds: diagonal-confined 8")

    zero = tmp_path / "zero.lift"
    zero.write_text("".join(f"g n{i} 0\n" for i in range(8)), encoding="utf-8")
    assert main(["verify", fig8, str(zero)]) == 1
    out = capsys.readouterr().out
    assert "embedding certificate: FAILED" in out
    assert "violation: simplices [n0 n1] and [n3 n4] share value (0/1)" in out


def test_verify_jobs_matches_serial(capsys, monkeypatch, fig8, fig8_lift):
    assert main(["verify", fig8, fig8_lift]) == 0
    serial = capsys.readouterr().out
    assert main(["verify", fig8, fig8_lift, "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    monkeypatch.setenv("PREM_JOBS", "2")
    assert main(["verify", fig8, fig8_lift]) == 0
    assert capsys.readouterr().out == serial
    monkeypatch.setenv("PREM_JOBS", "zebra")
    assert main(["verify", fig8, fig8_lift]) == 64
    monkeypatch.delenv("PREM_JOBS")
    assert main(["verify", fig8, fig8_lift, "--jobs", "0"]) == 64
    assert main(["verify", fig8, fig8_lift, "--jobs", "-3"]) == 64
    assert capsys.readouterr().out == ""


def test_jobs_parser_bounds(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delenv("PREM_JOBS", raising=False)
    assert _jobs(argparse.Namespace(jobs=None)) == 1
    assert _jobs(argparse.Namespace()) == 1
    assert _jobs(argparse.Namespace(jobs=1)) == 1
    assert _jobs(argparse.Namespace(jobs=10**9)) == 2
    for bad in (0, -1):
        with pytest.raises(ParseError):
            _jobs(argparse.Namespace(jobs=bad))
    monkeypatch.setenv("PREM_JOBS", "64")
    assert _jobs(argparse.Namespace(jobs=None)) == 2
    assert _jobs(argparse.Namespace(jobs=1)) == 1
    for bad in ("0", "-2", "zebra", "1.5"):
        monkeypatch.setenv("PREM_JOBS", bad)
        with pytest.raises(ParseError):
            _jobs(argparse.Namespace(jobs=None))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _jobs(argparse.Namespace(jobs=8)) == 1


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
    doc, lift = formats.parse_complex_and_lift(out)
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
