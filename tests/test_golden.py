"""Byte-for-byte CLI outputs of the analysis subcommands and of ``lift`` on
small generated inputs, compared with files in ``tests/golden/``.

The analysis files were written before the combinatorial core was rewritten
and pin its outputs: pair complexes, quotients, Yang indices, verdicts and
reports must not change by a byte.  The ``lift`` files were written before
the witness generators and certifiers were merged and pin the lift values,
verification summaries and the obstructed exit.  The ``verify`` and
``plify`` files were written before the simplex moved to integer rows and pin
what the exact LPs decide: violation witnesses, Farkas-derived separating
cuts and the per-stage numbers of the refinement cascade.

One documented verdict change since: the ``trivial-cover`` route decides the
``join-lens 3 1`` pair model, whose double cover is trivial, before the
quotient is built.  ``lens3-obstruct1/2`` went from ``inconclusive`` (exit 2)
to ``exists`` (exit 0), and ``lens3-obstruct3`` and ``lens3-thm3`` changed
their reason from ``manifold-complete-obstruction``; Yang indices and
quotient cell counts are unchanged.

Two documented ``plify`` changes since the graph and higher-dimensional
cascades merged: a stage's ``cells`` count the complexes it measured, so the
``wedge`` stage 0 reads ``14/13`` (the input) where it read ``50/49`` (after
its barycentric round), and a zero vertex pair is named with the graph
wording, ``identified simplices (('b',), ('e',))`` in ``equal``'s stderr.

One documented ``verify`` output change since ``verify`` tests only pairs of
distinct source faces with the same image (same-image pairs), fibre by fibre
of the map.  Evidence kinds are now counted per same-image face pair: on a
non-degenerate map ``independent``, ``separated`` or ``violation``, in place of
``disjoint-images``, ``farkas`` and ``diagonal-confined`` per pair of maximal
simplices.  A violation names the smallest such pair, in fibre order, so
``cover25-verifymod5`` now lists ``[n0] and [n5]`` first.  Sixteen ``verify``,
``lift`` and ``plify`` files changed in those lines only; verdicts, exit
codes and ``pairs checked`` (every pair of maximal simplices) did not.

The ``alpha`` files pin ``lift --alpha`` against the moment-curve witness
that ``lift.closure_witness`` builds on the input's walked pair model,
written at test time: the ``homotopy certificate against supplied witness:
ok`` line and ``"homotopy_certified": true``.

One documented error-message change since ``double_point_model`` stopped
subdividing a map that fails the star condition, which no subdivision
repairs: the twelve ``fold`` cases of ``delta``, ``yang``, ``obstruct`` and
``report-thm3`` still exit 65 with ``ModelInvalid``, and now name the
input's identified vertices, ``('a', 'c')``, in place of subdivided ones.

Regenerate the files only for a deliberate, documented output change::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from prem import complexes, formats, lp, mod2
from prem.cli import main
from prem.lift import build_closure_model, closure_witness

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "lens2": ["join-lens", "2", "1"],
    "lens3": ["join-lens", "3", "1"],
    "cover25": ["cycle-cover", "2", "5"],
    "eight": ["figure-eight"],
    "fold": ["fold-path"],
    "cover23": ["cycle-cover", "2", "3"],
}

# SHA-256 of what ``gen`` writes for every ``INPUTS`` entry and for two larger
# inputs the analysis cases do not read: pins the generator bytes directly.
# ``regenerate`` leaves them alone; a deliberate change edits them by hand.
GEN_EXTRA = {
    "lens52": ["join-lens", "5", "2"],
    "cross3": ["cross-polytope", "3"],
}
GEN_SHA256 = {
    "lens2": "5994b55baff2069eb0a503712696a1efc2918e4a0b8a0a7dad31b9fa1138d81b",
    "lens3": "eb38abfe0db6a87640c8c0a406eefe3bfb935f38cbdf83bf3100f1766441dffb",
    "cover25": "742b7467171868877ec1fe733d2748bca2ee5472b2c4548db4af0da5e8bdd2a4",
    "eight": "ef566bac3aa07907bbeedacc63013feac0161e0c6e1e7ff49951a83b2420d377",
    "fold": "24e897a085fb3470eabf2618b4059d5f51629eb910c85464ceeeb203fea1222b",
    "cover23": "ee761e2b5ffd2f4063d552b56643be299e5701c30fe82acc82f48adbc83266ed",
    "lens52": "bf2de819baa4679b40415ef68ea865690acef0b0ea586fa7b66ea084ff914dc3",
    "cross3": "24a4e7b52459484e5d287fc09836fab0432ecf0d4e09f96a499c0a88997d26d5",
}

# Inputs of the analysis commands; ``cover23`` only feeds ``plify``.
ANALYSED = ("lens2", "lens3", "cover25", "eight", "fold")

# Higher-dimensional ``plify`` inputs, written out as a map text and a lift
# text each.  ``wedge`` sends two triangles onto two triangles that share the
# vertex ``x`` and needs one barycentric round; the others send two triangles
# onto one: ``flat`` certifies, ``blocks`` needs local refinement of an edge
# stratum (exit 65) and ``equal`` gives ``b`` and ``e`` one value (exit 65).
_SOURCE = "source\n" + "".join(f"v {v}\n" for v in "abcdef") + "s a b c\ns d e f\n"
WEDGE = (
    _SOURCE
    + "target\n" + "".join(f"v {v}\n" for v in "xyzuw") + "s x y z\ns x u w\n"
    + "map\nm a x\nm b y\nm c z\nm d x\nm e u\nm f w\n"
)
TRIANGLES = (
    _SOURCE
    + "target\nv x\nv y\nv z\ns x y z\n"
    + "map\nm a x\nm b y\nm c z\nm d x\nm e y\nm f z\n"
)


def _lift(values: dict) -> str:
    return "".join(f"g {v} {x}\n" for v, x in values.items())


WRITTEN = {
    "wedge": (
        WEDGE,
        _lift({"a": "0 0", "b": "1 0", "c": "0 0", "d": "0 9", "e": "1 9", "f": "0 9"}),
    ),
    "flat": (TRIANGLES, _lift({v: "1" if v in "abc" else "-1" for v in "abcdef"})),
    "blocks": (
        TRIANGLES,
        _lift({"a": "-1", "b": "-9/8", "c": "-5/4", "d": "1", "e": "9/8", "f": "5/4"}),
    ),
    "equal": (TRIANGLES, _lift({"a": "1", "b": "0", "c": "2", "d": "-1", "e": "0", "f": "-2"})),
}

COMMANDS = {
    "delta": ["delta"],
    "yang": ["yang"],
    "obstruct1": ["obstruct", "-k", "1"],
    "obstruct2": ["obstruct", "-k", "2"],
    "obstruct3": ["obstruct", "-k", "3"],
    "thm3": ["report-thm3"],
    "lift1": ["lift", "-k", "1"],
    "lift2": ["lift", "-k", "2"],
    "verify2": ["verify"],
    "verifymod5": ["verify"],
    "plify2": ["plify", "--trace"],
    "plifygiven": ["plify", "--trace"],
    "alpha1": ["lift", "-k", "1"],
    "alpha2": ["lift", "-k", "2"],
}

# The ``lift`` commands that read a witness file with ``--alpha``, by the k
# of the closure witness written for their input.
ALPHA_K = {"alpha1": 1, "alpha2": 2}

# The lift file each ``verify`` / ``plify`` command reads after the map:
# ``lift2`` is what ``lift -k 2`` writes for the input, ``mod5`` gives vertex
# ``n<i>`` of ``cycle-cover 2 5`` the value ``i mod 5``, ``given`` is the lift
# text of a ``WRITTEN`` input.  Under ``mod5`` the two preimages of each
# target edge coincide, so a violation value is the vertex at which the pair
# LP stops, not a unique crossing point.
LIFT_OF = {"verify2": "lift2", "verifymod5": "mod5", "plify2": "lift2", "plifygiven": "given"}
MOD5 = "".join(f"g n{i} {i % 5}\n" for i in range(10))

# Commands that run only on some inputs (``lift`` needs a map without triple
# points whose folds are simple; ``cover25`` at k=1 is the obstructed case).
ONLY_ON = {
    "lift1": ("fold", "eight", "cover25"),
    "lift2": ("cover25",),
    "verify2": ("cover25",),
    "verifymod5": ("cover25",),
    "plify2": ("cover23",),
    "plifygiven": tuple(WRITTEN),
    "alpha1": ("eight",),
    "alpha2": ("cover25",),
}


def _cases():
    for inp in (*INPUTS, *WRITTEN):
        for cmd in COMMANDS:
            if inp == "lens3" and cmd == "delta":
                continue  # the pair complex listing alone is ~4 MB
            if inp not in ONLY_ON.get(cmd, ANALYSED):
                continue
            for mode in ("text", "json"):
                yield f"{inp}-{cmd}-{mode}"


CASES = list(_cases())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _argv(case: str, inputs: Path) -> list:
    inp, cmd, mode = case.split("-")
    argv = COMMANDS[cmd] + [str(inputs / f"{inp}.map")]
    if cmd in LIFT_OF:
        argv.append(str(inputs / f"{inp}-{LIFT_OF[cmd]}.lift"))
    if cmd in ALPHA_K:
        argv += ["--alpha", str(inputs / f"{inp}-{cmd}.wit")]
    return argv + ["--json"] if mode == "json" else argv


def _generate(directory: Path) -> None:
    for name, params in INPUTS.items():
        assert main(["gen", *params, "-o", str(directory / f"{name}.map")]) == 0
    for name, (map_text, _) in WRITTEN.items():
        (directory / f"{name}.map").write_text(map_text, encoding="utf-8")
    for cmd, lift in LIFT_OF.items():
        for inp in ONLY_ON[cmd]:
            path = directory / f"{inp}-{lift}.lift"
            if lift == "mod5":
                path.write_text(MOD5, encoding="utf-8")
            elif lift == "given":
                path.write_text(WRITTEN[inp][1], encoding="utf-8")
            else:
                argv = ["lift", "-k", "2", str(directory / f"{inp}.map"), "-o", str(path)]
                assert main(argv) == 0
    for cmd, k in ALPHA_K.items():
        for inp in ONLY_ON[cmd]:
            f = formats.parse_map((directory / f"{inp}.map").read_text(encoding="utf-8")).map
            witness = closure_witness(build_closure_model(f), k)
            (directory / f"{inp}-{cmd}.wit").write_text(
                formats.write_witness(witness), encoding="utf-8"
            )


def _record(case: str, rc: int, out: str, err: str) -> dict:
    return {"exit": rc, "stderr": err, "stdout": f"{case}.out"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-inputs")
    _generate(directory)
    return directory


@pytest.fixture(scope="module")
def manifest():
    return json.loads((GOLDEN / "manifest.json").read_text())


def test_golden_covers_every_case(manifest):
    assert sorted(manifest) == sorted(CASES)


def _assert_golden(cases, inputs: Path, manifest: dict) -> None:
    for case in cases:
        rc, out, err = _run(_argv(case, inputs))
        assert _record(case, rc, out, err) == manifest[case]
        assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(case, inputs, manifest):
    _assert_golden([case], inputs, manifest)


def test_trivial_cover_is_decided_without_the_pair_complex(inputs, manifest, monkeypatch):
    """No verdict command builds the pair complex or runs the orbit
    quotient's regularity rounds.  ``join-lens 3 1`` has no invariant
    component and is decided from the walked 1-cells; ``join-lens 2 1`` has
    one, and it and every ``yang`` case read the quotient by the swap off
    the model's walk."""

    def refuse(*args, **kwargs):
        raise AssertionError("an involution complex or orbit quotient was built")

    monkeypatch.setattr(complexes.InvolutionComplex, "__init__", refuse)
    monkeypatch.setattr(mod2, "_regularity", refuse)
    cases = ["lens3-thm3-json", "lens3-obstruct3-json", "lens2-thm3-json"]
    cases += [c for c in CASES if c.startswith("lens2-obstruct") or "-yang-" in c]
    assert len(cases) == 3 + 6 + 10
    _assert_golden(cases, inputs, manifest)


def test_lift_builds_no_involution_complex(inputs, manifest, monkeypatch):
    """``lift`` certifies on the walked pair model, with or without
    ``--alpha``, and never builds the pair complex or any other stored
    involution complex."""

    def refuse(*args, **kwargs):
        raise AssertionError("an involution complex was built")

    monkeypatch.setattr(complexes.InvolutionComplex, "__init__", refuse)
    cases = [c for c in CASES if "-lift" in c or "-alpha" in c]
    commands = ("lift1", "lift2", "alpha1", "alpha2")
    assert len(cases) == 2 * sum(len(ONLY_ON[cmd]) for cmd in commands)
    _assert_golden(cases, inputs, manifest)


def test_lift_solves_no_lp(inputs, manifest, monkeypatch):
    """``lift`` on ``cycle-cover 2 5`` certifies its witness, its homotopy
    and its embedding without an LP: every walked cell and same-image pair
    is independent, and the homotopy takes one exact ratio per pair."""

    def refuse(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(lp, "lp_solve", refuse)
    cases = ["cover25-lift2-text", "cover25-lift2-json", "cover25-alpha2-text", "cover25-alpha2-json"]
    _assert_golden(cases, inputs, manifest)


def test_golden_digests_cover_every_gen_input():
    assert sorted(GEN_SHA256) == sorted({**INPUTS, **GEN_EXTRA})


@pytest.mark.parametrize("name", sorted(GEN_SHA256))
def test_gen_output_matches_digest(name, inputs, tmp_path):
    path = inputs / f"{name}.map"
    if name in GEN_EXTRA:
        path = tmp_path / f"{name}.out"
        assert main(["gen", *GEN_EXTRA[name], "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_SHA256[name]


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        _generate(inputs)
        for case in CASES:
            rc, out, err = _run(_argv(case, inputs))
            manifest[case] = _record(case, rc, out, err)
            (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8")
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
