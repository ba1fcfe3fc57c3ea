"""Byte-for-byte CLI outputs of the analysis subcommands and of ``lift`` on
small generated inputs, compared with files in ``tests/golden/``.

The analysis files were written before the combinatorial core was rewritten
and pin its outputs: pair complexes, quotients, Yang indices, verdicts and
reports must not change by a byte.  The ``lift`` files were written before
the witness generators and certifiers were merged and pin the lift values,
verification summaries and the obstructed exit.  The ``verify`` and
``plify`` files were written before the simplex moved to integer rows and pin
what the exact LPs decide: violation witnesses, Farkas-derived separating
cuts and the per-stage numbers of the refinement cascade.  Regenerate them
only for a deliberate, documented output change::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from prem.cli import main

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "lens2": ["join-lens", "2", "1"],
    "lens3": ["join-lens", "3", "1"],
    "cover25": ["cycle-cover", "2", "5"],
    "eight": ["figure-eight"],
    "fold": ["fold-path"],
    "cover23": ["cycle-cover", "2", "3"],
}

# Inputs of the analysis commands; ``cover23`` only feeds ``plify``.
ANALYSED = ("lens2", "lens3", "cover25", "eight", "fold")

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
}

# The lift file each ``verify`` / ``plify`` command reads after the map:
# ``lift2`` is what ``lift -k 2`` writes for the input, ``mod5`` gives vertex
# ``n<i>`` of ``cycle-cover 2 5`` the value ``i mod 5``.  Under ``mod5`` the
# two preimages of each target edge coincide, so a violation value is the
# vertex at which the pair LP stops, not a unique crossing point.
LIFT_OF = {"verify2": "lift2", "verifymod5": "mod5", "plify2": "lift2"}
MOD5 = "".join(f"g n{i} {i % 5}\n" for i in range(10))

# Commands that run only on some inputs (``lift`` needs a map without triple
# points whose folds are simple; ``cover25`` at k=1 is the obstructed case).
ONLY_ON = {
    "lift1": ("fold", "eight", "cover25"),
    "lift2": ("cover25",),
    "verify2": ("cover25",),
    "verifymod5": ("cover25",),
    "plify2": ("cover23",),
}


def _cases():
    for inp in INPUTS:
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
    return argv + ["--json"] if mode == "json" else argv


def _generate(directory: Path) -> None:
    for name, params in INPUTS.items():
        assert main(["gen", *params, "-o", str(directory / f"{name}.map")]) == 0
    for cmd, lift in LIFT_OF.items():
        for inp in ONLY_ON[cmd]:
            path = directory / f"{inp}-{lift}.lift"
            if lift == "mod5":
                path.write_text(MOD5, encoding="utf-8")
            else:
                argv = ["lift", "-k", "2", str(directory / f"{inp}.map"), "-o", str(path)]
                assert main(argv) == 0


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


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(case, inputs, manifest):
    rc, out, err = _run(_argv(case, inputs))
    assert _record(case, rc, out, err) == manifest[case]
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


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
