"""The benchmark's workloads: how each builds its inputs, the CLI jobs it runs,
and the facts each job's answer must show.

Every check is derived by hand from the mathematics of the input, never from
a recorded output, and reads machine-readable fields rather than wording, so
that reason strings and report layout may change freely.

The seed picks a three-letter tag that prefixes every vertex label of every
generated file.  Prefixing keeps declaration order, token order and token
length, so the inputs of all seeds are isomorphic and cost the same, and the
facts checked do not depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Dict, List, Optional

LENS_P = (2, 3)
CYCLE_BASE = 100
PLIFY_CYCLE_BASE = 3
SELFCHECK_CYCLE_BASE = 5


@dataclass
class JobResult:
    """What one CLI job left behind, as its check sees it."""

    rc: int
    stdout: str
    workdir: Path

    def json(self) -> dict:
        """The JSON report, which ``--json`` writes to standard output."""
        return json.loads(self.stdout)


@dataclass
class Job:
    name: str
    argv: List[str]
    check: Callable[[JobResult], List[str]]
    outputs: List[str] = field(default_factory=list)


# -- labels and file facts ------------------------------------------------------


def seed_tag(seed: int) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3)) + "_"


_ALL_IDS = {"v", "s", "m"}


def relabel(text: str, tag: str) -> str:
    """Prefix every vertex token of a map, lift or witness file with ``tag``."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or len(parts) == 1 or parts[0].startswith("#"):
            out.append(line)
            continue
        kind = parts[0]
        if kind in _ALL_IDS:
            parts[1:] = [tag + p for p in parts[1:]]
        elif kind == "g":
            parts[1] = tag + parts[1]
        elif kind == "w":
            u, v = parts[1].split(",")
            parts[1] = f"{tag}{u},{tag}{v}"
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def read_lift(text: str) -> Dict[str, tuple]:
    """The ``g`` lines of a lift file or of a CLI report that embeds one."""
    values = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "g":
            values[parts[1]] = tuple(Fraction(x) for x in parts[2:])
    return values


def source_maximal_count(map_text: str) -> int:
    """Number of ``s`` lines (maximal simplices) in the source section."""
    section = None
    count = 0
    for line in map_text.splitlines():
        parts = line.split()
        if len(parts) == 1 and parts[0] in ("source", "target", "map"):
            section = parts[0]
        elif section == "source" and parts and parts[0] == "s":
            count += 1
    return count


def _expect(problems: List[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


# -- checks ------------------------------------------------------------------------


def thm3_check(p: int, yang: Optional[int] = None) -> Callable[[JobResult], List[str]]:
    """``report-thm3`` on ``join-lens p 1``.  The pair model of the p-fold
    cyclic covering has p - 1 components, one per nonzero shift; the swap
    fixes the shift by p/2 only, so exactly one component is invariant when
    p is even.  Its Yang index is then the full dimension 3 (not-exists,
    exit 1); for odd p the quotient is disconnected into swapped pairs and
    the index is 0 (exists, exit 0)."""
    even = p % 2 == 0
    want_yang = (3 if even else 0) if yang is None else yang

    def check(res: JobResult) -> List[str]:
        problems: List[str] = []
        _expect(problems, "exit code", res.rc, 1 if even else 0)
        doc = res.json()
        _expect(problems, "yang index", doc.get("yang_index"), want_yang)
        _expect(problems, "components", doc.get("components"), p - 1)
        _expect(problems, "invariant components", doc.get("invariant_components"), int(even))
        return problems

    return check


def lift_file_check(path: str, vertices: int, k: int) -> Callable[[JobResult], List[str]]:
    """A text-mode ``lift``: exit 0 and k values on every source vertex."""

    def check(res: JobResult) -> List[str]:
        problems: List[str] = []
        _expect(problems, "exit code", res.rc, 0)
        values = read_lift((res.workdir / path).read_text())
        _expect(problems, "lifted vertices", len(values), vertices)
        _expect(problems, "coordinate counts", {len(v) for v in values.values()}, {k})
        return problems

    return check


def verify_check(maximal: int) -> Callable[[JobResult], List[str]]:
    """``verify`` of a correct lift: certificate ok, every maximal simplex
    self-checked and every unordered pair of them checked."""

    def check(res: JobResult) -> List[str]:
        problems: List[str] = []
        _expect(problems, "exit code", res.rc, 0)
        doc = res.json()
        _expect(problems, "certificate ok", doc.get("ok"), True)
        _expect(problems, "simplices checked", doc.get("simplices_checked"), maximal)
        _expect(problems, "pairs checked", doc.get("pairs_checked"), comb(maximal, 2))
        return problems

    return check


def sphere_lift_check(maximal: int) -> Callable[[JobResult], List[str]]:
    """``lift --json --alpha`` on the antipodal covering: verification and
    homotopy certificate both ok, over every pair of maximal simplices."""

    def check(res: JobResult) -> List[str]:
        problems: List[str] = []
        _expect(problems, "exit code", res.rc, 0)
        doc = res.json()
        ver = doc.get("verification") or {}
        _expect(problems, "verification ok", ver.get("ok"), True)
        _expect(problems, "pairs checked", ver.get("pairs_checked"), comb(maximal, 2))
        _expect(problems, "homotopy certified", doc.get("homotopy_certified"), True)
        return problems

    return check


def plify_check(lift_path: str) -> Callable[[JobResult], List[str]]:
    """``plify --json``: result ok, and the derived PL lift equals the input
    lift at every original vertex."""

    def check(res: JobResult) -> List[str]:
        problems: List[str] = []
        _expect(problems, "exit code", res.rc, 0)
        doc = res.json()
        _expect(problems, "result ok", doc.get("ok"), True)
        derived = {
            v: tuple(Fraction(x) for x in vals)
            for v, vals in (doc.get("derived_lift") or {}).items()
        }
        given = read_lift((res.workdir / lift_path).read_text())
        wrong = [v for v, val in given.items() if derived.get(v) != val]
        if wrong:
            problems.append(f"derived lift differs from the input at {wrong[:3]}")
        return problems

    return check


# -- workloads ---------------------------------------------------------------------


def _cli_file(main, argv: List[str], path: Path, tag: str) -> str:
    """Run a generating CLI command into ``path`` and relabel the file."""
    rc = main(argv + ["-o", str(path)])
    if rc != 0:
        raise RuntimeError(f"prem {' '.join(argv)} exited {rc}")
    text = relabel(path.read_text(), tag)
    path.write_text(text)
    return text


def _write(path: Path, text: str, tag: str) -> None:
    path.write_text(relabel(text, tag))


class Workload:
    """A named set of inputs and the jobs run on them."""

    name = ""

    def generate(self, workdir: Path, tag: str) -> None:
        """Write the inputs into ``workdir`` (the timed set-up)."""
        raise NotImplementedError

    def jobs(self, workdir: Path) -> List[Job]:
        raise NotImplementedError


class Thm3Lens(Workload):
    name = "thm3-lens"

    def generate(self, workdir, tag):
        from prem.cli import main

        for p in LENS_P:
            _cli_file(main, ["gen", "join-lens", str(p), "1"], workdir / f"lens{p}.map", tag)

    def jobs(self, workdir):
        return [
            Job(
                name=f"report-thm3 join-lens {p} 1",
                argv=["report-thm3", f"lens{p}.map", "--json"],
                check=thm3_check(p),
            )
            for p in LENS_P
        ]


class LiftCycle(Workload):
    name = "lift-cycle"

    def generate(self, workdir, tag):
        from prem.cli import main

        _cli_file(main, ["gen", "cycle-cover", "2", str(CYCLE_BASE)], workdir / "cycle.map", tag)

    def jobs(self, workdir):
        edges = 2 * CYCLE_BASE
        return [
            Job(
                name=f"lift -k 2 cycle-cover 2 {CYCLE_BASE}",
                argv=["lift", "-k", "2", "cycle.map", "-o", "cycle.lift"],
                outputs=["cycle.lift"],
                check=lift_file_check("cycle.lift", edges, 2),
            ),
            Job(
                name=f"verify cycle-cover 2 {CYCLE_BASE}",
                argv=["verify", "cycle.map", "cycle.lift", "--json"],
                check=verify_check(edges),
            ),
        ]


class LiftSphere(Workload):
    name = "lift-sphere"

    def generate(self, workdir, tag):
        from prem import formats, generators, lift

        f, _rounds = generators.antipodal_sphere_covering(2)
        _write(workdir / "sphere.map", formats.write_map(f), tag)
        alpha = lift.closure_witness(lift.build_closure_model(f), 3)
        _write(workdir / "sphere.witness", formats.write_witness(alpha), tag)

    def jobs(self, workdir):
        maximal = source_maximal_count((workdir / "sphere.map").read_text())
        return [
            Job(
                name="lift -k 3 antipodal_sphere_covering(2)",
                argv=["lift", "-k", "3", "sphere.map", "--alpha", "sphere.witness", "--json"],
                check=sphere_lift_check(maximal),
            )
        ]


class PlifyCascade(Workload):
    name = "plify-cascade"

    def generate(self, workdir, tag):
        from prem import formats, generators
        from prem.cli import main

        base = str(PLIFY_CYCLE_BASE)
        _cli_file(main, ["gen", "cycle-cover", "2", base], workdir / "cycle.map", tag)
        rc = main(["lift", "-k", "2", str(workdir / "cycle.map"), "-o", str(workdir / "cycle.lift")])
        if rc != 0:
            raise RuntimeError(f"prem lift on cycle-cover 2 {base} exited {rc}")
        f, g = generators.wiggly_figure_eight()
        _write(workdir / "eight.map", formats.write_map(f), tag)
        _write(workdir / "eight.lift", formats.write_lift(g), tag)

    def jobs(self, workdir):
        return [
            Job(
                name=f"plify cycle-cover 2 {PLIFY_CYCLE_BASE}",
                argv=["plify", "cycle.map", "cycle.lift", "--json"],
                check=plify_check("cycle.lift"),
            ),
            Job(
                name="plify wiggly_figure_eight()",
                argv=["plify", "eight.map", "eight.lift", "--json"],
                check=plify_check("eight.lift"),
            ),
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Thm3Lens(), LiftCycle(), LiftSphere(), PlifyCascade())
}


# -- self-check of the checks --------------------------------------------------------


class SelfCheck(Workload):
    """Two jobs whose checks must fail: an all-zero lift on cycle-cover 2 5,
    which is not an embedding, and the join-lens 2 1 report held to a wrong
    Yang index."""

    name = "selfcheck"

    def generate(self, workdir, tag):
        from prem.cli import main

        base = SELFCHECK_CYCLE_BASE
        text = _cli_file(main, ["gen", "cycle-cover", "2", str(base)], workdir / "zero.map", tag)
        vertices = [line.split()[1] for line in text.splitlines()
                    if line.startswith("m ")]
        (workdir / "zero.lift").write_text("".join(f"g {v} 0/1\n" for v in vertices))
        _cli_file(main, ["gen", "join-lens", "2", "1"], workdir / "lens2.map", tag)

    def jobs(self, workdir):
        return [
            Job(
                name=f"verify all-zero lift on cycle-cover 2 {SELFCHECK_CYCLE_BASE}",
                argv=["verify", "zero.map", "zero.lift", "--json"],
                check=verify_check(2 * SELFCHECK_CYCLE_BASE),
            ),
            Job(
                name="report-thm3 join-lens 2 1 held to Yang index 0",
                argv=["report-thm3", "lens2.map", "--json"],
                check=thm3_check(2, yang=0),
            ),
        ]
