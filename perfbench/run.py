"""The ``prem`` benchmark: time to verdict and memory of the shipped CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload's inputs are generated
from the seed during set-up; every job then runs in-process through
``prem.cli.main`` inside a fresh single-threaded child process, one child per
pass over the workload's jobs.

``--trace 0`` sets up three or more times (the median is ``setup_s``), then
runs whole passes for up to ``S`` seconds (at least one) and reports the
medians of ``wall_s`` (the sum of job wall times) and ``peak_rss_mb``.
``--trace 1`` sets up once with tracing, runs two traced passes under two hash
seeds with one untraced pass between them, and reports the per-layer metrics
of ``BENCHMARK.json``.

Every job's answer is checked against hand-derived facts, every output is
digested, and passes under different hash seeds must agree.  The full record
goes to ``.perfbench/``; the last line of standard output is the summary JSON.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from tracing import SETUP_LAYERS  # noqa: E402
from workloads import WORKLOADS, seed_tag  # noqa: E402

# Set-up runs at least three times, and more while it is cheap, so that the
# median of a sub-second set-up is not one cold import.
SETUP_REPS = (3, 15)
SETUP_MIN_S = 1.5
# Measured passes use fixed hash seeds, alternating, so that timings do not
# depend on the caller's environment while outputs are still compared across
# two hash seeds.
HASH_SEEDS = (0, 1)
DEADLINE_S = 170.0
DETERMINISM_COUNTS = (
    "lp.solves",
    "verify.pairs",
    "double_points.pair_cells",
    "plify.cuts",
    "lift.witness_draws",
)


class BenchError(Exception):
    """The benchmark itself could not run to the end."""


class Children:
    """Starts worker processes, each waited for and killed at the deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def run(self, mode: str, hash_seed: int, *args: str) -> dict:
        self.count += 1
        out = self.workdir / f"{mode}-{self.count}.json"
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PREM_JOBS="1")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left for the {mode} child")
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--out", str(out), *args]
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, timeout=timeout,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child passed the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-1500:]}"
            )
        return json.loads(out.read_text())


# -- environment ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "prem").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(args, tag: str) -> dict:
    return {
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "label_tag": tag,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- determinism ----------------------------------------------------------------------


def _fingerprint(job: dict, with_counts: bool) -> dict:
    fp = {"rc": job["rc"], "digests": job["digests"]}
    if with_counts:
        fp["counts"] = {k: job["layers"][k] for k in DETERMINISM_COUNTS}
    return fp


def compare_passes(passes: list, with_counts: bool) -> None:
    """Fail each job whose exit code, output digests or counts differ from
    the same job of the first pass, which ran under another hash seed."""
    first = passes[0]
    for other in passes[1:]:
        for a, b in zip(first["jobs"], other["jobs"]):
            if _fingerprint(a, with_counts) != _fingerprint(b, with_counts):
                b["problems"].append(
                    f"not deterministic: differs from the pass under hash seed "
                    f"{first['hash_seed']}"
                )


# -- the run ---------------------------------------------------------------------------


def self_check(children: Children, workdir: Path, tag: str) -> list:
    """The checks must reject a wrong lift and a wrong expected Yang index."""
    record = children.run("selfcheck", 0, "--dir", str(workdir / "selfcheck"), "--tag", tag)
    return [j["job"] for j in record["jobs"] if not j["problems"]]


def run_untraced(children: Children, args, inputs: Path, tag: str) -> tuple:
    setups = []
    while len(setups) < SETUP_REPS[0] or (
        len(setups) < SETUP_REPS[1] and sum(s["setup_s"] for s in setups) < SETUP_MIN_S
    ):
        i = len(setups)
        setup_dir = inputs if i == 0 else inputs.with_name(f"inputs-{i}")
        setups.append(children.run("setup", i, "--workload", args.workload,
                                   "--dir", str(setup_dir), "--tag", tag))
        if i:
            shutil.rmtree(setup_dir)
    missed = self_check(children, inputs.parent, tag)
    passes = []
    start = time.monotonic()
    longest = 0.0
    while not passes or time.monotonic() - start + longest <= args.seconds:
        began = time.monotonic()
        hash_seed = HASH_SEEDS[len(passes) % len(HASH_SEEDS)]
        passes.append(children.run("pass", hash_seed, "--workload", args.workload,
                                   "--dir", str(inputs)))
        longest = max(longest, time.monotonic() - began)
    metrics = {
        "wall_s": statistics.median(sum(j["wall_s"] for j in p["jobs"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    compare_passes(passes, with_counts=False)
    if any(s["inputs"] != setups[0]["inputs"] for s in setups):
        for job in (j for p in passes for j in p["jobs"]):
            job["problems"].append("not deterministic: set-ups under other hash "
                                   "seeds generated other inputs")
    return setups, passes, metrics, missed


def layer_metrics(setup: dict, traced: list, untraced_wall: float) -> dict:
    per_pass = []
    for p in traced:
        total = {}
        for job in p["jobs"]:
            for k, v in job["layers"].items():
                total[k] = total.get(k, 0) + v
        total["trace.wall_s"] = sum(j["wall_s"] for j in p["jobs"])
        total["trace.unattributed_s"] = sum(j["unattributed_s"] for j in p["jobs"])
        per_pass.append(total)
    metrics = {k: statistics.median(t[k] for t in per_pass) for k in per_pass[0]}
    pairs = metrics["verify.pairs"]
    metrics["verify.prefilter_ratio"] = (
        (pairs - metrics["verify.pairs_lp"]) / pairs if pairs else 0.0
    )
    metrics["trace.overhead"] = metrics["trace.wall_s"] / untraced_wall
    for k, v in setup["layers"].items():
        if k.split(".", 1)[0] in SETUP_LAYERS:
            metrics[k] += v
    return metrics


def run_traced(children: Children, args, inputs: Path, tag: str) -> tuple:
    setup = children.run("setup", 0, "--workload", args.workload, "--dir", str(inputs),
                         "--tag", tag, "--trace")
    missed = self_check(children, inputs.parent, tag)

    def traced_pass(hash_seed: int) -> dict:
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-hash{hash_seed}.json"
        return children.run("pass", hash_seed, "--workload", args.workload,
                            "--dir", str(inputs), "--trace", "--spans", str(spans))

    traced = [traced_pass(HASH_SEEDS[0])]
    # The untraced pass runs between the traced ones, so that drift in the
    # box's speed weighs on both sides of the overhead ratio alike.
    plain = children.run("pass", HASH_SEEDS[0], "--workload", args.workload,
                         "--dir", str(inputs))
    traced.append(traced_pass(HASH_SEEDS[1]))
    untraced_wall = sum(j["wall_s"] for j in plain["jobs"])
    metrics = layer_metrics(setup, traced, untraced_wall)
    compare_passes(traced, with_counts=True)
    compare_passes([traced[0], plain], with_counts=False)
    return [setup], [plain] + traced, metrics, missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running child before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "prem" / "cli.py").is_file():
        print(f"perfbench: no prem sources at {ROOT / 'src' / 'prem'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}

    workdir = OUT_DIR / f"work-{os.getpid()}"
    inputs = workdir / "inputs"
    OUT_DIR.mkdir(exist_ok=True)
    tag = seed_tag(args.seed)
    children = Children(workdir, time.monotonic() + DEADLINE_S)
    try:
        workdir.mkdir()
        runner = run_traced if args.trace else run_untraced
        setups, passes, metrics, missed = runner(children, args, inputs, tag)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(wanted):
        print(f"perfbench: measured metrics {sorted(set(metrics) ^ set(wanted))} "
              f"disagree with the {section} list of BENCHMARK.json", file=sys.stderr)
        return 1
    jobs = [j for p in passes for j in p["jobs"]]
    failed = sum(1 for j in jobs if j["problems"])
    correct = failed == 0 and not missed

    record = {
        "environment": environment(args, tag),
        "setups": setups,
        "passes": passes,
        "metrics": metrics,
        "selfcheck_missed": missed,
        "attempted": len(jobs),
        "failed": failed,
        "correct": correct,
    }
    result_file = OUT_DIR / f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1, sort_keys=True))

    for j in jobs:
        state = "ok" if not j["problems"] else "FAILED: " + "; ".join(j["problems"])
        print(f"job  {j['job']}: {j['wall_s']:.3f} s, exit {j['rc']}, {state}")
    for name in missed:
        print(f"self-check: the check accepted the wrong answer of {name!r}")
    for name, unit in wanted.items():
        print(f"{args.workload}  {name} = {metrics[name]:.6g} {unit}")
    print(f"failed_ratio = {failed}/{len(jobs)}   results: {result_file.relative_to(ROOT)}")
    summary = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
