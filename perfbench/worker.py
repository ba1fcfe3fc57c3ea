"""One single-threaded child process of the benchmark.

    python3 perfbench/worker.py setup     --workload W --dir D --tag T --out F [--trace]
    python3 perfbench/worker.py pass      --workload W --dir D --out F [--trace --spans S]
    python3 perfbench/worker.py selfcheck --dir D --tag T --out F

``setup`` imports ``prem`` and writes the workload's inputs into ``D``, timing
both.  ``pass`` runs every job of the workload once, in this process, through
``prem.cli.main``, then digests and checks what the jobs left behind.
``selfcheck`` runs two jobs whose checks must fail.  Each mode writes one
JSON record to ``F``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _import_prem():
    sys.path.insert(0, str(SRC))
    import prem.cli

    return prem.cli.main


def do_setup(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.dir)
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    _import_prem()
    imported = time.perf_counter()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin_request()
    workload.generate(workdir, args.tag)
    done = time.perf_counter()
    record = {
        "setup_s": done - start,
        "import_s": imported - start,
        "inputs": {p.name: sha256(p) for p in sorted(workdir.iterdir())},
    }
    if tracer is not None:
        record["layers"] = tracing.summarize(tracer.spans, tracer.counts)
    return record


def run_jobs(jobs, main, tracer=None):
    """Run each job through ``main``; time only the call itself."""
    runs = []
    for job in jobs:
        for name in job.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
        out, err = io.StringIO(), io.StringIO()
        call = main
        if tracer is not None:
            tracer.begin_request()
            span_name = "cli." + job.argv[0].replace("-", "_")
            call = lambda argv: tracer.span(span_name, main, argv)  # noqa: E731
        error = None
        rc = None
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = call(list(job.argv))
        except Exception:  # a crash inside prem fails the job, not the benchmark
            error = traceback.format_exc(limit=8)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        run = {"job": job, "rc": rc, "wall_s": wall, "cpu_s": cpu, "error": error,
               "stdout": out.getvalue(), "stderr": err.getvalue()}
        if tracer is not None:
            run["spans"] = tracer.spans
            run["counts"] = tracer.counts
        runs.append(run)
    return runs


def judge(runs, workdir: Path) -> list:
    """Digest and check each run; the records are plain JSON."""
    records = []
    for run in runs:
        job = run["job"]
        digests = {"stdout": hashlib.sha256(run["stdout"].encode()).hexdigest()}
        for name in job.outputs:
            path = workdir / name
            if path.is_file():
                digests[name] = sha256(path)
        problems = []
        if run["error"] is not None:
            problems.append("raised: " + run["error"].strip().splitlines()[-1])
        else:
            try:
                problems = job.check(
                    workloads.JobResult(run["rc"], run["stdout"], workdir)
                )
            except Exception as exc:  # an unreadable answer is a wrong answer
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        rec = {
            "job": job.name,
            "argv": job.argv,
            "rc": run["rc"],
            "wall_s": run["wall_s"],
            "cpu_s": run["cpu_s"],
            "digests": digests,
            "problems": problems,
            "stderr": run["stderr"][-2000:],
            "error": run["error"],
        }
        if "spans" in run:
            layers = tracing.summarize(run["spans"], run["counts"])
            rec["layers"] = layers
            rec["spans"] = len(run["spans"])
            rec["unattributed_s"] = run["wall_s"] - tracing.attributed_s(run["spans"])
        records.append(rec)
    return records


def write_spans(path: Path, runs) -> None:
    doc = {}
    for run in runs:
        names = sorted({s[0] for s in run["spans"]})
        index = {n: i for i, n in enumerate(names)}
        doc[run["job"].name] = {
            "names": names,
            "spans": [[index[n], p, round(a, 7), round(b, 7)] for n, p, a, b in run["spans"]],
        }
    path.write_text(json.dumps(doc, separators=(",", ":")))


def do_pass(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.dir)
    start = time.perf_counter()
    main = _import_prem()
    import_s = time.perf_counter() - start
    os.chdir(workdir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    runs = run_jobs(workload.jobs(workdir), main, tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        if args.spans:
            write_spans(Path(args.spans), runs)
    return {
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "import_s": import_s,
        "peak_rss_mb": peak_kb / 1024,
        "jobs": judge(runs, workdir),
    }


def do_selfcheck(args) -> dict:
    check = workloads.SelfCheck()
    workdir = Path(args.dir)
    workdir.mkdir(parents=True, exist_ok=True)
    main = _import_prem()
    check.generate(workdir, args.tag)
    os.chdir(workdir)
    return {"jobs": judge(run_jobs(check.jobs(workdir), main), workdir)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "selfcheck"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--tag", default="")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode != "selfcheck" and args.workload is None:
        parser.error("--workload is required")
    handler = {"setup": do_setup, "pass": do_pass, "selfcheck": do_selfcheck}[args.mode]
    record = handler(args)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
