"""Every benchmark workload sets up and passes its checks against this
checkout's library, in process: a library change that breaks the benchmark's
set-up or its jobs fails here, and not first in a benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402
from prem.cli import main  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_sets_up_and_passes_its_checks(name, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name]
    workload.generate(tmp_path, workloads.seed_tag(0))
    monkeypatch.chdir(tmp_path)
    records = worker.judge(worker.run_jobs(workload.jobs(tmp_path), main), tmp_path)
    assert records and [(r["job"], r["problems"]) for r in records] == [
        (r["job"], []) for r in records
    ]
