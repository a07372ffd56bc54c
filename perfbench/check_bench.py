"""Self-check of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps it out of the repository's own test run.  It checks
that every metric named in BENCHMARK.json is emitted for every workload,
that all commands pass the report checker, that two traced runs with the
same seed agree exactly on every metric that is not a time, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _names(section):
    return [(m["name"], m["unit"]) for m in SPEC[section]]


def test_metric_lists_match_benchmark_json():
    assert _names("end_to_end") == list(run.E2E_METRICS)
    assert _names("per_layer") == list(tracer.LAYER_METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_run_emits_every_end_to_end_metric(workload):
    metrics, specs, _, checker = run.run(workload, SEED, 0.1, 0, size="tiny")
    assert checker.correct, checker.failures + checker.errors
    assert sorted(metrics) == sorted(name for name, _ in specs)
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_repeat_every_count(workload):
    first, specs, _, checker = run.run(workload, SEED, 0.1, 1, size="tiny")
    assert checker.correct, checker.failures + checker.errors
    assert sorted(first) == sorted(name for name, _ in specs)
    second = run.run(workload, SEED, 0.1, 1, size="tiny")[0]
    for name, unit in specs:
        if unit != "s":
            assert first[name] == second[name], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", workloads.WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
