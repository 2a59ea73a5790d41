"""Smoke test for the benchmark: tiny inputs, every metric, a failing golden.

Run from the repository root with either::

    python3 capebench/test_smoke.py
    python3 -m pytest capebench/test_smoke.py -q

Each workload runs at ``--scale tiny`` for a second, untraced and
traced; every metric named in ``BENCHMARK.json`` must print with its
unit, and a run with a deliberately corrupted golden must fail.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, "capebench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--scale", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    printed = result["metrics"]
    assert list(printed) == [m["name"] for m in declared]
    for metric in declared:
        entry = printed[metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert isinstance(entry["value"], float), metric["name"]


def test_end_to_end_metrics_print_with_units():
    for workload in WORKLOADS:
        code, result, err = run(workload, "--trace", "0")
        assert code == 0, (workload, err)
        assert result["correct"] and result["failed"] == 0, workload
        check_metrics(result, SPEC["end_to_end"])
        for name in ("setup_s", "jobs_per_s", "p50_ms", "sim_mcycles"):
            assert result["metrics"][name]["value"] > 0, (workload, name)


def test_per_layer_metrics_print_with_units():
    for workload in WORKLOADS:
        code, result, err = run(workload, "--trace", "1")
        assert code == 0, (workload, err)
        assert result["correct"], workload
        check_metrics(result, SPEC["per_layer"])


def test_corrupted_golden_fails_the_run():
    for workload in WORKLOADS:
        code, result, _err = run(workload, "--trace", "0", "--corrupt-golden")
        assert code != 0, workload
        assert result["correct"] is False and result["failed"] >= 1, workload


if __name__ == "__main__":
    for test in (
        test_end_to_end_metrics_print_with_units,
        test_per_layer_metrics_print_with_units,
        test_corrupted_golden_fails_the_run,
    ):
        test()
        print(f"ok {test.__name__}")
