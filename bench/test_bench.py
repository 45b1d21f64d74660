"""Self-tests of the benchmark; run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
from spans import Span, self_times

HERE = Path(__file__).resolve().parent


def test_smoke_prints_every_metric_and_runs_every_check():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("smoke ok")


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["chain", "search", "cli"]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(0, "op", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "b", 3.0, 6.0, 0, 1),  # overlaps a by one unit
        Span(3, "c", 5.0, 5.5, 2, 1),
    ]
    assert self_times(spans) == {0: 5.0, 1: 3.0, 2: 2.5, 3: 0.5}
