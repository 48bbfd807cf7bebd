"""Smoke test of the benchmark: every workload at minimal size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run prints every metric BENCHMARK.json names, with its
unit, that the layer self times of each traced pass fit inside the pass,
that the output checks catch bad outputs, and that the benchmark refuses to
run without the library next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIMEOUT_S = 180

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402
from entrate.cli import CSV_COLUMNS  # noqa: E402


def run_bench(root: Path, workload: str, trace: int):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_report(proc, section: str) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if not line.startswith("#")}
    for name, unit in want.items():
        assert printed.get(name) == unit, name
    assert "failed_frac" in printed
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_end_to_end_metrics(workload):
    metrics = check_report(run_bench(ROOT, workload, 0), "end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_layer_metrics_and_self_times_fit(workload):
    metrics = check_report(run_bench(ROOT, workload, 1), "per_layer")
    layers = ("certify", "rates", "dynamics", "measures", "states", "linalg", "cli")
    assert sum(metrics[f"{layer}.self_s"]["value"] for layer in layers) <= metrics["trace.wall_s"]["value"]

    spans = [json.loads(line) for line in (ROOT / ".bench_out" / f"spans-{workload}-1.jsonl").open()]
    assert len(spans) == metrics["trace.spans"]["value"]
    child = [0.0] * len(spans)
    top = list(range(len(spans)))  # index of each span's outermost ancestor
    for i, (name, start, end, parent, op) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            assert parent < i and spans[parent][1] <= start and end <= spans[parent][2]
            child[parent] += end - start
            top[i] = top[parent]
    passes = {i: 0.0 for i, s in enumerate(spans) if s[0] == "bench.pass"}
    assert set(top) == set(passes)
    for i, (name, start, end, parent, op) in enumerate(spans):
        if name.split(".")[0] in layers:
            passes[top[i]] += (end - start) - child[i]
    for i, layer_self in passes.items():
        assert layer_self <= spans[i][2] - spans[i][1] + 1e-9


def test_checks_count_bad_outputs_as_failed():
    argv = ["simulate", "--samples", "2", "--seed", "0"]
    header = list(CSV_COLUMNS)
    good = [header, ["0", "0.0", "0.1", "1.0", "1.0", "1.0"], ["1", "1e-12", "0.1", "2.0", "1.0", "0.5"]]
    reference = {"argv": argv, "final_row": [1.0, 0.0, 0.1, 2.0, 1.0, 0.5], "atol": 1e-9, "rtol": 1e-9}
    assert workloads.check_rows(0, good, 2, reference, argv).failed == 0

    drifted = [header, good[1], ["1", "1e-6", "0.1", "2.0", "1.0", "0.5"]]
    assert workloads.check_rows(0, drifted, 2, None, argv).failed == 1
    moved = reference | {"final_row": [1.0, 0.0, 0.1, 2.1, 1.0, 0.5]}
    assert workloads.check_rows(0, good, 2, moved, argv).failed == 2
    assert workloads.check_rows(3, [], 2, None, argv).failed == 2

    config = workloads.SweepConfig(families=("prop1",), trials=1)
    row = {"trials": 9, "violations": 1, "numerical_failures": 0, "optimizer_stalls": 0}
    cert = SimpleNamespace(families={"prop1": row}, status="violated")
    checked = workloads.check_certificate(cert, config)
    assert checked.ops == 9 and checked.failed == 9 and checked.problems


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
