"""Smoke test of the benchmark: every workload runs at a tiny size, passes its
output checks and emits every metric that BENCHMARK.json names.

    python3 -m pytest -q bench/test_bench.py

It takes a few minutes, because every operation starts a fresh interpreter.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = "0.02"
# Every per-layer metric that is not a time is a count or computed from shapes.
COMPUTED = [name for name, unit in run.PER_LAYER.items()
            if unit != "s" and name != "proc.cpu_util"]


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", TINY],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )


def result(workload: str, trace: int, seed: int = 7) -> dict:
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout
    return out


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())


def test_per_layer_metrics_cover_every_layer_and_repeat():
    runs = {w: result(w, 1)["metrics"] for w in run.WORKLOADS}
    for metrics in runs.values():
        assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    for layer in ("noise_models", "laws1d", "zero_bias", "testfns", "stein_kernels",
                  "estimation", "risk_lab", "mc", "cli", "setup", "proc"):
        assert any(
            m[name]["value"] != 0 for m in runs.values() for name in m
            if name.startswith(layer + ".")
        ), f"no non-zero metric for layer {layer}"
    # Counters computed from shapes do not depend on the seed.
    for workload, metrics in runs.items():
        again = result(workload, 1, seed=8)["metrics"]
        for name in COMPUTED:
            assert again[name]["value"] == metrics[name]["value"], (workload, name)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
