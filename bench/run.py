#!/usr/bin/env python3
"""steinshrink benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Runs one workload for about S seconds and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
split from a traced run.  `--workload all` runs every workload both ways and
prints every metric by name and unit, plus the per-layer table.

Every operation runs in a fresh child interpreter (bench/child.py), started
one at a time, so that set-up and peak RSS are per operation.  The workload's
operations run as a round; rounds repeat until S seconds have passed, and
times are medians over rounds.  All inputs (Monte Carlo seeds, theta files,
matrices) come from --seed.  Each operation's output is checked.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402

MIN_ROUNDS = 3  # set-up and wall time are medians over at least this many rounds
HARD_STOP_S = 150.0  # no round starts that would end past this; children die past it
# Gate for every statistical output check, in standard errors.  A run makes
# 3 to 8 independent comparisons (rounds repeat the same outputs), and a
# campaign of a hundred-odd runs makes about 900.
# At 3 standard errors (0.27% false alarms each) about 2 of those would fail
# by chance; at 5 the chance that any fails is about 0.05%.
Z_GATE = 5.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MB",
}
_LAYER_UNITS = {
    "noise_models.rows": "count",
    "noise_models.draw_mb": "MB",
    "noise_models.redraw_frac": "fraction",
    "laws1d.variates": "count",
    "zero_bias.companions": "count",
    "zero_bias.companion_mb": "MB",
    "zero_bias.useful_frac": "fraction",
    "testfns.jac_mb": "MB",
    "testfns.partial_calls": "count",
    "estimation.select_lambda_calls": "count",
    "mc.chunks": "count",
    "mc.values": "count",
    "proc.cpu_util": "fraction",
}
PER_LAYER = {
    **{name: _LAYER_UNITS.get(name, "s") for name in tracing.SELF_TIME_METRICS},
    **_LAYER_UNITS,
    "setup.import_s": "s",
    "setup.construct_s": "s",
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
}

# ---------------------------------------------------------------------------
# workloads

RISK_HEADER = "label,lambda,mean,stderr,n,seed,bound_thm31,bound_thm33,bound_zb"
SURE_HEADER = "model,estimator,lambda,sure_mean,risk_mean,bias,bias_bound"
ADAPTIVITY_HEADER = "d,risk_mean,stderr,pinsker_limit,thm45_bound"

WORKLOADS = {
    "bounds": "risk --bounds at d=200 for Laplace and Gaussian noise: B* per-index companions",
    "identities": "Stein and zero-bias identity residuals at d=32: dense Jacobians, kernels",
    "sure": "sure with a shared-draw Student run and a per-row select-lambda run",
    "sweep": "adaptivity over d=100,400,1600 on Laplace noise: mc_risk alone, the control",
}


def _reps(n: int, scale: float) -> int:
    return max(50, int(round(n * scale)))


def write_spike_theta(path: Path, d: int, seed: int) -> None:
    """Sparse theta: 10 spikes of size +-5 at seeded positions.

    Soft thresholding and Gaussian noise are symmetric under signed
    permutations, so every seed has the same expected risk and SURE.
    """
    rng = random.Random(seed)
    theta = [0.0] * d
    for i in rng.sample(range(d), 10):
        theta[i] = rng.choice((-5.0, 5.0))
    path.write_text("".join(f"{v!r}\n" for v in theta), encoding="utf-8")


def workload_ops(name: str, seed: int, work: Path, scale: float = 1.0) -> list[dict]:
    """The operations of one workload, every input derived from `seed`."""

    def mc_seed(index: int) -> int:
        return 1000 * seed + index

    def cli(op_name, index, argv, reps, header, reps_per_run=1):
        out = work / f"{op_name.replace('/', '-')}.csv"
        argv = argv + ["--reps", str(reps), "--seed", str(mc_seed(index)), "--out", str(out)]
        return {
            "name": op_name,
            "kind": "cli",
            "argv": argv,
            "csv": str(out),
            "header": header,
            "reps": reps,
            "replicates": reps * reps_per_run,
        }

    if name == "bounds":
        reps = _reps(4000, scale)
        return [
            cli(f"bounds/{model}", i, ["risk", "--bounds", "--model", model, "--d", "200",
                                       "--lambda", "198"], reps, RISK_HEADER)
            for i, model in enumerate(("laplace", "gaussian"))
        ]
    if name == "identities":
        n = _reps(32768, scale)
        ops = []
        for model in ("student", "laplace"):
            for test_fn in ("g0", "linear"):
                for residual in ("stein", "zb"):
                    ops.append({
                        "name": f"identities/{residual}-{model}-{test_fn}",
                        "kind": "identity",
                        "model": model,
                        "d": 32,
                        "k": 6,
                        "theta": "scaled:1",
                        "test_fn": test_fn,
                        "matrix_seed": seed,
                        "residual": residual,
                        "n": n,
                        "seed": mc_seed(len(ops)),
                        "reps": n,
                        "replicates": n,
                    })
        return ops
    if name == "sure":
        theta = work / "spikes.txt"
        write_spike_theta(theta, 1024, seed)
        return [
            cli("sure/student", 0, ["sure", "--model", "student", "--d", "64", "--k", "6",
                                    "--lambda", "62"], _reps(50000, scale), SURE_HEADER),
            cli("sure/select-lambda", 1, ["sure", "--model", "gaussian", "--d", "1024",
                                          "--theta", str(theta), "--select-lambda"],
                _reps(4000, scale), SURE_HEADER),
        ]
    if name == "sweep":
        d_list = "100,400,1600"
        return [
            cli("sweep/laplace", 0, ["adaptivity", "--model", "laplace", "--c", "1",
                                     "--d-list", d_list], _reps(20000, scale),
                ADAPTIVITY_HEADER, reps_per_run=len(d_list.split(","))),
        ]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# output checks


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path) -> tuple[str, list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    return lines[0], [line.split(",") for line in lines[1:]]


def check_csv(op: dict, reference: dict) -> str | None:
    """None if the CSV matches the recorded reference, else the reason.

    Numeric cells must lie within Z_GATE combined standard errors of the
    reference mean: the reference records each cell's standard deviation
    across independent runs at `reps` replicates, which scales as 1/sqrt(reps).
    """
    header, rows = read_csv(op["csv"])
    if header != op["header"]:
        return f"header {header!r}, expected {op['header']!r}"
    ref = reference["operations"][op["name"]]
    if len(rows) != len(ref["rows"]):
        return f"{len(rows)} rows, expected {len(ref['rows'])}"
    columns = header.split(",")
    runs = reference["runs"]
    for row, ref_row in zip(rows, ref["rows"]):
        for column, cell in zip(columns, row):
            if column in ("seed", "stderr"):
                continue
            if column == "n":
                if int(cell) != op["reps"]:
                    return f"n={cell}, expected {op['reps']}"
                continue
            expected = ref_row[column]
            if expected is None or isinstance(expected, str):
                if cell != (expected or ""):
                    return f"{column}={cell!r}, expected {expected!r}"
                continue
            mean, sd = expected
            se = sd * math.sqrt(ref["reps"] / op["reps"] + 1.0 / runs)
            tol = Z_GATE * se + 1e-9 * (1.0 + abs(mean))
            if not abs(float(cell) - mean) <= tol:
                return f"{column}={cell}, reference {mean!r} +- {tol:.3g}"
    return None


def check_result(op: dict, rec: dict, reference: dict) -> str | None:
    """None if the operation succeeded and its output is correct."""
    if "error" in rec:
        return rec["error"].strip().splitlines()[-1]
    if op["kind"] == "cli":
        if rec["result"]["exit_code"] != 0:
            return f"exit code {rec['result']['exit_code']}"
        return check_csv(op, reference)
    res = rec["result"]
    if res["n"] != op["n"] or not res["stderr"] > 0:
        return f"n={res['n']}, stderr={res['stderr']}"
    if not abs(res["mean"]) < Z_GATE * res["stderr"]:
        return f"residual {res['mean']} beyond {Z_GATE} x stderr {res['stderr']}"
    return None


# ---------------------------------------------------------------------------
# running operations


class Deadline(Exception):
    """A child outlived the run's hard stop."""


def run_child(op: dict, work: Path, start: float, spans: Path | None = None) -> dict:
    spec = {"src": str(SRC), "op": op, "spans": str(spans) if spans else None}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=work,
            capture_output=True,
            text=True,
            timeout=max(1.0, HARD_STOP_S + 20.0 - (t_spawn - start)),
        )
    except subprocess.TimeoutExpired as exc:
        raise Deadline(f"{op['name']} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec = {"error": f"exit {proc.returncode}, no result: {proc.stderr.strip()[-500:]}"}
    if proc.returncode != 0 and "error" not in rec:
        rec["error"] = f"exit code {proc.returncode}"
    if "error" not in rec:
        rec["import_s"] = rec["t_imported"] - t_spawn
        rec["construct_s"] = rec["t_built"] - rec["t_imported"]
        rec["setup_s"] = rec["t_built"] - t_spawn
        rec["wall_s"] = rec["t_done"] - rec["t_built"]
    return rec


def run_round(ops, work: Path, start: float, reference: dict, traced: bool) -> list[dict]:
    records = []
    for op in ops:
        spans = work / f"spans-{op['name'].replace('/', '-')}.json" if traced else None
        if op["kind"] == "cli":
            Path(op["csv"]).unlink(missing_ok=True)
        rec = run_child(op, work, start, spans)
        rec["name"] = op["name"]
        rec["failure"] = check_result(op, rec, reference)
        if op["kind"] == "cli" and "error" not in rec and Path(op["csv"]).exists():
            rec["csv_sha256"] = hashlib.sha256(Path(op["csv"]).read_bytes()).hexdigest()
        if traced and rec["failure"] is None:
            with open(spans, encoding="utf-8") as fh:
                rec["trace"] = json.load(fh)
        records.append(rec)
    return records


def _output(rec: dict):
    return rec.get("csv_sha256") or rec.get("result")


def check_reruns(rounds: list[list[dict]]) -> None:
    """Every round, traced or not, must reproduce the first round's outputs."""
    if not rounds:
        return
    first = rounds[0]
    for records in rounds[1:]:
        for rec, ref in zip(records, first):
            if rec["failure"] is None and _output(rec) != _output(ref):
                rec["failure"] = "output differs from the first untraced round"


# ---------------------------------------------------------------------------
# metrics


def _median(values) -> float:
    return float(statistics.median(values))


def _sum_of_medians(rounds, key) -> float:
    """Each operation's median over rounds, summed over the operations.

    A burst of load on the machine slows one operation of one round; a
    per-operation median drops it, where a median of round totals may not.
    """
    return sum(_median(r[i][key] for r in rounds) for i in range(len(rounds[0])))


def end_to_end(ops, rounds) -> dict:
    wall = _sum_of_medians(rounds, "wall_s")
    return {
        "setup_s": _sum_of_medians(rounds, "setup_s"),
        "wall_s": wall,
        "replicates_per_s": sum(op["replicates"] for op in ops) / wall,
        "peak_rss_mb": max(rec.get("max_rss_mb", 0.0) for r in rounds for rec in r),
    }


def per_layer(untraced, traced) -> dict:
    per_round = []
    for records in traced:
        self_time, counts = collections.Counter(), collections.Counter()
        for rec in records:
            op_self_time, op_counts = tracing.op_summary(rec["trace"])
            self_time.update(op_self_time)
            counts.update(op_counts)
        per_round.append(tracing.layer_metrics(self_time, counts))
    out = {name: _median(r[name] for r in per_round) for name in per_round[0]}
    wall = _sum_of_medians(untraced, "wall_s")
    out["setup.import_s"] = _sum_of_medians(untraced, "import_s")
    out["setup.construct_s"] = _sum_of_medians(untraced, "construct_s")
    out["proc.cpu_s"] = _sum_of_medians(untraced, "cpu_s")
    out["proc.cpu_util"] = out["proc.cpu_s"] / wall
    out["trace.overhead_s"] = _sum_of_medians(traced, "wall_s") - wall
    return out


def environment(probe: dict) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "scipy": probe.get("scipy"),
        "blas_threads": probe.get("blas_threads"),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "llc": None,
    }
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = int((index / "level").read_text())
            if level >= env.get("llc_level", 0):
                env["llc_level"] = level
                env["llc"] = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return env


# ---------------------------------------------------------------------------
# entry point


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    start = time.monotonic()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        ops = workload_ops(name, seed, work, scale)
        reference = load_reference()
        warmup = run_child({"name": "warmup", "kind": "warmup"}, work, start)
        if "error" in warmup:
            raise RuntimeError(f"warm-up child failed: {warmup['error']}")
        env = environment(warmup["result"])
        untraced, traced, aborted = [], [], None
        try:
            while True:
                untraced.append(run_round(ops, work, start, reference, traced=False))
                if trace:
                    traced.append(run_round(ops, work, start, reference, traced=True))
                elapsed = time.monotonic() - start
                per_round = elapsed / len(untraced)
                if len(untraced) >= (1 if trace else MIN_ROUNDS) and (
                    elapsed >= seconds or elapsed + per_round > HARD_STOP_S
                ):
                    break
        except Deadline as exc:
            aborted = str(exc)
        if trace and traced and "trace" in traced[0][0]:
            spans = [rec["trace"] for rec in traced[0] if "trace" in rec]
            (WORK / f"trace-{name}.json").write_text(json.dumps(spans), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_reruns(untraced + traced)
    records = [rec for r in untraced + traced for rec in r]
    failed = sum(rec["failure"] is not None for rec in records) + (aborted is not None)
    attempted = len(records) + (aborted is not None)
    complete_untraced = [r for r in untraced if all(rec["failure"] is None for rec in r)]
    complete_traced = [r for r in traced if all(rec["failure"] is None for rec in r)]
    metrics = {}
    if complete_untraced and (not trace or complete_traced):
        metrics = per_layer(complete_untraced, complete_traced) if trace else end_to_end(
            ops, complete_untraced
        )
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "environment": env,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "error_rate": failed / attempted,
        "aborted": aborted,
        "operations": [
            {
                key: rec.get(key)
                for key in ("name", "failure", "setup_s", "wall_s", "max_rss_mb", "csv_sha256",
                            "result")
            }
            for rec in (untraced[0] if untraced else [])
        ],
        "failures": sorted({f"{rec['name']}: {rec['failure']}" for rec in records
                            if rec["failure"] is not None}),
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def result_line(run: dict) -> str:
    units = PER_LAYER if run["trace"] else END_TO_END
    return json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": run["metrics"][name], "unit": unit}
            for name, unit in units.items()
            if name in run["metrics"]
        },
    })


def print_report(seed: int, seconds: float, scale: float) -> bool:
    """Every workload, untraced then traced, as readable tables."""
    ok = True
    for name, why in WORKLOADS.items():
        print(f"\n== {name}: {why}")
        for trace in (False, True):
            run = run_workload(name, seed, seconds, trace, scale)
            ok = ok and run["correct"]
            units = PER_LAYER if trace else END_TO_END
            print(f"-- {'per-layer (traced run)' if trace else 'end to end'}; "
                  f"rounds {run['rounds']}, correct {run['correct']}, "
                  f"attempted {run['attempted']}, failed {run['failed']}")
            for failure in run["failures"]:
                print(f"   FAILED {failure}")
            for metric, unit in units.items():
                value = run["metrics"].get(metric)
                if value is not None:
                    print(f"   {metric:34s} {value:14.6g} {unit}")
            if not trace:
                print(f"   {'error_rate':34s} {run['error_rate']:14.6g} fraction")
                print(f"   environment {json.dumps(run['environment'])}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every replicate count (the smoke test uses a small one)")
    args = parser.parse_args(argv)
    if not (SRC / "steinshrink" / "__init__.py").is_file():
        print(f"error: no steinshrink source under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return 0 if print_report(args.seed, args.seconds, args.scale) else 1
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps({k: v for k, v in run.items() if k != "metrics"}))
    print(result_line(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
