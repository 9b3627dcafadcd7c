#!/usr/bin/env python3
"""Record the reference values that the benchmark's output check compares against.

    python3 bench/reference.py

Runs every CLI operation of every workload in this process, once for each of
the workload seeds 1000001 ... 1000000 + RUNS, at the benchmark's replicate
counts.  For each CSV cell it writes to bench/reference.json the text (text
cells, which must not vary), null (cells left blank) or the mean and the
standard deviation across the runs (numeric cells).  The identity residuals
need no reference: their expected value is 0.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
from pathlib import Path

import run

RUNS = 40  # independent runs per operation
SKIPPED = ("seed", "stderr", "n")  # seed varies by design; n is checked exactly


def summarize(header: str, runs_rows: list[list[list[str]]]) -> list[dict]:
    columns = header.split(",")
    out = []
    for r in range(len(runs_rows[0])):
        cells = {}
        for c, column in enumerate(columns):
            if column in SKIPPED:
                continue
            values = [rows[r][c] for rows in runs_rows]
            if all(v == "" for v in values):
                cells[column] = None
                continue
            try:
                numbers = [float(v) for v in values]
            except ValueError:
                if len(set(values)) != 1:
                    raise SystemExit(f"text cell {column} varies across runs: {set(values)}")
                cells[column] = values[0]
                continue
            cells[column] = [statistics.fmean(numbers), statistics.stdev(numbers)]
        out.append(cells)
    return out


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from steinshrink import cli

    samples, meta = {}, {}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for k in range(RUNS):
            for workload in run.WORKLOADS:
                for op in run.workload_ops(workload, 1_000_001 + k, Path(tmp)):
                    if op["kind"] != "cli":
                        continue
                    code = cli.main(op["argv"])
                    if code != 0:
                        raise SystemExit(f"{op['name']} exited with {code}")
                    header, rows = run.read_csv(op["csv"])
                    samples.setdefault(op["name"], []).append(rows)
                    meta[op["name"]] = (op["reps"], header)
            print(f"run {k + 1}/{RUNS} done", file=sys.stderr)
    reference = {
        "runs": RUNS,
        "operations": {
            name: {"reps": meta[name][0], "rows": summarize(meta[name][1], rows)}
            for name, rows in samples.items()
        },
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
