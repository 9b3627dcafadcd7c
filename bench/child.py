"""Run one benchmark operation in a fresh interpreter.

    python bench/child.py '<json spec>'

The spec names the source directory, the operation and, for a traced run,
where to write the spans.  The child imports steinshrink, builds the
operation's inputs, runs it and prints one JSON line: time stamps on the
system-wide monotonic clock (so the parent can add interpreter start-up),
CPU time and peak RSS of this process, and the operation's result.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback


def _report(rep) -> dict:
    return {"mean": rep.mean, "stderr": rep.stderr, "n": rep.n}


def build(op: dict, ss):
    """The operation as a zero-argument callable returning a JSON-able result."""
    kind = op["kind"]
    if kind == "warmup":
        return lambda: _environment()
    if kind == "cli":
        from steinshrink import cli

        return lambda: {"exit_code": cli.main(list(op["argv"]))}
    if kind != "identity":
        raise ValueError(f"unknown operation kind {kind!r}")

    import numpy as np

    d, n, seed = op["d"], op["n"], op["seed"]
    if op["model"] == "student":
        model = ss.StudentT(d, op["k"], op["theta"])
    else:
        model = ss.ProductIID(d, ss.Laplace1D(1.0 / math.sqrt(2.0)), op["theta"])
    if op["test_fn"] == "g0":
        fn = ss.shrink_direction()
    else:
        fn = ss.linear_map(np.random.default_rng(op["matrix_seed"]).normal(size=(d, d)))
    if op["residual"] == "stein":
        if op["model"] == "student":
            kernel = ss.student_kernel(op["k"], d)
        else:
            kernel = ss.product_kernel([model.law] * d)
        return lambda: _report(ss.stein_identity_residual(model, kernel, fn, n, seed))
    coupling = ss.coupling_for(model)
    return lambda: _report(ss.zb_identity_residual(model, coupling, fn, n, seed))


def _environment() -> dict:
    import numpy as np
    import scipy

    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas_threads": _blas_threads()}


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    spec = json.loads(sys.argv[1])
    op = spec["op"]
    out = {}
    try:
        sys.path.insert(0, spec["src"])
        import steinshrink

        out["t_imported"] = time.monotonic()
        tracer = None
        if spec.get("spans"):
            import tracing

            tracer = tracing.Tracer()
            tracing.instrument(tracer)
        call = build(op, steinshrink)
        out["t_built"] = time.monotonic()
        cpu0 = time.process_time()
        out["result"] = call()
        out["cpu_s"] = time.process_time() - cpu0
        out["t_done"] = time.monotonic()
        if tracer is not None:
            tracer.dump(spec["spans"], op["name"])
    except Exception:  # reported to the parent, which counts the failure
        out["error"] = traceback.format_exc()
    out["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main())
