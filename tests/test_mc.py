import tracemalloc

import numpy as np
import pytest

from steinshrink import (
    GaussianIso,
    GuardAbort,
    Identity,
    JamesStein,
    Laplace1D,
    ProductIID,
    StudentT,
    bound_b_star,
    coordinate_sum_residual,
    coupling_for,
    mc_excess_risk,
    mc_risk,
    sure_bias,
)
from steinshrink._mc import Accumulator, chunk_plan, chunk_rows, run, substream
from steinshrink.cli import _SEED_BSTAR, _fmt, main


def test_accumulator_matches_numpy(rng):
    data = rng.standard_t(5, size=40001) * 2.0 + 1.0
    acc = Accumulator()
    for part in np.array_split(data, 17):
        acc.add(part)
    assert np.isclose(acc.mean, data.mean())
    assert np.isclose(acc.variance, data.var(ddof=1))
    centered = data - data.mean()
    assert np.isclose(acc.m4 / acc.n, np.mean(centered**4), rtol=1e-10)


def test_accumulator_merge_order_invariance(rng):
    data = rng.normal(size=9000)
    one = Accumulator()
    one.add(data)
    a, b, c = Accumulator(), Accumulator(), Accumulator()
    a.add(data[:100])
    b.add(data[100:4000])
    c.add(data[4000:])
    a.merge(b)
    a.merge(c)
    assert np.isclose(a.mean, one.mean)
    assert np.isclose(a.m2, one.m2)
    assert np.isclose(a.m4, one.m4)


def test_chunk_plan_partitions():
    rows = chunk_rows(5)
    plan = list(chunk_plan(2 * rows + 7, 5))
    assert [r for _, r in plan] == [rows, rows, 7]
    assert [i for i, _ in plan] == [0, 1, 2]


def test_substream_deterministic():
    a = substream(42, 3).standard_normal(5)
    b = substream(42, 3).standard_normal(5)
    c = substream(42, 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_independent_of_chunk_boundaries():
    model = GaussianIso(3, 1.0)
    full = model.sample(1000, 7)
    again = model.sample(1000, 7)
    assert np.array_equal(full, again)


def test_stderr_scales_with_replicates():
    # quadrupling n should halve the standard error within 25%
    model = GaussianIso(4, 1.0)
    small = mc_risk(model, Identity(), 20000, 5)
    large = mc_risk(model, Identity(), 80000, 5)
    ratio = small.stderr / large.stderr
    assert 1.5 < ratio < 2.5


# -- the streaming engine -----------------------------------------------------------


def _fields(acc):
    return (acc.n, acc.mean, acc.m2, acc.m3, acc.m4)


def test_run_fused_stats_equal_separate_runs():
    model = StudentT(5, 6, "scaled:1")
    n, seed = 2 * chunk_rows(5) + 321, 17  # three chunks, the last one short

    def norm2(X):
        return np.einsum("ij,ij->i", X, X)

    def first(X):
        return X[:, 0] ** 3

    fused = run(model.iter_chunks(n, seed), {"norm2": norm2, "first": first})
    for name, stat in (("norm2", norm2), ("first", first)):
        alone = run(model.iter_chunks(n, seed), {name: stat})[name]
        assert _fields(fused[name]) == _fields(alone)
        assert fused[name].n == n


def test_mc_risk_holds_one_chunk():
    # the draw is shifted in place, James-Stein reads its loss off row sums,
    # and neither the engine nor the sampler keeps a chunk while the next is
    # drawn: the peak stays one chunk plus per-row vectors
    d = 1600
    rows = chunk_rows(d)
    model = ProductIID(d, Laplace1D(1.0 / np.sqrt(2.0 * d)))
    tracemalloc.start()
    try:
        mc_risk(model, JamesStein((d - 2) / d), 3 * rows + 7, 19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * rows * d * 8


def test_coordinate_sum_residual_holds_one_joint_chunk():
    # a joint chunk is X and the replacement array R; the pass itself adds
    # a few per-row vectors, so the peak stays well under two chunks' worth
    d = 400
    rows = chunk_rows(4 * d)
    coupling = coupling_for(ProductIID(d, Laplace1D(1.0)))
    tracemalloc.start()
    try:
        coordinate_sum_residual(coupling, np.sin, np.cos, 3 * rows + 7, 23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (2 * rows * d * 8)


@pytest.mark.parametrize("estimate", ["risk", "excess"])
def test_singularity_guard_aborts(estimate):
    # every draw sits at the origin, the James-Stein singularity
    model = GaussianIso(4, 0.0)
    with pytest.raises(GuardAbort) as info:
        if estimate == "risk":
            mc_risk(model, JamesStein(2.0), 1000, 3)
        else:
            mc_excess_risk(model, 2.0, 1000, 3)
    assert info.value.diagnostics["singular"] == 1000


def test_fused_sure_csv_matches_separate_passes(tmp_path):
    args = ["sure", "--model", "student", "--d", "6", "--k", "6", "--lambda", "4",
            "--reps", "30000", "--seed", "8"]
    out = tmp_path / "sure.csv"
    assert main(args + ["--out", str(out)]) == 0
    fused = out.read_bytes()

    model, est = StudentT(6, 6), JamesStein(4.0)
    bias = sure_bias(model, est, 30000, 8)
    risk = mc_risk(model, est, 30000, 8)
    bound = 2.0 * bound_b_star(coupling_for(model), 4.0, 30000, 8 + _SEED_BSTAR).mean
    row = [model.family, est.kind, 4.0, risk.mean + bias.mean, risk.mean, bias.mean, bound]
    lines = fused.decode().splitlines()
    expected = "\n".join(lines[:-1] + [",".join(_fmt(v) for v in row)]) + "\n"
    assert fused == expected.encode()
