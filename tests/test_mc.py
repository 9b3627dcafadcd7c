import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from steinshrink import (
    AdditiveCorruption,
    BallUniform,
    BoundInputs,
    DiscrepancyStats,
    Elliptical,
    FourPointDegenerate,
    Gaussian1D,
    GaussianIso,
    GuardAbort,
    Identity,
    JamesStein,
    Laplace1D,
    LinearTransform,
    MixingCorruption,
    Mixture,
    ParameterError,
    ProductIID,
    SoftThreshold,
    SphereUniform,
    StudentT,
    Uniform1D,
    average_kernel,
    bound_b_star,
    bound_thm31,
    bound_thm33,
    coordinate_quadratic,
    coordinate_sum_residual,
    couple_gaussian,
    couple_independent,
    couple_student,
    coupling_for,
    discrepancy_stats,
    gaussian_kernel,
    linear_map,
    mc_excess_risk,
    mc_inverse_moment,
    mc_risk,
    mixture_kernel,
    shrink_direction,
    student_constants,
    student_kernel,
    sure_bias,
    sure_zero_bias_mean,
    transform_kernel,
    zb_construct,
    zb_mixture,
    zb_sum,
)
from steinshrink import _mc, cli, estimation, laws1d, risk_lab, stein_kernels, zero_bias
from steinshrink._mc import Accumulator, chunk_plan, chunk_rows, run, substream
from steinshrink.cli import (
    _fmt,
    build_model,
    main,
    model_kernel,
    parse_args,
    resolve_config,
)
from steinshrink.risk_lab import b_star_values, guarded_pass, inverse_moment, sure_pass
from steinshrink.zero_bias import ScaledCoupling, identity_residual
from oracles import full_matrix


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


def test_stderr_bytes_do_not_depend_on_blas_threads(tmp_path):
    # one chunk of 60000 rows: a BLAS dot over it is split across the BLAS
    # threads, which moved the last digit of this run's stderr
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.csv"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=threads)
        code = "import sys; from steinshrink.cli import main; sys.exit(main(sys.argv[1:]))"
        args = ["risk", "--model", "gaussian", "--d", "10", "--reps", "60000", "--seed", "2"]
        subprocess.run([sys.executable, "-c", code, *args, "--out", str(out)], env=env, check=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


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


def _whole(chunks, values):
    """The accumulators of `values` evaluated on each whole chunk, one
    update per chunk: what a pass over those chunks must give."""
    accs = {}
    for chunk in chunks:
        for name, rows in values(chunk).items():
            accs.setdefault(name, Accumulator()).add(rows)
    return accs


def _chunks_of(model, n, seed):
    """The model's n draws cut into the chunks of `chunk_plan`."""
    X = model.sample(n, seed)
    cuts = np.cumsum([rows for _, rows in chunk_plan(n, model.d)])[:-1]
    return np.split(X, cuts)


def test_run_fused_stats_equal_separate_runs():
    model = StudentT(5, 6, "scaled:1")
    n, seed = 2 * chunk_rows(5) + 321, 17  # three chunks, the last one short

    def norm2(X):
        return np.einsum("ij,ij->i", X, X)

    def first(X):
        return X[:, 0] ** 3

    fused = run(n, seed, 5, model.draw, lambda X: {"norm2": norm2(X), "first": first(X)})
    for name, stat in (("norm2", norm2), ("first", first)):
        alone = run(n, seed, 5, model.draw, lambda X: {name: stat(X)})[name]
        assert _fields(fused[name]) == _fields(alone)
        assert fused[name].n == n


def test_mc_risk_holds_a_draw_task_per_thread():
    # the pass draws and scores each draw task in a buffer its thread reuses,
    # so no chunk (67 MB at d = 1600) is made: the peak stays a few tasks
    # of 2 MB and per-row vectors
    d = 1600
    model = ProductIID(d, Laplace1D(1.0 / np.sqrt(2.0 * d)))
    tracemalloc.start()
    try:
        mc_risk(model, JamesStein((d - 2) / d), 20000, 19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
    # the risk and the bias from their own passes, and B* from a pass over the
    # coupling's joint chunks on the command's seed and the model's chunks:
    # the fused pass gives the same bytes
    args = ["sure", "--model", "student", "--d", "6", "--k", "6", "--lambda", "4",
            "--reps", "30000", "--seed", "8"]
    out = tmp_path / "sure.csv"
    assert main(args + ["--out", str(out)]) == 0
    fused = out.read_bytes()

    model, est = StudentT(6, 6), JamesStein(4.0)
    bias = sure_bias(model, est, 30000, 8)
    risk = mc_risk(model, est, 30000, 8)
    coupling = coupling_for(model)
    b_star = run(30000, 8, 6, coupling._centered, b_star_values(coupling))["b_star"]
    bound = 2.0 * (4.0 * abs(b_star.mean))
    row = [model.family, est.kind, 4.0, risk.mean + bias.mean, risk.mean, bias.mean, bound]
    lines = fused.decode().splitlines()
    expected = "\n".join(lines[:-1] + [",".join(_fmt(v) for v in row)]) + "\n"
    assert fused == expected.encode()


def _risk_csv(tmp_path, name, args):
    out = tmp_path / f"{name}.csv"
    assert main(args + ["--out", str(out)]) == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def _task_keys(seed, n, chunk_dim, d):
    """(seed, chunk, task) of every draw task of a stream, in order."""
    return [(seed, i, k) for i, rows in chunk_plan(n, chunk_dim)
            for k in range(len(_mc._draw_cuts(rows, d)) - 1)]


@pytest.mark.parametrize("model", ["laplace", "gaussian", "student", "corrupt-mix"])
def test_risk_bounds_draw_the_model_stream_once(tmp_path, monkeypatch, model):
    # every draw task of every chunk of X is drawn exactly once, on the
    # command's seed, and no other stream is drawn: B*'s companions are drawn
    # in the task that draws their X (the Gaussian's draw nothing: every
    # companion is X).  `sure` draws the same stream
    d, n, seed = 12, 170, 5
    monkeypatch.setattr(_mc, "_CHUNK_BUDGET", 50 * d)  # 50 rows of X per chunk
    monkeypatch.setattr(_mc, "_DRAW_TASK", 4 * d)  # 12 tasks per chunk of X
    calls = []

    def counted(stream, index, task=0):
        calls.append((stream, index, task))
        return substream(stream, index, task)

    monkeypatch.setattr(_mc, "substream", counted)
    model_stream = _task_keys(seed, n, d, d)
    assert len(model_stream) == 3 * 12 + 5 and len(set(model_stream)) == len(model_stream)
    for command, column in ((["risk", "--bounds"], "bound_zb"), (["sure"], "bias_bound")):
        calls.clear()
        cells = _risk_csv(tmp_path, model, command + ["--model", model, "--d", str(d), "--lambda",
                                                      "10", "--reps", str(n), "--seed", str(seed)])
        assert cells[column]
        assert command == ["sure"] or model == "corrupt-mix" or cells["bound_thm33"]
        assert sorted(calls) == model_stream


@pytest.mark.parametrize("outlier", ["student", "laplace", "gaussian"])
def test_couplings_draw_the_models_x_bit_for_bit(outlier):
    # for every CLI model whose `risk --bounds` prints bound_zb, the coupling's
    # X is the model's draw on the same substream, so one pass serves both
    names = ["laplace", "uniform", "smoothed-rademacher", "gaussian", "student", "corrupt-mix"]
    for name in names + ["sphere"]:
        cfg = dict(cli._MODEL, model=name, d=9, theta="scaled:6" if name == "sphere" else "scaled:1",
                   outlier=outlier)
        model = build_model(cfg)
        coupling, why = cli._zb_coupling(model, "james_stein")
        assert why is None, (name, why)
        assert coupling.base is model and coupling.draws_base, name
        for index, task, rows in ((0, 0, 1), (0, 3, 37), (2, 1, 400)):
            want = model.draw(substream(7, index, task), rows, np.empty)
            got = coupling._centered(substream(7, index, task), rows, np.empty).X
            assert _same_bits(got, want), (name, index, task)


def test_a_pass_refuses_a_coupling_that_does_not_draw_the_models_x(monkeypatch):
    # risk, SURE and B* are scored on the coupling's X, so a coupling of
    # another model, or one that draws X by other calls than its base's
    # (scaled, summed, an averaged mixture), would score the wrong draws
    d = 6
    laplace = ProductIID(d, Laplace1D(1.0))
    gauss, wide = GaussianIso(d, 1.0), GaussianIso(d, 2.0)
    mixed = Mixture([gauss, wide], [0.4, 0.6])
    corrupt = MixingCorruption(0.2, ProductIID(d, Laplace1D(1.0 / np.sqrt(2.0))))
    shared = coupling_for(corrupt)
    wrong = [
        (laplace, coupling_for(ProductIID(d, Laplace1D(1.0)))),  # an equal model, not this one
        (laplace, ScaledCoupling(coupling_for(laplace), 2.0)),  # its base is the unscaled model
        (gauss, zb_sum(gauss, [couple_gaussian(gauss)])),
        (mixed, zb_mixture(mixed, [couple_gaussian(gauss), couple_gaussian(wide)], [0.4, 0.6])),
        (corrupt, zb_mixture(corrupt, shared.components, [0.5, 0.5])),  # not its weights
    ]
    drawn = []
    monkeypatch.setattr(risk_lab, "run", lambda *args, **kw: drawn.append(args))
    for model, coupling in wrong:
        assert not (coupling.base is model and coupling.draws_base)
        with pytest.raises(ParameterError, match="model's X"):
            guarded_pass(model, 50, 1, lambda X, sq: {}, coupling=coupling)
        with pytest.raises(ParameterError, match="model's X"):
            sure_pass(model, JamesStein(4.0), 50, 1, coupling)
    assert not drawn
    assert shared.draws_base and coupling_for(laplace).draws_base


def test_bound_b_star_checks_lambda_before_it_draws(monkeypatch):
    drawn = []
    monkeypatch.setattr(risk_lab, "run", lambda *args, **kw: drawn.append(args))
    with pytest.raises(ParameterError, match="lambda"):
        bound_b_star(coupling_for(ProductIID(4, Laplace1D(1.0))), -1.0, 100, 1)
    assert not drawn


@pytest.mark.parametrize(
    "family, d, lam, excess",
    [
        ("laplace", 8, 6.0, False),
        ("gaussian", 8, 6.0, False),
        ("student", 6, 4.0, False),  # closed-form E d^2 ||X||^-4
        ("student", 7, 5.0, False),  # Monte Carlo E d^2 ||X||^-4
        ("laplace", 8, 6.0, True),
    ],
)
def test_risk_bounds_csv_matches_one_run_by_hand(tmp_path, monkeypatch, family, d, lam, excess):
    monkeypatch.setattr(_mc, "_CHUNK_BUDGET", 1000 * d)  # several chunks
    n, seed = 3001, 9
    args = ["risk", "--model", family, "--d", str(d), "--theta", "scaled:1",
            "--lambda", repr(lam), "--reps", str(n), "--seed", str(seed)]
    args += ["--k", "6"] if family == "student" else []  # no other model reads --k
    args += ["--excess"] if excess else []
    plain = _risk_csv(tmp_path, "plain", args)
    bounded = _risk_csv(tmp_path, "bounded", args + ["--bounds"])
    assert (bounded["mean"], bounded["stderr"]) == (plain["mean"], plain["stderr"])

    model = build_model(resolve_config(parse_args(args)))
    kernel, coupling = model_kernel(model), coupling_for(model)
    theta, sigma = model.theta, full_matrix(kernel.sigma)

    def g0_partials(Y):
        """sum_i sigma_ii d_i g0_i(Y) rowwise, with d_i g0_i(y) = 1/||y||^2 - 2 y_i^2/||y||^4."""
        sq = np.einsum("ij,ij->i", Y, Y)
        return ((1.0 / sq[:, None] - 2.0 * Y**2 / sq[:, None] ** 2) * coupling.sigma.diagonal()).sum(1)

    def by_hand(chunk):
        X = chunk.X
        sq = np.einsum("ij,ij->i", X, X)
        T = kernel.matrices(X - theta)
        (term,) = chunk.terms
        if isinstance(term, zero_bias.Replaced):  # X^i: X with x_i := R_i
            companions = np.zeros(len(X))
            for i in range(d):
                Xi = X.copy()
                Xi[:, i] = term.R[:, i]
                sq_i = np.einsum("ij,ij->i", Xi, Xi)
                companions += coupling.sigma.diagonal()[i] * (1.0 / sq_i - 2.0 * Xi[:, i] ** 2 / sq_i**2)
        else:  # every X^ij is the shared point
            companions = g0_partials(term.P)
        return {
            "e_inv2": 1.0 / sq,
            "e_d2_inv4": (d / sq) ** 2,
            "trace": np.trace(T, axis1=1, axis2=2),
            "frob": ((T - sigma) ** 2).sum(axis=(1, 2)),
            "b_star": companions - g0_partials(X),
        }

    # one run over the coupling's joint chunks on the command's seed
    accs = run(n, seed, d, coupling._centered, by_hand)
    mom = model.moments()
    e_inv2 = accs["e_inv2"].mean
    disc = DiscrepancyStats(accs["trace"].mean, 0.0, accs["trace"].variance, 0.0,
                            accs["frob"].mean, 0.0, n, seed)
    e_d2_inv4 = accs["e_d2_inv4"].mean
    if family == "student" and d == 6:
        e_d2_inv4 = student_constants(d, 6, lam)["e_d2_inv4_bound"]
    inputs = BoundInputs(lam=lam, d=d, trace_sigma=mom.trace_cov, kappa=mom.kappa,
                         e_inv2=e_inv2, e_d2_inv4=e_d2_inv4, discrepancy=disc)
    bstar = lam * abs(accs["b_star"].mean)
    if family == "gaussian":  # every companion is X: each difference is 0
        assert accs["b_star"].m2 == 0.0 and bstar < 1e-12
    middle = lam * e_inv2 * (lam - 2.0 * (mom.trace_cov - 2.0 * mom.kappa))
    expected = {"bound_thm33": bound_thm33(inputs),
                "bound_zb": mom.trace_cov + middle + 2.0 * bstar}
    if family == "gaussian":
        inputs.alpha_minus = inputs.alpha_plus = 1.0
        expected["bound_thm31"] = bound_thm31(inputs)
    shift = mom.trace_cov if excess else 0.0
    for column in ("bound_thm31", "bound_thm33", "bound_zb"):
        if column in expected:
            assert float(bounded[column]) == pytest.approx(expected[column] - shift, rel=1e-10)
        else:
            assert bounded[column] == ""


def _force_tasks(monkeypatch, threads, task=20 * 7):
    """Draw every chunk in tasks of about `task` doubles on `threads` threads,
    with inversion sub-blocks of a few rows, so small draws take many tasks."""
    monkeypatch.setattr(_mc, "_usable_cores", lambda: threads)
    monkeypatch.setattr(_mc, "_DRAW_TASK", task)
    monkeypatch.setattr(laws1d, "_SUB_BLOCK", 20)


def _task_streams(monkeypatch):
    """The generators `_mc.draw_tasks` hands out, by (seed, chunk, task)."""
    made = {}

    def recorded(seed, index, task=0):
        made[(seed, index, task)] = g = substream(seed, index, task)
        return g

    monkeypatch.setattr(_mc, "substream", recorded)
    return made


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _laplace_inverse_cdf(u, b):
    # numpy's C random_laplace on the uniforms u, in one piece
    return np.copysign(b * np.log(np.minimum(u + u, (2.0 - u) - u)), u - 0.5)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "law, serial",
    [
        (Laplace1D(0.7), lambda g, size: _laplace_inverse_cdf(g.random(size), 0.7)),
        (Uniform1D(1.3), lambda g, size: g.uniform(-1.3, 1.3, size)),
        (Gaussian1D(0.7), lambda g, size: g.normal(0.0, 0.7, size)),
    ],
    ids=["laplace", "uniform", "gaussian"],
)
def test_split_draws_keep_bytes_and_end_state(monkeypatch, law, serial, workers):
    # a chunk drawn in 14 tasks on 1, 2 or 3 threads holds, in row order,
    # each task's serial draw from its own substream plus theta, and each
    # task's generator ends where that serial draw leaves it
    _force_tasks(monkeypatch, workers, task=7 * 7)
    made = _task_streams(monkeypatch)
    model = ProductIID(7, law, "scaled:2")
    X = model.sample(101, 5)
    cuts = _mc._draw_cuts(101, 7)
    assert len(cuts) == 15 and sorted(made) == [(5, 0, k) for k in range(14)]
    for k in range(14):
        ref = substream(5, 0, k)
        expected = serial(ref, (cuts[k + 1] - cuts[k], 7))
        expected += model.theta
        assert _same_bits(X[cuts[k] : cuts[k + 1]], expected)
        assert made[(5, 0, k)].bit_generator.state == ref.bit_generator.state


def _centered_rows(g, rows, model):
    """A centered draw of `rows` rows by the family's out-of-place formula,
    each step making a new array."""
    d = model.d
    if isinstance(model, GaussianIso):
        return g.normal(0.0, np.sqrt(model.sigma2), (rows, d))
    if isinstance(model, StudentT):
        scale = g.gamma(model.k / 2.0, 2.0 / model.k, rows)
        return np.sqrt(model.scale2) * g.standard_normal((rows, d)) / np.sqrt(scale)[:, None]
    if isinstance(model, ProductIID):  # of Uniform1D coordinates
        return g.uniform(-model.law.a, model.law.a, (rows, d))
    if isinstance(model, Mixture):
        pick = g.choice(len(model.components), size=rows, p=model.weights)
        out = np.empty((rows, d))
        for s, comp in enumerate(model.components):
            sel = np.flatnonzero(pick == s)
            if sel.size:
                out[sel] = _centered_rows(g, sel.size, comp)
        return out
    if isinstance(model, AdditiveCorruption):
        y0 = g.normal(0.0, np.sqrt(model.sigma2), (rows, d))
        y1 = _centered_rows(g, rows, model.outlier)
        return np.sqrt(1.0 - model.eps) * y0 + np.sqrt(model.eps) * y1
    if isinstance(model, LinearTransform):
        return _centered_rows(g, rows, model.base) @ model.A.T
    if isinstance(model, FourPointDegenerate):
        return model._POINTS[g.integers(0, 4, rows)]
    if isinstance(model, Elliptical):
        grid, cdf = model._radial_inverse_cdf()
        r = np.interp(g.uniform(0.0, 1.0, rows), cdf, grid)
    unit = g.standard_normal((rows, d))
    unit = unit / np.linalg.norm(unit, axis=1, keepdims=True)
    if isinstance(model, SphereUniform):
        return model.radius * unit
    if isinstance(model, BallUniform):
        return model.radius * g.uniform(0.0, 1.0, rows)[:, None] ** (1.0 / d) * unit
    return (r[:, None] * unit) @ model._chol.T


_MIXING = np.eye(7) + np.diag([0.5] * 6, 1)
_DISPERSION = _MIXING @ _MIXING.T


_FAMILIES = [
    GaussianIso(7, 1.3, "scaled:1"),
    StudentT(7, 6, "scaled:1"),
    SphereUniform(7, 1.2, "scaled:1"),
    BallUniform(7, 0.9, "scaled:1"),
    Elliptical(7, lambda t: np.exp(-t), _DISPERSION, "scaled:1", second_moment=7.0),
    MixingCorruption(0.3, StudentT(7, 6), "scaled:1"),
    AdditiveCorruption(0.2, StudentT(7, 6), "scaled:1"),
    LinearTransform(_MIXING, GaussianIso(7, 0.8), "scaled:1"),
    FourPointDegenerate("scaled:1"),
    ProductIID(7, Uniform1D(1.3), "scaled:1"),
]
_FAMILY_IDS = ["gaussian", "student", "sphere", "ball", "elliptical", "mixture", "corrupt-add",
               "linear", "four-point", "product"]


@pytest.mark.parametrize("model", _FAMILIES, ids=_FAMILY_IDS)
def test_gaussian_and_student_chunks_are_drawn_in_tasks(monkeypatch, model):
    # every family is drawn in tasks: each task's rows are the out-of-place
    # formula on the task's own substream, plus theta, on 1 and 3 threads
    # alike; a chunk's first task draws from the chunk's own substream
    n, seed = 250, 6
    for threads in (1, 3):
        _force_tasks(monkeypatch, threads)
        assert len(list(chunk_plan(n, model.d))) == 1
        X = model.sample(n, seed)
        cuts = _mc._draw_cuts(n, model.d)
        assert len(cuts) == n * model.d // (20 * 7) + 1
        for k in range(len(cuts) - 1):
            rows = cuts[k + 1] - cuts[k]
            want = _centered_rows(substream(seed, 0, k), rows, model) + model.theta
            assert _same_bits(X[cuts[k] : cuts[k + 1]], want), (threads, k)


def _library_stream(name, n, seed):
    """The arrays drawn for a dense kernel's identity chunks or by the
    square-bias construction, at d = 5."""
    d, k = 5, 6
    student = StudentT(d, k, "scaled:1")
    if name in ("average-kernel", "mixture-kernel"):
        if name == "average-kernel":
            model, kernel = student, average_kernel([student_kernel(k, d)] * 3)
        else:
            model = MixingCorruption(0.3, StudentT(d, k), "scaled:1")
            gauss = GaussianIso(d, student.sigma2)
            kernel = mixture_kernel([(gauss, gaussian_kernel(gauss.cov())),
                                     (StudentT(d, k), student_kernel(k, d))], [0.7, 0.3])
        chunks = _mc.draw_parts(n, seed, d, kernel.stream(model))
        return [a for c in chunks for a in (c.X, *(term.W.mats for term in c.terms))]
    if name == "construct-product":
        return [zb_construct(ProductIID(d, Uniform1D(1.3), "scaled:1"), 2, n, seed)]
    draws, ess = zb_construct(SphereUniform(d, 1.0, "scaled:1"), 2, n, seed, return_ess=True)
    return [draws, np.float64(ess)]


@pytest.mark.parametrize("name", ["average-kernel", "mixture-kernel", "construct-product",
                                  "construct-sir"])
def test_dense_kernels_and_construction_are_drawn_in_tasks(monkeypatch, name):
    # the mixture and average kernels' chunks and the square-bias
    # construction are drawn in draw tasks of the chunks of (n, d), as every
    # stream: task k of chunk i from substream(seed, i, k) and no other
    # stream, with the same bytes on 1 and 3 threads
    n, seed = 300, 8
    monkeypatch.setattr(_mc, "_CHUNK_BUDGET", 120 * 5)  # 120 rows of d = 5 a chunk
    outputs = []
    for threads in (1, 3):
        _force_tasks(monkeypatch, threads)
        made = _task_streams(monkeypatch)
        arrays = _library_stream(name, n, seed)
        keys = [(seed, i, k) for i, rows in chunk_plan(n, 5)
                for k in range(len(_mc._draw_cuts(rows, 5)) - 1)]
        assert len(list(chunk_plan(n, 5))) == 3 and len(keys) > 3
        assert sorted(made) == keys
        outputs.append(b"".join(a.tobytes() for a in arrays))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("raising_block", ["worker", "caller"])
def test_split_draw_raises_a_blocks_error(monkeypatch, raising_block):
    # an exception in a draw task, on a started thread or on the calling
    # one, reaches the caller of sample, and no draw is returned
    _force_tasks(monkeypatch, 3)
    caller = threading.current_thread()
    model = GaussianIso(7, 1.0)
    real = model.draw

    def draw(rng, rows, empty):
        if (threading.current_thread() is caller) == (raising_block == "caller"):
            raise RuntimeError("draw failed")
        return real(rng, rows, empty)

    monkeypatch.setattr(model, "draw", draw)
    returned = []
    with pytest.raises(RuntimeError, match="draw failed"):
        returned.append(model.sample(101, 7))
    assert returned == []


def test_draw_tasks_raise_the_first_failed_task(monkeypatch):
    # the error a serial loop over the draw tasks would meet first is raised
    _force_tasks(monkeypatch, 3, task=2)

    def draw(rng, a, b):  # ten tasks of two rows; those from row 4 on fail
        if a >= 4:
            raise ValueError(f"task from row {a}")
        return rng.random()

    for _ in range(20):
        with pytest.raises(ValueError, match="task from row 4$"):
            _mc.draw_tasks(1, 0, 20, 1, draw)


def test_small_draws_stay_on_the_calling_thread():
    # a chunk of fewer than 2 _DRAW_TASK doubles, or of one row, is one task,
    # drawn from the chunk's own substream on the calling thread
    assert _mc._draw_cuts(_mc._DRAW_TASK // 1000 * 2 - 1, 1000) == [0, 523]
    assert _mc._draw_cuts(1, 1 << 22) == [0, 1]
    caller, seen = threading.current_thread(), []

    def draw(rng, a, b):
        seen.append(threading.current_thread())
        return rng.random()

    assert _mc.draw_tasks(4, 2, 523, 1000, draw) == [substream(4, 2).random()]
    assert seen == [caller]


def test_a_thread_is_started_for_every_four_draw_tasks(monkeypatch):
    # a draw of up to 4 tasks stays on the calling thread, and each further
    # thread comes with up to 4 more tasks, up to the usable cores
    import _thread

    starts = []
    real = _thread.start_new_thread
    monkeypatch.setattr(_thread, "start_new_thread", lambda *a: starts.append(1) or real(*a))
    monkeypatch.setattr(_mc, "_usable_cores", lambda: 3)
    monkeypatch.setattr(_mc, "_DRAW_TASK", 1)
    for tasks, threads in ((1, 1), (4, 1), (5, 2), (8, 2), (9, 3), (40, 3)):
        starts.clear()
        assert len(_mc.draw_tasks(1, 0, tasks, 1, lambda rng, a, b: a)) == tasks
        assert len(starts) == threads - 1, tasks


def test_draw_tasks_follow_rows_and_d_only(monkeypatch):
    # the draw layout is fixed by (rows, d) and `_DRAW_TASK`: the core count
    # does not move it
    cuts = _mc._draw_cuts(1 << 16, 128)
    assert len(cuts) == 33 and cuts[0] == 0 and cuts[-1] == 1 << 16
    monkeypatch.setattr(_mc, "_usable_cores", lambda: 1)
    assert _mc._draw_cuts(1 << 16, 128) == cuts
    assert _mc._draw_cuts(100, 1000) == [0, 100]  # a small chunk is one task
    assert _mc._draw_cuts(3, 1 << 20) == [0, 1, 2, 3]  # at least one row per task


def test_split_draw_tasks_go_to_the_free_thread(monkeypatch):
    # 2 threads, 8 tasks.  The worker's first task blocks until the calling
    # thread has drawn every other task, so a fixed half-and-half split could
    # not finish without the timeout; the bytes are those of one thread
    model = ProductIID(7, Uniform1D(1.0))
    _force_tasks(monkeypatch, 1, task=10 * 7)
    serial = model.sample(80, 8)
    monkeypatch.setattr(_mc, "_usable_cores", lambda: 2)
    caller = threading.current_thread()
    released = threading.Event()
    caller_tasks = []
    real = model.draw

    def draw(rng, rows, empty):
        if threading.current_thread() is caller:
            caller_tasks.append(rows)
            if len(caller_tasks) == 7:
                released.set()
        else:
            released.wait(timeout=10)
        return real(rng, rows, empty)

    monkeypatch.setattr(model, "draw", draw)
    X = model.sample(80, 8)
    assert released.is_set() and caller_tasks == [10] * 7
    assert _same_bits(X, serial)


class _ExtremeUniforms:
    """A generator whose `random(out=)` sets every third uniform to 0, the
    least value, and the next one to 1 - 2^-53, the greatest."""

    def __init__(self, g):
        self._g = g
        self.bit_generator = g.bit_generator

    def random(self, out):
        self._g.random(out=out)
        out[::3] = 0.0
        out[1::3] = 1.0 - 2.0**-53


def test_laplace_zero_uniform_takes_one_output_and_stays_finite():
    # numpy redraws a Laplace variate whose uniform is 0; the inversion reads
    # it as the least positive uniform 2^-53, with no log(0) warning, and
    # keeps numpy's value at the greatest uniform
    b, rows, d = 0.7, 4, 6
    rng, ref = _ExtremeUniforms(substream(9, 0)), substream(9, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = Laplace1D(b).sample(rng, (rows, d))
    u = ref.random(rows * d)
    u[::3], u[1::3] = 2.0**-53, 1.0 - 2.0**-53
    assert np.all(np.isfinite(X))
    assert _same_bits(X.reshape(-1), _laplace_inverse_cdf(u, b))
    assert rng.bit_generator.state == ref.bit_generator.state  # one output each


def test_laplace_inversion_tracks_numpy_laplace():
    # the last bits may differ from libm's log, nothing else: same end state,
    # every variate within 4 ulps, and the second and fourth moments of
    # Laplace(b) within 3 standard errors
    b, n = 0.7, 1_000_000
    rng, ref = substream(11, 0), substream(11, 0)
    X = Laplace1D(b).sample(rng, (n // 1000, 1000)).reshape(-1)
    R = ref.laplace(0.0, b, n)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.all(np.abs(X - R) <= 4 * np.spacing(np.abs(R)))
    for k, moment in ((2, 2.0 * b**2), (4, 24.0 * b**4)):
        power = X**k
        assert abs(power.mean() - moment) < 3 * power.std(ddof=1) / np.sqrt(n)


# ---------------------------------------------------------------------------
# per-row statistics in the draw tasks of `_mc.run`


def _statistic_of(monkeypatch, call):
    """The `values` function that `call()` hands to `_mc.run` first."""
    seen = []

    def recording(n, seed, d, draw, values):
        seen.append(values)
        return run(n, seed, d, draw, values)

    for module in (risk_lab, cli):
        monkeypatch.setattr(module, "run", recording)
    call()
    for module in (risk_lab, cli):
        monkeypatch.setattr(module, "run", run)
    return seen[0]


def _drawing_rows_of(monkeypatch, X, part=lambda rows: rows):
    """A draw for `_mc.run(len(X), seed, d, draw, values)` that draws the
    rows of X, one chunk, into the engine's buffers, and makes them a part
    by `part`: each task's substream is its task index."""
    cuts = _mc._draw_cuts(*X.shape)
    monkeypatch.setattr(_mc, "substream", lambda seed, index, task=0: task)

    def draw(task, rows, empty):
        out = empty((rows, X.shape[1]))
        out[...] = X[cuts[task] : cuts[task + 1]]
        return part(out)

    return draw


def _identity_chunk(kernel, theta):
    """The kernel's identity chunk of some rows, made by its stream's draw
    on a model that draws those rows."""
    draw = kernel.stream(SimpleNamespace(theta=theta, draw=lambda rows, _, empty: rows))
    return lambda rows: draw(rows, len(rows), np.empty)


def _assert_rows_keep_bits(monkeypatch, values, X, part=lambda rows: rows):
    # every row's values have the same bits whatever the height of the task
    # that holds the row, and so do the pass's joined tasks on 3 threads;
    # `part` makes a task's part of its rows (a kernel's identity chunk)
    whole = values(part(X))
    for height in (1, 2, 3, 5, 16):
        parts = [values(part(X[a : a + height])) for a in range(0, len(X), height)]
        for name, rows in whole.items():
            assert _same_bits(np.concatenate([part[name] for part in parts]), rows), (name, height)
    _force_tasks(monkeypatch, 3, task=4 * X.shape[1])
    monkeypatch.setattr(_mc, "_DRAW_TASKS_PER_THREAD", 1)
    fused = run(len(X), 0, X.shape[1], _drawing_rows_of(monkeypatch, X, part), values)
    unsplit = _whole([part(X)], values)
    assert list(fused) == list(whole)
    assert all(_fields(fused[name]) == _fields(unsplit[name]) for name in whole)


_ESTIMATORS = [Identity(), JamesStein(0.0), JamesStein(9.0), SoftThreshold(0.7)]
_ESTIMATOR_IDS = ["identity", "js0", "js9", "soft"]
_MODELS = {
    "gaussian": lambda d: GaussianIso(d, 1.3, "scaled:1"),
    "student": lambda d: StudentT(d, 6, "scaled:1"),
    "laplace": lambda d: ProductIID(d, Laplace1D(0.8), "scaled:1"),
}


@pytest.mark.parametrize("excess", [False, True], ids=["risk", "excess"])
@pytest.mark.parametrize("estimator", _ESTIMATORS, ids=_ESTIMATOR_IDS)
def test_risk_rows_keep_their_bits_across_task_heights(monkeypatch, estimator, excess):
    model = _MODELS["laplace"](11)
    estimate = mc_excess_risk if excess else mc_risk
    values = _statistic_of(monkeypatch, lambda: estimate(model, estimator, 50, 3))
    X = model.sample(37, 4)
    X[5] = 0.0  # a row at the shrinkage singularity
    _assert_rows_keep_bits(monkeypatch, values, X)


@pytest.mark.parametrize("estimator", _ESTIMATORS, ids=_ESTIMATOR_IDS)
@pytest.mark.parametrize("family", list(_MODELS))
def test_sure_rows_keep_their_bits_across_task_heights(monkeypatch, family, estimator):
    model = _MODELS[family](12)
    values = _statistic_of(monkeypatch, lambda: sure_pass(model, estimator, 50, 3))
    _assert_rows_keep_bits(monkeypatch, values, model.sample(37, 4))


def _joint_rows(coupling, d):
    """The coupling's joint chunk of rows of Z = [X | V], made afresh: one
    replacement term X^i = X with x_i := V_i, or one shared point V."""
    (w,) = coupling.term_weights

    def part(Z):
        X, V = Z[:, :d].copy(), Z[:, d:].copy()
        return zero_bias.JointChunk(X, (zero_bias.Replaced(X, V, w) if coupling.replaces
                                        else zero_bias.Shared(V, w),))

    return part


@pytest.mark.parametrize("family", list(_MODELS))
def test_kernel_rows_keep_their_bits_across_task_heights(tmp_path, monkeypatch, family):
    # the one pass of `risk --bounds`: the risk, the inverse moments, Tr T and
    # ||T - Sigma||^2 at T(X - theta), and B*'s difference, over the
    # coupling's joint chunks; the Gaussian's companions are X, so its pass
    # draws X alone
    args = ["risk", "--bounds", "--model", family, "--d", "12", "--theta", "scaled:1",
            "--lambda", "9", "--reps", "50", "--seed", "3", "--out", str(tmp_path / "r.csv")]
    args += ["--k", "6"] if family == "student" else []
    values = _statistic_of(monkeypatch, lambda: main(args))
    model = build_model(resolve_config(parse_args(args)))
    names = ["risk", "e_inv2", "e_d2_inv4", "trace", "frob"]
    if family == "gaussian":
        X, part = model.sample(37, 4), (lambda rows: rows)
    else:
        coupling = coupling_for(model)
        chunk = coupling._centered(substream(4, 0), 37, np.empty)
        X, part = np.hstack([chunk.X, zero_bias._values(chunk)]), _joint_rows(coupling, model.d)
        names.append("b_star")
    assert list(values(part(X))) == names
    _assert_rows_keep_bits(monkeypatch, values, X, part)


def test_select_lambda_rows_keep_their_bits_across_task_heights(tmp_path, monkeypatch):
    args = ["sure", "--model", "gaussian", "--d", "64", "--theta", "scaled:2",
            "--select-lambda", "--reps", "50", "--out", str(tmp_path / "s.csv")]
    values = _statistic_of(monkeypatch, lambda: main(args))
    X = GaussianIso(64, 1.0, "scaled:2").sample(37, 4)
    assert list(values(X)) == ["lambda", "sure", "risk"]
    _assert_rows_keep_bits(monkeypatch, values, X)


@pytest.mark.parametrize("m", [1, 2])
def test_inverse_moment_rows_keep_their_bits_across_task_heights(monkeypatch, m):
    model = _MODELS["student"](9)
    values = _statistic_of(monkeypatch, lambda: mc_inverse_moment(model, m, 50, 3))
    _assert_rows_keep_bits(monkeypatch, values, model.sample(37, 4))


@pytest.mark.parametrize("model", _FAMILIES, ids=_FAMILY_IDS)
def test_fused_pass_equals_run_over_the_chunks(monkeypatch, model):
    # two full chunks of 3 draw tasks and a remainder chunk of one, drawn and
    # scored in the same tasks on 1, 2 and 3 threads: the accumulators are
    # those of the statistics on each whole chunk of the draws, bit for bit.
    # "first" is a view of the rows, which the next task on its thread draws
    # over
    d, seed = model.d, 12
    monkeypatch.setattr(_mc, "_CHUNK_BUDGET", 60 * d)
    monkeypatch.setattr(_mc, "_DRAW_TASKS_PER_THREAD", 1)
    n = 2 * 60 + 19

    def values(X):
        return {"norm2": np.einsum("ij,ij->i", X, X), "first": X[:, 0]}

    for threads in (1, 2, 3):
        _force_tasks(monkeypatch, threads, task=20 * d)
        chunks = _chunks_of(model, n, seed)
        assert [len(X) for X in chunks] == [60, 60, 19]
        whole, fused = _whole(chunks, values), run(n, seed, d, model.draw, values)
        assert list(fused) == ["norm2", "first"]
        assert all(_fields(fused[name]) == _fields(whole[name]) for name in whole), threads
        assert fused["first"].n == n


def test_a_pass_draws_into_the_buffers_of_finished_tasks(monkeypatch):
    # on one thread, every draw task of two chunks of 8 equal tasks draws
    # into the first task's buffer: the pass allocates one task's rows
    _force_tasks(monkeypatch, 1, task=10 * 7)
    monkeypatch.setattr(_mc, "_CHUNK_BUDGET", 80 * 7)
    seen = set()

    def values(X):
        seen.add(X.__array_interface__["data"][0])
        return {"x": X[:, 0]}

    assert run(160, 3, 7, GaussianIso(7, 1.0).draw, values)["x"].n == 160
    assert len(seen) == 1


def test_row_tasks_follow_rows_and_d_only(monkeypatch):
    # the rows a pass hands its statistics at once are those of one draw
    # task, so their layout is fixed by (rows, d): small chunks stay one
    # task, and the core count does not move it
    def heights(rows, d, threads):
        monkeypatch.setattr(_mc, "_usable_cores", lambda: threads)
        seen = []

        def ones(rng, rows, empty):
            out = empty((rows, d))
            out.fill(1.0)
            return out

        def values(X):
            seen.append(len(X))
            return {"x": X[:, 0]}

        accs = run(rows, 0, d, ones, values)
        assert accs["x"].n == rows
        return sorted(seen)

    assert heights(100, 1000, 4) == [100]
    tall = heights(1 << 16, 128, 4)
    assert tall == [2048] * 32
    assert heights(1 << 16, 128, 1) == tall
    assert heights(3, 1 << 20, 3) == [1, 1, 1]  # at least one row per task


def test_singular_count_is_exact_across_row_tasks(monkeypatch):
    # each task counts its own singular rows and the counts are summed after
    # the pass, so no update of a shared counter can be lost; checked on two
    # chunks with more threads than cores, one-row tasks and a thread switch
    # every microsecond.  Every draw of a zero-variance law sits at the origin
    d = 7
    model = GaussianIso(d, 0.0)
    monkeypatch.setattr(_mc, "_CHUNK_BUDGET", 1000 * d)
    monkeypatch.setattr(_mc, "_DRAW_TASKS_PER_THREAD", 1)
    counts = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for threads, task in ((1, 1 << 60), (3, 5 * d), (4, d)):
            monkeypatch.setattr(_mc, "_usable_cores", lambda k=threads: k)
            monkeypatch.setattr(_mc, "_DRAW_TASK", task)
            with pytest.raises(GuardAbort) as info:
                guarded_pass(model, 2000, 1, lambda X, sq: {"sq": sq}, JamesStein(1.0))
            counts.append(info.value.diagnostics["singular"])
    finally:
        sys.setswitchinterval(interval)
    assert counts == [2000, 2000, 2000]


def test_guard_abort_in_a_worker_task_reaches_the_caller(monkeypatch):
    _force_tasks(monkeypatch, 3, task=5 * 7)
    caller, raised_on = threading.current_thread(), []

    def stat(X, sq):
        if threading.current_thread() is not caller:
            sq = np.zeros_like(sq)  # a worker's rows sit at the origin
        try:
            return {"inv": inverse_moment(sq, 7, 1)}
        except GuardAbort:
            raised_on.append(threading.current_thread())
            raise

    with pytest.raises(GuardAbort, match="origin"):
        guarded_pass(GaussianIso(7, 1.0), 100, 1, stat)
    assert raised_on and caller not in raised_on


def test_row_tasks_raise_the_first_failed_task(monkeypatch):
    # the error a serial loop over the tasks would meet first is the one
    # raised, though a later task may fail first on another thread
    _force_tasks(monkeypatch, 3, task=2)
    draw = _drawing_rows_of(monkeypatch, np.arange(20.0)[:, None])

    def values(X):  # ten tasks of two rows; those from row 4 on fail
        if X[-1, 0] >= 5:
            raise ValueError(f"task from row {int(X[0, 0])}")
        return {"x": X[:, 0]}

    for _ in range(20):
        with pytest.raises(ValueError, match="task from row 4$"):
            run(20, 0, 1, draw, values)


# ---------------------------------------------------------------------------
# joint statistics in the draw tasks: no result depends on the core count


def _accumulators_of(monkeypatch, call):
    """The accumulators of every `_mc.run` pass that `call()` makes, by name."""
    seen = []

    def recording(*args):
        accs = run(*args)
        seen.append({name: _fields(acc) for name, acc in accs.items()})
        return accs

    for module in (cli, estimation, risk_lab, stein_kernels, zero_bias):
        monkeypatch.setattr(module, "run", recording)
    call()
    return seen


def _joint_passes(d, n, seed):
    laplace = ProductIID(d, Laplace1D(1.0 / np.sqrt(2.0)), "scaled:1")
    mixed = MixingCorruption(0.3, StudentT(d, 6), "scaled:1")
    gauss = GaussianIso(d, mixed.sigma2)
    kernel = mixture_kernel([(gauss, gaussian_kernel(gauss.cov())),
                             (StudentT(d, 6), student_kernel(6, d))], [0.7, 0.3])
    corrupt = MixingCorruption(0.2, ProductIID(d, Laplace1D(1.0 / np.sqrt(2.0))), "scaled:1")
    fns = [linear_map(np.random.default_rng(3).normal(size=(d, d))), coordinate_quadratic(1),
           shrink_direction()]
    coupling = coupling_for(laplace)
    return {
        "b-star-student": lambda: bound_b_star(coupling_for(StudentT(d, 6, "scaled:1")), 6.0, n, seed),
        "b-star-laplace": lambda: bound_b_star(coupling, 6.0, n, seed),
        "b-star-corrupt-mix": lambda: bound_b_star(coupling_for(corrupt), 6.0, n, seed),
        "discrepancy-mixture-kernel": lambda: discrepancy_stats(mixed, kernel, n, seed),
        "identity-residual": lambda: identity_residual(n, seed, coupling._centered, laplace.theta,
                                                       fns, "zb"),
    }


@pytest.mark.parametrize("name", list(_joint_passes(8, 1, 1)))
def test_joint_results_do_not_depend_on_the_core_count(monkeypatch, name):
    # chunks of 10 to 30 draw tasks, each task on its own thread when there
    # are cores for it: 1 and 2 usable cores give the same accumulators, bit
    # for bit, for the statistics of joint draws run in the draw tasks
    d, n, seed = 8, 700, 5
    monkeypatch.setattr(_mc, "_CHUNK_BUDGET", 300 * d)  # 300 rows a chunk
    monkeypatch.setattr(_mc, "_DRAW_TASKS_PER_THREAD", 1)
    results = []
    for cores in (1, 2):
        _force_tasks(monkeypatch, cores, task=10 * d)
        results.append(_accumulators_of(monkeypatch, _joint_passes(d, n, seed)[name]))
    assert len(results[0]) == 1 and results[0] == results[1]


# ---------------------------------------------------------------------------
# heavy statistics a row block at a time: no result depends on the block height


def _blocked_passes(d, n, seed):
    """Every pass whose statistic `_mc.in_blocks` evaluates a row block at a time."""
    laplace = ProductIID(d, Laplace1D(1.0 / np.sqrt(2.0)), "scaled:1")
    student = StudentT(d, 6, "scaled:1")
    corrupt = MixingCorruption(0.2, ProductIID(d, Laplace1D(1.0 / np.sqrt(2.0))), "scaled:1")
    # couplings whose terms are made afresh from the rows (`zero_bias._Lazy`)
    gauss, wide = GaussianIso(d, 0.5), ProductIID(d, Laplace1D(0.8))
    unequal = zb_mixture(Mixture([gauss, wide], [0.4, 0.6], "scaled:1"),
                         [couple_gaussian(gauss), couple_independent(wide)], [0.4, 0.6])
    summed = zb_sum(AdditiveCorruption(0.3, StudentT(d, 6), "scaled:1"),
                    [ScaledCoupling(couple_gaussian(GaussianIso(d, student.sigma2)), np.sqrt(0.7)),
                     ScaledCoupling(couple_student(6, d), np.sqrt(0.3))])
    fns = [shrink_direction(), coordinate_quadratic(1)]
    passes = {}
    for name, model in (("student", student), ("laplace", laplace), ("corrupt-mix", corrupt)):
        coupling = coupling_for(model)
        passes[f"zb-{name}"] = (lambda c=coupling, m=model: identity_residual(
            n, seed, c._centered, m.theta, fns, "zb"))
    for name, model in (("student", student), ("laplace", laplace)):
        passes[f"stein-{name}"] = (lambda m=model: identity_residual(
            n, seed, model_kernel(m).stream(m), m.theta, fns, "stein"))
    for name, coupling in (("mixture-unequal", unequal), ("sum-student", summed)):
        passes[f"zb-{name}"] = (lambda c=coupling: identity_residual(
            n, seed, c._centered, c.theta, fns, "zb"))
    # dense kernels, whose (rows, d, d) matrices are made from a block's rows
    mixed = MixingCorruption(0.3, StudentT(d, 6), "scaled:1")
    gauss_d = GaussianIso(d, student.sigma2)
    pairs = [(gauss_d, gaussian_kernel(gauss_d.cov())), (StudentT(d, 6), student_kernel(6, d))]
    dense = {"mixture-kernel": (mixed, mixture_kernel(pairs, [0.7, 0.3])),
             "average-kernel": (student, average_kernel([student_kernel(6, d)] * 3))}
    for name, (model, kernel) in dense.items():
        passes[f"stein-{name}"] = (lambda m=model, k=kernel: identity_residual(
            n, seed, k.stream(m), m.theta, fns, "stein"))
        passes[f"discrepancy-{name}"] = (lambda m=model, k=kernel: discrepancy_stats(m, k, n, seed))
    passes.update({
        "b-star-laplace": lambda: bound_b_star(coupling_for(laplace), 6.0, n, seed),
        "b-star-student": lambda: bound_b_star(coupling_for(student), 6.0, n, seed),
        "discrepancy-laplace": lambda: discrepancy_stats(laplace, model_kernel(laplace), n, seed),
        "discrepancy-student": lambda: discrepancy_stats(student, model_kernel(student), n, seed),
        "sure-zero-bias": lambda: sure_zero_bias_mean(laplace, JamesStein(6.0), coupling_for(laplace),
                                                      n, seed),
        "coordinate-sum": lambda: coordinate_sum_residual(coupling_for(corrupt), np.sin, np.cos,
                                                          n, seed),
        # G = d: the grid's blocks are cut on max(d, G) rows, as the others' on d
        "select-lambda": lambda: main(["sure", "--model", "laplace", "--d", str(d), "--theta",
                                       "scaled:2", "--select-lambda", "--lambda-grid", f"2:{d}",
                                       "--reps", str(n), "--seed", str(seed), "--out", os.devnull]),
    })
    return passes


@pytest.mark.parametrize("name", list(_blocked_passes(8, 1, 1)))
def test_blocked_statistics_keep_their_bits_across_block_heights(monkeypatch, name):
    # blocks of 1 row and of 7 rows (two of 4 and 5 rows at the end of a task)
    # give the accumulators of one block a task, bit for bit, on draw tasks
    # of 40 rows and a remainder, on two threads; joint chunks too, below
    # the least rows their blocks have in a pass
    d, n, seed = 8, 203, 5
    _force_tasks(monkeypatch, 2, task=40 * d)
    monkeypatch.setattr(_mc, "_DRAW_TASKS_PER_THREAD", 1)
    monkeypatch.setattr(_mc, "_JOINT_BLOCK_ROWS", 1)
    results = []
    for block in (d, 7 * d, 1 << 40):
        monkeypatch.setattr(_mc, "_BLOCK", block)
        results.append(_accumulators_of(monkeypatch, _blocked_passes(d, n, seed)[name]))
    assert len(results[0]) == 1 and results[0] == results[2] and results[1] == results[2]


@pytest.mark.parametrize("kind, d", [(kind, d) for d in (6, 8, 32, 600, 1600)
                                     for kind in ("stein", "zb")]
                         + [("transformed", d) for d in (6, 32, 100)], ids=str)
def test_linear_map_rows_keep_their_bits_in_the_blocks_of_a_pass(monkeypatch, d, kind):
    # linear_map's X A' is a BLAS product, whose last bits depend on the
    # product's height where BLAS takes another kernel (below 38 rows at
    # d = 32) or a matrix-vector path (1 row), so a 1-row block does change
    # them; so is a transformed kernel's Y A^-T, made from each block's rows.
    # The blocks of a pass are aligned and at least about half of
    # `_BLOCK // d` rows tall, or of `_JOINT_BLOCK_ROWS` at large d: there the
    # residual has the bits of one block a task, on tasks of a few blocks and
    # a short remainder
    model = ProductIID(d, Laplace1D(1.0 / np.sqrt(2.0)), "scaled:1")
    fn = linear_map(np.random.default_rng(d).normal(size=(d, d)))
    rows = max(_mc._BLOCK // d, _mc._JOINT_BLOCK_ROWS)
    n = 3 * rows + rows // 3 + 1
    if kind == "zb":
        draw = coupling_for(model)._centered
    else:
        kernel = model_kernel(model)
        if kind == "transformed":
            A = np.eye(d) + np.random.default_rng(d + 1).uniform(size=(d, d)) / d
            kernel = transform_kernel(kernel, A)
        draw = kernel.stream(model)
    monkeypatch.setattr(_mc, "_DRAW_TASK", (n // 2 + 3) * d)  # two tasks

    def call():
        return identity_residual(n, 4, draw, model.theta, [fn], kind)

    blocked = _accumulators_of(monkeypatch, call)
    monkeypatch.setattr(_mc, "_BLOCK", 1 << 40)
    assert blocked == _accumulators_of(monkeypatch, call)


def test_block_cuts_keep_to_the_block_and_align_their_rows(monkeypatch):
    # (d, least rows, block rows, alignment)
    for d, least, block, align in ((1024, 1, 16, 4), (32, 1, 512, 16), (6, 1, 2720, 16),
                                   (100, 1, 160, 16), (600, 1, 24, 4), (3000, 1, 5, 1),
                                   (1600, 32, 32, 16), (1024, 64, 64, 16), (100, 64, 160, 16)):
        for rows in (1, 15, block, block + 1, 2 * block - 1, 7 * block + 3, 65536):
            cuts = _mc._block_cuts(rows, d, least)
            heights = np.diff(cuts)
            assert cuts[0] == 0 and cuts[-1] == rows and heights.min() > 0
            assert heights.max() <= max(_mc._BLOCK // d, least, 1)
            if rows > block:  # the last two blocks share what is left, neither short
                assert heights.min() >= block // 2 - align
            assert all(cut % align == 0 for cut in cuts[:-1])
    assert _mc._block_cuts(17, 1024) == [0, 8, 17]
    assert _mc._block_cuts(1535, 32) == [0, 512, 1024, 1535]
    assert _mc._block_cuts(163, 1600, 32) == [0, 32, 64, 96, 128, 144, 163]


def test_in_blocks_joins_the_rows_of_plain_and_joint_parts(monkeypatch):
    # a plain part is sliced, a joint chunk sliced by `rows`, which keeps a
    # shared point that is X as X, so `weighted_partials` still skips its guard;
    # every block has at least `_JOINT_BLOCK_ROWS` rows, 1 here but below
    monkeypatch.setattr(_mc, "_BLOCK", 3 * 5)
    monkeypatch.setattr(_mc, "_JOINT_BLOCK_ROWS", 1)
    X = np.arange(40.0).reshape(8, 5)
    seen = []

    def values(part):
        seen.append(part if isinstance(part, np.ndarray) else part.X)
        return {"first": part[:, 0] if isinstance(part, np.ndarray) else part.X[:, 0]}

    assert np.array_equal(_mc.in_blocks(values)(X)["first"], X[:, 0])
    assert [len(block) for block in seen] == [3, 2, 3]
    # a part that `cut` declines is evaluated whole: B* and the coordinate-sum
    # residual decline the chunks whose every term is shared (row sums only)
    assert np.array_equal(_mc.in_blocks(values, lambda part: False)(X)["first"], X[:, 0])
    assert len(seen[-1]) == 8
    # a plain part, as a joint chunk, is cut in blocks of at least
    # `_JOINT_BLOCK_ROWS` rows
    monkeypatch.setattr(_mc, "_JOINT_BLOCK_ROWS", 4)
    del seen[:]
    assert np.array_equal(_mc.in_blocks(values)(X)["first"], X[:, 0])
    assert [len(block) for block in seen] == [4, 4]
    # a statistic with temporaries wider than a row (the select-lambda grid's
    # (rows, G) arrays) is cut on that width: 15 // 7 = 2 rows, not 15 // 5 = 3
    monkeypatch.setattr(_mc, "_JOINT_BLOCK_ROWS", 1)
    del seen[:]
    assert np.array_equal(_mc.in_blocks(values, width=7)(X)["first"], X[:, 0])
    assert [len(block) for block in seen] == [2, 2, 2, 2]
    del seen[:]
    assert np.array_equal(_mc.in_blocks(values, width=4)(X)["first"], X[:, 0])
    assert [len(block) for block in seen] == [3, 2, 3]
    draw = lambda model: coupling_for(model)._centered(substream(1, 0), 8, np.empty)  # noqa: E731
    assert draw(StudentT(5, 6)).shared_only and not draw(ProductIID(5, Laplace1D(1.0))).shared_only
    # a kernel's block makes its weights from the block's rows, with the bits
    # of the whole chunk's weights on those rows
    chunk = _identity_chunk(student_kernel(6, 5), np.zeros(5))(X)
    block = chunk.rows(2, 6)
    (term,), (whole,) = block.terms, chunk.terms
    assert term.P is block.X and np.array_equal(block.X, X[2:6])
    assert _same_bits(term.W.scale, whole.W.scale[2:6])
