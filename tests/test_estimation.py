import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import steinshrink as ss
from steinshrink import estimation
from steinshrink.errors import EvaluationError, ParameterError
from steinshrink.estimation import lambda_grid, sure_soft_threshold_grid
from steinshrink.testfns import FixedWeights
from oracles import count_below_by_histogram, jacobian


# -- estimator algebra ---------------------------------------------------------


def test_james_stein_examples():
    x = np.array([2.0, 0.0, 0.0, 0.0])
    assert np.array_equal(ss.james_stein(x, 0.0), x)
    assert np.allclose(ss.james_stein(x, 2.0), np.array([1.0, 0, 0, 0]))
    assert np.allclose(ss.james_stein(x, 4.0), np.zeros(4))  # ||x||^2 = lambda


def test_james_stein_singularity_policy():
    with pytest.raises(EvaluationError):
        ss.james_stein(np.zeros(3), 1.0)
    assert np.array_equal(ss.james_stein(np.zeros(3), 1.0, define_zero=True), np.zeros(3))
    with pytest.raises(ParameterError):
        ss.james_stein(np.ones(3), -1.0)


def test_soft_threshold_examples():
    x = np.array([0.5, -3.0])
    assert np.array_equal(ss.soft_threshold(x, 0.0), x)
    assert np.allclose(ss.soft_threshold(x, 1.0), np.array([0.0, -2.0]))
    assert np.allclose(ss.soft_threshold(x, 3.5), np.zeros(2))


@settings(max_examples=200, derandomize=True)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=8),
    st.lists(st.floats(-50, 50), min_size=2, max_size=8),
    st.floats(0, 20),
)
def test_soft_threshold_nonexpansive(xs, ys, lam):
    d = min(len(xs), len(ys))
    x, y = np.array(xs[:d]), np.array(ys[:d])
    dist = np.linalg.norm(ss.soft_threshold(x, lam) - ss.soft_threshold(y, lam))
    assert dist <= np.linalg.norm(x - y) + 1e-9


@settings(max_examples=200, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 10.0))
def test_mse_expansion_identity(seed, lam):
    # per-sample algebra: ||S(x)-t||^2 = ||x-t||^2 - 2 lam <x-t, x/||x||^2> + lam^2/||x||^2
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    x = rng.normal(0, 3, d)
    theta = rng.normal(0, 3, d)
    sq = float(x @ x)
    if sq < 1e-6:
        return
    lhs = float(np.sum((ss.james_stein(x, lam) - theta) ** 2))
    rhs = float(np.sum((x - theta) ** 2)) - 2 * lam * float((x - theta) @ x) / sq + lam**2 / sq
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# -- row forms: James-Stein statistics from ||x||^2 and <x, theta> -----------------

_D = 6
_ROW_ESTIMATORS = [ss.Identity(), ss.JamesStein(0.0), ss.JamesStein(_D - 2.0)]


def _rows_with_singular(seed):
    """Rows at three scales, then two within 1e-12 of the origin."""
    rng = np.random.default_rng(seed)
    X = np.concatenate([rng.normal(0.0, s, (40, _D)) for s in (0.05, 1.0, 30.0)])
    X[-2] = 0.0
    X[-1] = 1e-7
    return X


def _generic_loss(est, X, theta):
    """||S(x) - theta||^2 through S = apply(X), the base-class path."""
    return ss.EstimatorSpec.loss(est, X, theta)


@pytest.mark.parametrize("theta_spec", ["zero", "scaled:1", "scaled:100"])
@pytest.mark.parametrize("est", _ROW_ESTIMATORS, ids=lambda e: f"{e.kind}:{e.lam:g}")
def test_row_form_matches_generic_apply_row_by_row(theta_spec, est):
    theta = ss.parse_theta(theta_spec, _D)
    X = _rows_with_singular(31)
    sq = np.einsum("ij,ij->i", X, X)
    bad = est.singular_rows(X, sq)
    assert list(bad) == [False] * (X.shape[0] - 2) + [est.lam > 0] * 2
    theta_sq = float(theta @ theta)
    lam_term = np.divide(est.lam**2, sq, out=np.zeros_like(sq), where=~bad & (sq > 0))
    tol = 1e-12 * (sq + theta_sq + lam_term)
    row = est.loss(X, theta, sq)
    assert np.all(np.abs(row - _generic_loss(est, X, theta)) <= tol)
    assert np.array_equal(est.loss(X, theta), row)  # the same without a shared sq
    if est.lam > 0:  # S := 0 at the singularity, so the loss is ||theta||^2
        assert np.all(row[bad] == theta_sq)
    if est.kind == "james_stein":
        base = np.einsum("ij,ij->i", X - theta, X - theta)
        excess = est.excess(X, theta, sq)
        assert np.all(np.abs(excess - (_generic_loss(est, X, theta) - base)) <= tol)
    ok = ~bad
    fx = est.f(X[ok])
    f_sq = np.einsum("ij,ij->i", fx, fx)
    assert np.all(np.abs(est.f_sq(X[ok], sq[ok]) - f_sq) <= 1e-12 * lam_term[ok])


@pytest.mark.parametrize("theta", [np.zeros(_D), np.array([1.0, -2.0, 0.0, 3.0, 1.0, -1.0])])
def test_row_form_is_exact_on_dyadic_rows(theta):
    # small integers with ||x||^2 a power of two and an integer theta: every
    # step of both forms is exact in binary floating point, so they agree to
    # the bit and a one-ulp change in any term shows
    X = np.array(
        [
            [1.0, 1.0, 1.0, 1.0, 0.0, 0.0],
            [2.0, 2.0, 2.0, 2.0, 0.0, 0.0],
            [4.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [-4.0, 4.0, -4.0, 4.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            [2.0, -2.0, 0.0, 0.0, 2.0, 2.0],
        ]
    )
    for est in _ROW_ESTIMATORS:
        generic = _generic_loss(est, X, theta)
        assert np.array_equal(est.loss(X, theta), generic), est.lam
        if est.kind == "james_stein":
            base = np.einsum("ij,ij->i", X - theta, X - theta)
            assert np.array_equal(est.excess(X, theta), generic - base), est.lam


# -- SURE ------------------------------------------------------------------------


def test_sure_james_stein_closed_values():
    est = ss.JamesStein(0.0)
    assert ss.sure(np.ones(5), est, 1.0) == pytest.approx(5.0)  # d sigma^2
    x = np.array([2.0, 0.0, 0.0, 0.0])
    assert ss.sure(x, ss.JamesStein(2.0), 1.0) == pytest.approx(4 + 2 * (2 - 4) / 4)


def test_sure_soft_threshold_closed_value():
    x = np.array([0.5, 3.0])
    val = ss.sure(x, ss.SoftThreshold(1.0), 1.0)
    assert val == pytest.approx(2 + (0.25 + 1.0) - 2 * 1.0)


def test_sure_closed_form_matches_general_formula(rng):
    # the fast cross terms agree with a dense-Jacobian evaluation
    d = 6
    cov = np.diag(rng.uniform(0.5, 2.0, d))
    X = rng.normal(0, 2, (64, d))
    B = rng.normal(size=(d, d))
    for cov in (cov, B @ B.T + np.eye(d)):
        for est in (ss.JamesStein(2.5), ss.SoftThreshold(0.8), ss.Identity()):
            fast = est.cross_term(X, FixedWeights(cov))
            dense = np.einsum("ij,mij->m", cov, jacobian(est, X))
            assert np.allclose(fast, dense, rtol=1e-10, atol=1e-12)


def test_sure_lambda_zero_reduces_to_trace():
    x = np.array([0.4, -0.3, 2.0])
    assert ss.sure(x, ss.SoftThreshold(0.0), 2.0) == pytest.approx(6.0)


def test_sure_kernel_gaussian_matches_sure_pointwise(rng):
    d = 5
    cov = 1.3 * np.eye(d)
    kern = ss.gaussian_kernel(cov)
    X = rng.normal(0, 1, (32, d))
    for est in (ss.JamesStein(1.5), ss.SoftThreshold(0.7)):
        a = ss.sure(X, est, cov)
        b = ss.sure_kernel(X, est, kern, np.zeros(d))
        assert np.allclose(a, b, atol=1e-12)


def _mc_risk_and_kernel_sure(model, est, kern, n, seed):
    X = model.sample(n, seed)
    dev = est.apply(X) - model.theta
    diff = ss.sure_kernel(X, est, kern, model.theta) - np.einsum("ij,ij->i", dev, dev)
    return diff.mean(), diff.std(ddof=1) / math.sqrt(n)


def test_sure_kernel_unbiased_student():
    # heavy-tailed differences: the pinned n = 1e6 keeps the z-score stable
    model = ss.StudentT(6, 6, "scaled:1")
    mean, se = _mc_risk_and_kernel_sure(
        model, ss.JamesStein(4.0), ss.student_kernel(6, 6), 1_000_000, 61
    )
    assert abs(mean) < 3 * se


def test_sure_kernel_unbiased_product_laplace_soft_threshold():
    d = 8
    model = ss.ProductIID(d, ss.Laplace1D(0.9), "scaled:1")
    kern = ss.product_kernel([model.law] * d)
    mean, se = _mc_risk_and_kernel_sure(model, ss.SoftThreshold(0.8), kern, 300_000, 62)
    assert abs(mean) < 3 * se


def test_sure_zero_bias_mean_gaussian_equals_risk():
    model = ss.GaussianIso(6, 1.0, "scaled:1")
    coup = ss.couple_independent(model)
    est = ss.JamesStein(4.0)
    zb = ss.sure_zero_bias_mean(model, est, coup, 200_000, 63)
    risk = ss.mc_risk(model, est, 200_000, 63)
    se = math.hypot(zb.stderr, risk.stderr)
    assert abs(zb.mean - risk.mean) < 3 * se


def test_sure_zero_bias_mean_sphere_equals_risk():
    d = 6
    theta = ss.parse_theta(f"scaled:{2 * math.sqrt(d)}", d)
    coup = ss.couple_sphere(d, 1.0, theta)
    est = ss.JamesStein(float(d - 2))
    zb = ss.sure_zero_bias_mean(coup.base, est, coup, 200_000, 64)
    risk = ss.mc_risk(coup.base, est, 200_000, 64)
    se = math.hypot(zb.stderr, risk.stderr)
    assert abs(zb.mean - risk.mean) < 3 * se


def test_sure_zero_bias_mean_student_equals_risk():
    coup = ss.couple_student(6, 6, "scaled:1")
    est = ss.JamesStein(4.0)
    zb = ss.sure_zero_bias_mean(coup.base, est, coup, 300_000, 65)
    risk = ss.mc_risk(coup.base, est, 300_000, 65)
    se = math.hypot(zb.stderr, risk.stderr)
    assert abs(zb.mean - risk.mean) < 3 * se


# -- lambda selection ------------------------------------------------------------


def test_select_lambda_zero_vector_picks_first_positive_grid_point():
    d = 16
    grid = lambda_grid(d, 2.0, 64)
    lam_hat, _ = ss.select_lambda(np.zeros(d), 1.0, (2.0, 64))
    assert lam_hat == pytest.approx(grid[1])


def test_select_lambda_large_coordinates_pick_zero():
    d = 16
    x = np.full(d, 100.0)
    lam_hat, val = ss.select_lambda(x, 1.0, (2.0, 64))
    assert lam_hat == 0.0
    assert val == pytest.approx(d * 1.0)


def test_select_lambda_tie_breaks_to_smallest():
    # a vector with all coordinates far above the grid: SURE is increasing,
    # ties cannot happen; construct an exact tie via a flat SURE instead
    d = 4
    grid = lambda_grid(d, 2.0, 32)
    x = np.full(d, 1e9)
    vals = sure_soft_threshold_grid(x, 1.0, grid)
    assert np.argmin(vals) == 0


def test_sure_grid_matches_direct_evaluation(rng):
    d = 64
    x = rng.normal(0, 2, d)
    grid = lambda_grid(d, 2.0, 128)
    fast = sure_soft_threshold_grid(x, 1.3, grid)
    direct = np.array([ss.sure(x, ss.SoftThreshold(l), 1.3) for l in grid])
    assert np.allclose(fast, direct, atol=1e-9)


def _sure_grid_one_row(x, sigma2, grid):
    """The per-row reference: order statistics and a strict searchsorted count."""
    ax = np.sort(np.abs(x))
    csq = np.concatenate([[0.0], np.cumsum(ax**2)])
    below = np.searchsorted(ax, grid, side="left")
    return ax.size * sigma2 + (csq[below] + grid**2 * (ax.size - below)) - 2.0 * sigma2 * below


def test_select_lambda_block_equals_row_by_row_with_ties():
    # entries snapped onto grid points and repeated within rows, so the strict
    # count |x_i| < lambda meets exact ties; the block call must not move them
    rng = np.random.default_rng(2024)
    rows, d, size = 300, 40, 64
    grid = lambda_grid(d, 2.0, size)
    X = rng.normal(0.0, 1.5, (rows, d))
    snap = rng.random((rows, d)) < 0.5
    X[snap] = rng.choice([-1.0, 1.0], snap.sum()) * grid[rng.integers(0, size, snap.sum())]
    X[:, 1] = -X[:, 0]
    X[7] = 0.0
    X[8] = grid[5]
    lam_hat, value = ss.select_lambda(X, 1.7, (2.0, size))
    block = sure_soft_threshold_grid(X, 1.7, grid)
    assert lam_hat.shape == value.shape == (rows,)
    for r in range(rows):
        reference = _sure_grid_one_row(X[r], 1.7, grid)
        assert np.array_equal(block[r], reference)
        assert np.array_equal(sure_soft_threshold_grid(X[r], 1.7, grid), reference)
        best = int(np.argmin(reference))
        assert (lam_hat[r], value[r]) == (grid[best], reference[best])
        assert ss.select_lambda(X[r], 1.7, (2.0, size)) == (lam_hat[r], value[r])


def _tied_blocks():
    """(X, grid) pairs whose |x_i| meet the grid's points exactly, the first
    (0) and the top one included, with zeros, -0.0, values above the top,
    all-equal rows, d < G and d > G, in blocks of 1, 7 and 13 rows."""
    rng = np.random.default_rng(25)
    for rows, d, size in ((1, 40, 64), (7, 40, 64), (13, 300, 16), (7, 5, 512), (1, 1024, 512)):
        grid = lambda_grid(d, 2.0, size)
        X = rng.normal(0.0, 1.5, (rows, d))
        snap = rng.random((rows, d)) < 0.4
        X[snap] = rng.choice([-1.0, 1.0], snap.sum()) * grid[rng.integers(0, size, snap.sum())]
        X[:, 0], X[:, 1], X[:, 2], X[:, 3] = grid[0], -0.0, -grid[-1], grid[-1]
        X[:, 4] = grid[-1] * (1.0 + rng.random(rows))  # above the top point
        if rows > 1:
            X[1] = grid[size // 2]  # a row of one value, on a grid point
            X[-1] = -2.5
        yield X, grid


def test_grid_counts_equal_the_histogram_counts_on_ties():
    # one binary search per grid point in the sorted row counts what a
    # cumulative histogram of the coordinates' grid ranks counts, and
    # select_lambda's outputs keep their bytes with either count
    for X, grid in _tied_blocks():
        sorted_abs = np.sort(np.abs(X), axis=1)
        counts = estimation._count_below(sorted_abs, grid)
        assert counts.dtype == np.intp
        assert np.array_equal(counts, count_below_by_histogram(sorted_abs, grid))
        spec = (2.0, grid.size)
        fast = ss.select_lambda(X, 1.7, spec), sure_soft_threshold_grid(X, 1.7, grid)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimation, "_count_below", count_below_by_histogram)
            slow = ss.select_lambda(X, 1.7, spec), sure_soft_threshold_grid(X, 1.7, grid)
        for a, b in zip((*fast[0], fast[1]), (*slow[0], slow[1])):
            assert a.tobytes() == b.tobytes()
        assert ss.select_lambda(X, 1.7, grid)[0].tobytes() == fast[0][0].tobytes()


def test_lambda_grid_refuses_overflow_and_oversize_before_allocating():
    # a top sqrt(C log d) or a d top^2 that is not finite would make SURE
    # nan or inf; a size above the maximum is refused without building it
    with pytest.raises(ParameterError, match="overflow"):
        lambda_grid(1024, 1e308, 8)
    with pytest.raises(ParameterError, match="overflow"):
        lambda_grid(1024, 1e306, 8)  # the top is finite, d top^2 is not
    assert np.isfinite(lambda_grid(1024, 1e304, 8)).all()
    assert lambda_grid(4, 2.0, estimation._MAX_GRID_SIZE).size == estimation._MAX_GRID_SIZE
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="maximum"):
            lambda_grid(1024, 2.0, estimation._MAX_GRID_SIZE + 1)
        with pytest.raises(ParameterError, match="maximum"):
            lambda_grid(1024, 2.0, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_select_lambda_block_james_stein_matches_rows():
    X = np.random.default_rng(5).normal(3.0, 1.0, (20, 5))
    lam_hat, value = ss.select_lambda(X, 1.0, (8.0, 512), "james-stein")
    for r in range(20):
        lam_r, value_r = ss.select_lambda(X[r], 1.0, (8.0, 512), "james-stein")
        assert lam_hat[r] == lam_r
        assert value[r] == pytest.approx(value_r, rel=1e-12)


def test_soft_threshold_per_row_lambda_column():
    X = np.random.default_rng(6).normal(0.0, 2.0, (10, 7))
    lam = np.linspace(0.0, 3.0, 10)
    out = ss.soft_threshold(X, lam[:, None])
    for r in range(10):
        assert np.array_equal(out[r], ss.soft_threshold(X[r], lam[r]))
    with pytest.raises(ParameterError):
        ss.soft_threshold(X, -lam[:, None])


def test_select_lambda_grid_refinement_modulus():
    # doubling the grid moves the achieved minimum by at most 2 sigma^2 + 2 lam delta
    rng = np.random.default_rng(71)
    sigma2 = 1.0
    for _ in range(20):
        d = 128
        x = rng.normal(0, 1, d) + rng.choice([0, 4], d, p=[0.9, 0.1])
        lam1, v1 = ss.select_lambda(x, sigma2, (2.0, 256))
        lam2, v2 = ss.select_lambda(x, sigma2, (2.0, 512))
        delta = math.sqrt(2.0 * math.log(d)) / 255
        assert abs(v1 - v2) <= 2 * sigma2 + 2 * max(lam1, lam2) * delta


def test_select_lambda_js_path():
    x = np.full(5, 3.0)
    # C = 8 puts the closed-form optimum sigma^2 (d-2) = 3 inside the grid
    lam_hat, val = ss.select_lambda(x, 1.0, (8.0, 512), "james-stein")
    assert lam_hat == pytest.approx(3.0, abs=0.05)
    assert val <= 5.0
