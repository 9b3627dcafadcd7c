"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -s`, and the
verbose test listing carries the same information).  Criterion 6's theta = 0
inequality is expected to fail: the stated constant drops a k/(k-2) factor
relative to the exact value of the coupling it names, so no implementation
whose coupling also satisfies criterion 4 can reach it (details in the
maintainers' decision notes).  The test asserts the criterion verbatim and
is marked xfail(strict=True), with a companion test pinning the corrected
constant.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2, ks_2samp

import steinshrink as ss
from steinshrink._mc import chunk_rows
from steinshrink.cli import main
from steinshrink.estimation import lambda_grid, sure_soft_threshold_grid
from steinshrink.testfns import coordinate_quadratic, linear_map, shrink_direction
from steinshrink.zero_bias import ScaledCoupling


def _note(criterion: str, ok: bool, detail: str):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _fams(d):
    rng = np.random.default_rng(7)
    return [linear_map(rng.normal(size=(d, d))), coordinate_quadratic(0), shrink_direction()]


def test_criterion_01_gaussian_exactness():
    t0 = time.perf_counter()
    oracle, _ = quad(lambda x: chi2.pdf(x, 5) / x, 0, np.inf, epsrel=1e-11, limit=300)
    exact = 5.0 + 3.0 * (3.0 - 2.0 * 3.0) * oracle  # = 2.0
    rep = ss.mc_risk(ss.GaussianIso(5, 1.0), ss.JamesStein(3.0), 1_000_000, 11)
    elapsed = time.perf_counter() - t0
    ok = abs(rep.mean - exact) < 3 * rep.stderr and elapsed < 10.0
    assert _note("1", ok, f"risk {rep.mean:.4f} vs exact {exact:.4f}, {elapsed:.1f}s")


def test_criterion_02_sure_unbiased_gaussian():
    js = ss.sure_bias(ss.GaussianIso(5, 1.0, "scaled:2"), ss.JamesStein(3.0), 1_000_000, 17)
    theta = np.zeros(16)
    theta[:3] = 4.0
    st = ss.sure_bias(ss.GaussianIso(16, 1.0, theta), ss.SoftThreshold(1.5), 1_000_000, 18)
    ok = abs(js.mean) < 3 * js.stderr and abs(st.mean) < 3 * st.stderr
    assert _note("2", ok, f"|bias| JS {abs(js.mean):.4f} (3se {3*js.stderr:.4f}), "
                          f"ST {abs(st.mean):.4f} (3se {3*st.stderr:.4f})")


def test_criterion_03_stein_kernel_identities():
    d = k = 6
    n = 1_000_000
    student = ss.StudentT(d, k, "scaled:1")
    laplace = ss.ProductIID(d, ss.Laplace1D(1 / math.sqrt(2)), "scaled:1")
    A = np.diag([1.0, 2.0, 1.0, 3.0, 1.0, 0.5])
    transformed_model = ss.LinearTransform(A, ss.ProductIID(d, ss.Laplace1D(1.0)), "scaled:1")
    mixmodel = ss.MixingCorruption(0.3, ss.StudentT(d, k))
    cases = [
        ("student-closed", student, ss.student_kernel(k, d)),
        ("product-laplace", laplace, ss.product_kernel([laplace.law] * d)),
        ("transformed", transformed_model,
         ss.transform_kernel(ss.product_kernel([ss.Laplace1D(1.0)] * d), A)),
        ("average", student, ss.average_kernel([ss.student_kernel(k, d)] * 8)),
        ("mixture", mixmodel, ss.mixture_kernel(
            [(ss.GaussianIso(d, student.sigma2), ss.gaussian_kernel(student.sigma2 * np.eye(d))),
             (ss.StudentT(d, k), ss.student_kernel(k, d))],
            [0.7, 0.3])),
    ]
    worst = 0.0
    ok = True
    for name, model, kern in cases:
        for fn in _fams(d):
            rep = ss.stein_identity_residual(model, kern, fn, n, 31)
            z = abs(rep.mean) / max(rep.stderr, 1e-300)
            worst = max(worst, z)
            ok = ok and z < 3.0

    # the two Student kernel paths agree pointwise to 1e-8 on 100 points
    s2 = k / (k - 2.0)
    quadpath = ss.elliptical_kernel(
        lambda v: (1.0 + 2.0 * v / k) ** (-(k + d) / 2.0), s2 * np.eye(d), exact=True
    )
    pts = np.random.default_rng(32).normal(0.0, 2.0, (100, d))
    closed = ss.student_kernel(k, d).matrices(pts)
    agree = float(np.max(np.abs(quadpath.matrices(pts) - closed)))
    ok = ok and agree < 1e-8
    assert _note("3", ok, f"worst residual z = {worst:.2f}, kernel-path gap {agree:.2e}")


def test_criterion_04_zero_bias_characterization():
    n = 1_000_000
    d = 6
    smoothed = ss.ProductIID(d, ss.SmoothedRademacher1D(1.0, 0.2), "scaled:1")
    out = ss.ProductIID(d, ss.Laplace1D(1 / math.sqrt(2)))
    additive = ss.AdditiveCorruption(0.3, out, "scaled:1")
    sum_coup = ss.zb_sum(
        additive,
        [
            ScaledCoupling(ss.couple_gaussian(ss.GaussianIso(d, 1.0)), math.sqrt(0.7)),
            ScaledCoupling(ss.couple_independent(out), math.sqrt(0.3)),
        ],
    )
    mixing = ss.MixingCorruption(0.3, out, "scaled:1")
    rho = 0.3
    M = np.eye(d) + rho * (np.eye(d, k=1) + np.eye(d, k=-1))
    A = np.linalg.cholesky(M)
    ell_theta = ss.parse_theta(f"scaled:{2 * math.sqrt((1 + 2 * rho) * d)}", d)
    ell_model = ss.LinearTransform(A, ss.SphereUniform(d, 1.0), ell_theta)
    cases = [
        ("sphere", ss.couple_sphere(d, 1.0, f"scaled:{2 * math.sqrt(d)}")),
        ("student-gamma", ss.couple_student(6, d, "scaled:1")),
        ("independent-replace", ss.couple_independent(smoothed)),
        ("sum", sum_coup),
        ("mixture", ss.coupling_for(mixing)),
        ("linear-map", ss.zb_linear(A, ss.couple_sphere(d, 1.0), base_model=ell_model)),
    ]
    worst = 0.0
    ok = True
    for name, coup in cases:
        for fn in _fams(d):
            rep = ss.zb_identity_residual(coup.base, coup, fn, n, 41)
            z = abs(rep.mean) / max(rep.stderr, 1e-300)
            worst = max(worst, z)
            ok = ok and z < 3.0

    # Gaussian fixed point at KS level 0.001, n = 1e5
    dg = 4
    g = ss.GaussianIso(dg, 1.0, "scaled:1")
    fixed_paths = {
        "independent": ss.couple_independent(g),
        "sum": ss.zb_sum(
            g,
            [
                ss.couple_independent(ss.GaussianIso(dg, 0.5)),
                ss.couple_independent(ss.GaussianIso(dg, 0.5)),
            ],
        ),
        "mixture": ss.zb_mixture(
            g,
            [
                ss.couple_independent(ss.GaussianIso(dg, 1.0)),
                ss.couple_independent(ss.GaussianIso(dg, 1.0)),
            ],
            [0.5, 0.5],
        ),
    }
    min_p = 1.0
    for name, coup in fixed_paths.items():
        X, Xs = coup.pair_sampler(0, 0, 100_000, 42)
        for col in range(dg):
            min_p = min(min_p, ks_2samp(X[:, col], Xs[:, col]).pvalue)
    built = ss.zb_construct(g, 1, 100_000, 43)
    ref = g.sample(100_000, 44)
    for col in range(dg):
        min_p = min(min_p, ks_2samp(built[:, col], ref[:, col]).pvalue)
    ok = ok and min_p > 0.001
    assert _note("4", ok, f"worst residual z = {worst:.2f}, min KS p = {min_p:.4f}")


def test_criterion_05_student_discrepancy_constants():
    d = k = 6
    model = ss.StudentT(d, k)
    disc = ss.discrepancy_stats(model, ss.student_kernel(k, d), 1_000_000, 55)
    consts = ss.student_constants(d, k, 1.0)
    var_ok = abs(disc.var_trace_T - consts["var_trace_T"]) < 3 * disc.var_trace_T_stderr
    frob_ok = abs(disc.e_frob_dev_sq - consts["e_frob_dev_sq"]) < 3 * disc.e_frob_dev_sq_stderr
    ok = var_ok and frob_ok and consts["var_trace_T"] == pytest.approx(109.35)
    assert _note(
        "5",
        ok,
        f"Var(TrT) {disc.var_trace_T:.2f} vs 109.35 (3se {3*disc.var_trace_T_stderr:.2f}); "
        f"E||T-Sigma||^2 {disc.e_frob_dev_sq:.3f} vs 18.225 (3se {3*disc.e_frob_dev_sq_stderr:.3f})",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the stated theta = 0 constant 2 lam/k omits a k/(k-2) factor; the "
    "exact value of B* for the stated Gamma coupling is 2 lam/(k-2), so the "
    "criterion is unattainable by any implementation whose coupling also "
    "passes criterion 4 (see the maintainers' decision notes)",
)
def test_criterion_06a_student_b_star_centered():
    d = k = 6
    lam = 4.0
    rep = ss.bound_b_star(ss.couple_student(k, d), lam, 1_000_000, 66)
    bound = 2.0 * lam / k
    ok = rep.mean <= bound + 3 * rep.stderr
    assert _note("6a", ok, f"B* {rep.mean:.4f} vs stated bound {bound:.4f} + 3se {3*rep.stderr:.4f}")


def test_criterion_06a_student_b_star_corrected_constant():
    # companion check: the exact value for this coupling is 2 lam / (k - 2)
    d = k = 6
    lam = 4.0
    rep = ss.bound_b_star(ss.couple_student(k, d), lam, 1_000_000, 66)
    ok = abs(rep.mean - 2.0 * lam / (k - 2.0)) < 3 * rep.stderr
    assert _note("6a'", ok, f"B* {rep.mean:.4f} matches corrected 2 lam/(k-2) = {2*lam/(k-2):.4f}")


def test_criterion_06b_student_b_star_shifted():
    d = k = 6
    lam = 4.0
    rep = ss.bound_b_star(ss.couple_student(k, d, "scaled:" + repr(math.sqrt(6.0))), lam, 1_000_000, 67)
    bound = 8.0 * lam * (d + k - 2.0) / ((d - 2.0) * k)
    ok = rep.mean <= bound + 3 * rep.stderr
    assert _note("6b", ok, f"B* {rep.mean:.4f} <= {bound:.4f} + 3se {3*rep.stderr:.4f}")


def test_criterion_07_improvement_range():
    model = ss.GaussianIso(5, 1.0)
    details = []
    ok = True
    for lam in (1.0, 2.0, 3.0, 4.0, 5.0):
        rep = ss.mc_excess_risk(model, lam, 1_000_000, 77)
        ok = ok and rep.mean + 3 * rep.stderr < 0.0
        details.append(f"{lam:g}:{rep.mean:.3f}")
    outside = ss.mc_excess_risk(model, 2.33 * 3.0, 1_000_000, 78)
    ok = ok and outside.mean - 3 * outside.stderr > 0.0
    assert _note("7", ok, "excess " + " ".join(details) + f"; lam=6.99: {outside.mean:+.3f}")


def test_criterion_08_sphere_demo():
    c_low, c_high, sigma2 = 4.0, 9.0, 1.0
    ok = True
    for d in (65, 100, 200):
        gain = -sigma2 * (d - 2) ** 2 / ((math.sqrt(c_high) + 1) ** 2 * d)
        two_b = 4 * sigma2 * (d - 2) ** 2 / ((math.sqrt(c_low) - 1) ** 3 * d**2)
        ok = ok and (gain + two_b < 0.0)
    d = 100
    theta = ss.parse_theta(f"scaled:{math.sqrt(c_low * d)}", d)
    sph = ss.SphereUniform(d, 1.0, theta)
    rep = ss.mc_excess_risk(sph, float(d - 2), 200_000, 88)
    ok = ok and rep.mean + 3 * rep.stderr < 0.0
    assert _note("8", ok, f"closed-bound certified at 65/100/200; MC excess(d=100) {rep.mean:.2f}")


def test_criterion_09_log_concave_improvement():
    t0 = time.perf_counter()
    d = 64
    theta = ss.parse_theta(f"scaled:{math.sqrt(d / 2.0)}", d)
    model = ss.ProductIID(d, ss.Laplace1D(1 / math.sqrt(2)), theta)
    rep = ss.mc_excess_risk(model, float(d - 2), 1_000_000, 99)
    elapsed = time.perf_counter() - t0
    ok = rep.mean + 3 * rep.stderr < 0.0 and elapsed < 60.0
    assert _note("9", ok, f"excess {rep.mean:.2f} + 3se {3*rep.stderr:.2f} < 0, {elapsed:.0f}s")


def test_criterion_10_pinsker_adaptivity():
    t0 = time.perf_counter()
    limit = ss.pinsker_limit(1.0, 1.0)
    ok = True
    detail = []
    for fam in ("gaussian", "laplace"):
        means = []
        for d in (100, 400, 1600):
            theta = ss.parse_theta("scaled:1", d)
            if fam == "gaussian":
                model = ss.GaussianIso(d, 1.0, theta, scaling="pinsker")
            else:
                model = ss.ProductIID(d, ss.Laplace1D(1 / math.sqrt(2)), theta, scaling="pinsker")
            rep = ss.mc_risk(model, ss.JamesStein((d - 2.0) / d), 100_000, 100 + d)
            means.append(rep.mean)
        ok = ok and abs(means[-1] - limit) / limit < 0.05
        ok = ok and means[0] > means[1] > means[2] > limit - 0.01
        detail.append(f"{fam}: " + "/".join(f"{m:.4f}" for m in means))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    assert _note("10", ok, "; ".join(detail) + f"; {elapsed:.0f}s")


def test_criterion_11_soft_threshold_calibration():
    d, spikes, height, sigma2 = 1024, 32, 5.0, 1.0
    n = 10_000
    theta = np.zeros(d)
    theta[:spikes] = height
    model = ss.GaussianIso(d, sigma2, theta)
    grid = lambda_grid(d, 2.0, 512)

    hat_risks = []
    rows = chunk_rows(8 * d)  # the grid search holds about eight (rows, d) arrays
    X = model.sample(n, 2024)
    for start in range(0, n, rows):
        block = X[start : start + rows]
        lam_hat = grid[np.argmin(sure_soft_threshold_grid(block, sigma2, grid), axis=-1)]
        dev = ss.soft_threshold(block, lam_hat[:, None]) - theta
        hat_risks.append(np.einsum("ij,ij->i", dev, dev))
    hat_risks = np.concatenate(hat_risks)
    risk_hat = hat_risks.mean()
    se_hat = hat_risks.std(ddof=1) / math.sqrt(n)

    # oracle: exact per-grid risk sums via sorted pools and suffix cumsums
    null = np.sort(np.abs(X[:, spikes:].ravel()))
    s1 = np.concatenate([[0.0], np.cumsum(null[::-1])])[::-1]
    s2 = np.concatenate([[0.0], np.cumsum((null[::-1]) ** 2)])[::-1]
    idx = np.searchsorted(null, grid, side="right")
    cnt = null.size - idx
    null_risk = s2[idx] - 2 * grid * s1[idx] + grid**2 * cnt

    xs = np.sort(X[:, :spikes].ravel())
    p1 = np.concatenate([[0.0], np.cumsum(xs)])
    p2 = np.concatenate([[0.0], np.cumsum(xs**2)])
    total1, total2, N = p1[-1], p2[-1], xs.size
    ku = np.searchsorted(xs, grid, side="right")
    nu = N - ku
    up1, up2 = total1 - p1[ku], total2 - p2[ku]
    upper = up2 - 2 * (grid + height) * up1 + nu * (grid + height) ** 2
    kl = np.searchsorted(xs, -grid, side="left")
    lo1, lo2 = p1[kl], p2[kl]
    lower = lo2 + 2 * (grid - height) * lo1 + kl * (grid - height) ** 2
    middle = height**2 * (N - nu - kl)
    spike_risk = upper + lower + middle

    grid_risk = (null_risk + spike_risk) / n
    best = float(grid_risk.min())
    ok = risk_hat <= 1.1 * best + 3 * se_hat
    assert _note("11", ok, f"risk(lam_hat) {risk_hat:.2f} vs 1.1 x best {1.1*best:.2f} (+3se {3*se_hat:.2f})")


def test_criterion_12_inverse_moment_lemma():
    q, mu, C = 0.5, 1.0, 1.0
    ok = True
    details = []
    for m in (1, 2, 4):
        for d in (int(2 * m / q), int(4 * m / q)):
            bd = ss.inverse_moment_bound(C, mu, q, m, d)
            assert bd["valid"]
            rep = ss.mc_inverse_moment(ss.GaussianIso(d, 1.0), m, 1_000_000, 123)
            ok = ok and rep.mean <= bd["bound"] + 3 * rep.stderr
            details.append(f"m={m},d={d}:{rep.mean:.3f}<={bd['bound']:.0f}")
    assert _note("12", ok, " ".join(details))


def test_criterion_13_determinism(tmp_path):
    commands = [
        ["risk", "--model", "gaussian", "--d", "5", "--theta", "zero", "--lambda", "3",
         "--reps", "20000", "--seed", "3", "--bounds"],
        ["identity-check", "--reps", "5000", "--seed", "5"],
        ["sure", "--model", "student", "--d", "6", "--k", "6", "--lambda", "4",
         "--reps", "20000", "--seed", "8"],
        ["adaptivity", "--model", "laplace", "--c", "1", "--d-list", "50,100",
         "--reps", "10000", "--seed", "10"],
        ["sphere-demo", "--d-list", "65,100", "--seed", "11"],
        ["student-demo", "--d", "6", "--k", "6", "--lambda", "4", "--reps", "20000",
         "--seed", "12"],
    ]
    ok = True
    for i, args in enumerate(commands):
        a = tmp_path / f"run{i}a.csv"
        b = tmp_path / f"run{i}b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    assert _note("13", ok, f"{len(commands)} commands byte-identical on rerun")
