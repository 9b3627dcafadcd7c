import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

import steinshrink as ss
from steinshrink.errors import GuardAbort, ParameterError
from steinshrink.risk_lab import b_lambda, improvement_window_nonempty
from conftest import assert_close_within, assert_zero_within


def _inv_chi2_moment(d, power=1):
    """Quadrature oracle for E[(chi^2_d)^(-power)]."""
    val, _ = quad(lambda x: x ** (-power) * chi2.pdf(x, d), 0, np.inf, epsrel=1e-11, limit=300)
    return val


# -- Monte Carlo risks -----------------------------------------------------------


def test_identity_risk_is_trace():
    model = ss.StudentT(6, 8, "scaled:1")
    rep = ss.mc_risk(model, ss.Identity(), 200_000, 81)
    assert_close_within(rep, model.moments().trace_cov)


def test_gaussian_james_stein_exact_risk_vs_quadrature_oracle():
    # E[1/chi^2_5] = 1/3 by quadrature; risk = d + lam(lam - 2(d-2)) E[1/chi^2_d]
    e_inv = _inv_chi2_moment(5)
    assert e_inv == pytest.approx(1.0 / 3.0, rel=1e-9)
    exact = 5 + 3.0 * (3.0 - 6.0) * e_inv
    rep = ss.mc_risk(ss.GaussianIso(5, 1.0), ss.JamesStein(3.0), 400_000, 82)
    assert exact == pytest.approx(2.0)
    assert_close_within(rep, exact)


def test_boundary_lambda_recovers_identity_risk():
    rep = ss.mc_risk(ss.GaussianIso(5, 1.0), ss.JamesStein(6.0), 400_000, 83)
    assert_close_within(rep, 5.0)


def test_mc_risk_guard_aborts_on_singular_mass():
    model = ss.GaussianIso(3, 0.0)  # every draw sits at the origin
    with pytest.raises(GuardAbort):
        ss.mc_risk(model, ss.JamesStein(1.0), 1000, 84)


def test_excess_risk_zero_lambda_is_exactly_zero():
    rep = ss.mc_excess_risk(ss.GaussianIso(5, 1.0), 0.0, 10_000, 85)
    assert rep.mean == 0.0 and rep.stderr == 0.0


def test_excess_risk_gaussian_closed_value():
    rep = ss.mc_excess_risk(ss.GaussianIso(5, 1.0), 3.0, 400_000, 86)
    assert_close_within(rep, -3.0)


def test_sure_bias_gaussian_is_zero():
    model = ss.GaussianIso(5, 1.0, "scaled:1.5")
    for est in (ss.JamesStein(3.0), ss.SoftThreshold(1.0)):
        assert_zero_within(ss.sure_bias(model, est, 300_000, 87))


def test_sure_bias_student_bounded_by_twice_b_star():
    model = ss.StudentT(6, 6)
    lam = 4.0
    bias = ss.sure_bias(model, ss.JamesStein(lam), 400_000, 88)
    bstar = ss.bound_b_star(ss.coupling_for(model), lam, 400_000, 89)
    slack = 3.0 * math.hypot(bias.stderr, 2.0 * bstar.stderr)
    assert abs(bias.mean) <= 2.0 * bstar.mean + slack


# -- closed-form bounds ------------------------------------------------------------


def test_bound_thm31_values():
    base = dict(d=5, trace_sigma=5.0, alpha_minus=1.0, alpha_plus=1.0)
    assert ss.bound_thm31(ss.BoundInputs(lam=0.0, e_inv2=0.25, **base)) == 5.0
    bound = ss.bound_thm31(ss.BoundInputs(lam=3.0, e_inv2=1.0 / 3.0, **base))
    assert bound == pytest.approx(5 - 3 * (1 / 3) * (10 - 4 - 3))
    assert bound == pytest.approx(2.0)


def test_improvement_window_threshold():
    # alpha_+ / alpha_- = 2 needs d >= 5
    assert not improvement_window_nonempty(4, 1.0, 2.0)
    assert improvement_window_nonempty(5, 1.0, 2.0)


def test_bound_thm31_requires_inputs():
    with pytest.raises(ParameterError):
        ss.bound_thm31(ss.BoundInputs(lam=1.0, d=5))


def test_bound_thm33_gaussian_reduces_to_exact_identity():
    # zero discrepancy: the bound equals the exact risk at lam in {0, d-2, 2(d-2)}
    model = ss.GaussianIso(5, 1.0)
    disc = ss.discrepancy_stats(model, ss.gaussian_kernel(model.cov()), 10_000, 90)
    e_inv2 = _inv_chi2_moment(5)
    for lam in (0.0, 3.0, 6.0):
        inputs = ss.BoundInputs(
            lam=lam, d=5, trace_sigma=5.0, kappa=1.0, e_inv2=e_inv2,
            e_d2_inv4=25 * _inv_chi2_moment(5, 2), discrepancy=disc,
        )
        bound = ss.bound_thm33(inputs)
        rep = ss.mc_risk(model, ss.JamesStein(lam), 400_000, 91)
        assert b_lambda(inputs) == 0.0
        assert_close_within(rep, bound)


def test_bound_thm33_student_finite_and_dominates_mc():
    d = k = 6
    model = ss.StudentT(d, k, "scaled:1")
    lam = 4.0
    consts = ss.student_constants(d, k, lam)
    disc = ss.discrepancy_stats(model, ss.student_kernel(k, d), 400_000, 92)
    inputs = ss.BoundInputs(
        lam=lam,
        d=d,
        trace_sigma=model.moments().trace_cov,
        kappa=model.moments().kappa,
        e_inv2=ss.mc_e_inv2(model, 400_000, 93).mean,
        e_d2_inv4=consts["e_d2_inv4_bound"],
        discrepancy=disc,
    )
    bound = ss.bound_thm33(inputs)
    assert math.isfinite(bound)
    rep = ss.mc_risk(model, ss.JamesStein(lam), 400_000, 94)
    assert rep.mean - 3 * rep.stderr <= bound


def test_bound_thm33_middle_term_specialization():
    # at lam = Tr Sigma - 2 kappa the middle term is -e_inv2 (Tr Sigma - 2 kappa)^2
    trace, kappa, e_inv2 = 9.0, 1.5, 0.11
    lam = trace - 2 * kappa
    disc = ss.DiscrepancyStats(0, 0, 0, 0, 0, 0, 2, 0)
    inputs = ss.BoundInputs(
        lam=lam, d=6, trace_sigma=trace, kappa=kappa, e_inv2=e_inv2, e_d2_inv4=1.0, discrepancy=disc
    )
    assert ss.bound_thm33(inputs) == pytest.approx(trace - e_inv2 * lam**2)


# -- B* estimates and bounds --------------------------------------------------------


def test_b_star_gaussian_zero_under_every_path():
    d = 6
    g = ss.GaussianIso(d, 1.0, "scaled:1")
    halves = lambda: ss.couple_independent(ss.GaussianIso(d, 0.5))
    prod = ss.ProductIID(d, ss.Gaussian1D(1.0))
    paths = {
        "independent": ss.couple_independent(g),
        "fixed-point": ss.couple_gaussian(g),
        "sum": ss.zb_sum(g, [halves(), halves()]),
        "mixture": ss.zb_mixture(
            g,
            [ss.couple_independent(ss.GaussianIso(d, 1.0)) for _ in range(2)],
            [0.5, 0.5],
        ),
        "linear": ss.zb_linear(
            np.eye(d), ss.couple_independent(prod), base_model=ss.LinearTransform(np.eye(d), prod, "scaled:1")
        ),
    }
    for name, coup in paths.items():
        rep = ss.bound_b_star(coup, 4.0, 200_000, 95)
        assert rep.mean <= 3 * rep.stderr, name


def test_b_star_gaussian_fixed_point_draws_nothing(monkeypatch):
    # every companion of the fixed-point coupling is X, so B* is n exact
    # zeros: the report is, bit for bit, that of the pass over its chunks
    from steinshrink import _mc
    from steinshrink.testfns import shrink_direction

    monkeypatch.setattr(_mc, "_CHUNK_BUDGET", 1000 * 200)  # 4 chunks of rows
    coupling = ss.couple_gaussian(ss.GaussianIso(200, 1.0, "scaled:1"))
    lam, n, seed = 198.0, 3001, 7
    g0, weights = shrink_direction(), coupling.sigma

    def difference(chunk):
        g0.guard(chunk.X)
        return {"b_star": chunk.weighted_partials(g0)[0] - g0.contract(chunk.X, weights)}

    acc = _mc.run(n, seed, coupling.d, coupling._centered, difference)["b_star"]
    want = ss.RiskReport(lam * abs(acc.mean), lam * acc.stderr, acc.n, seed, "b_star:lam=198")

    def no_draw(self, rng, rows, empty):
        raise AssertionError("the Gaussian B* pass drew its coupling")

    monkeypatch.setattr(type(coupling), "_centered", no_draw)
    got = ss.bound_b_star(coupling, lam, n, seed)
    assert got == want and (got.mean, got.stderr, got.n) == (0.0, 0.0, n)
    assert [math.copysign(1.0, v) for v in (got.mean, got.stderr)] == [1.0, 1.0]
    for bad in (0, -3):
        with pytest.raises(ParameterError):
            ss.bound_b_star(coupling, lam, bad, seed)


def test_bound_b_star_draws_the_cli_pass_stream():
    # the library's B* and the CLI's pass chunk the coupling's stream by
    # (n, d) alike, so they score the same rows: equal bits, and the
    # coupling's X is the model's draw
    from steinshrink.estimation import JamesStein
    from steinshrink.risk_lab import b_star_report, sure_pass

    model = ss.ProductIID(200, ss.Laplace1D(1.0 / math.sqrt(2.0)))
    coupling = ss.coupling_for(model)
    n, seed, lam = 20000, 3, 198.0
    got = ss.bound_b_star(coupling, lam, n, seed)
    want = b_star_report(sure_pass(model, JamesStein(lam), n, seed, coupling), lam, n, seed)
    assert got == want and got.mean > 0
    X, _ = coupling.pair_sampler(0, 0, n, seed)
    assert X.tobytes() == model.sample(n, seed).tobytes()


def test_b_star_student_nonzero_theta_bound():
    d = k = 6
    lam = 4.0
    coup = ss.couple_student(k, d, "scaled:2")
    rep = ss.bound_b_star(coup, lam, 300_000, 96)
    assert rep.mean <= 8 * lam * (d + k - 2) / ((d - 2) * k) + 3 * rep.stderr


def test_b_star_student_zero_theta_exact_value():
    # the Gamma coupling gives exactly 2 lam / (k - 2) at theta = 0
    d = k = 6
    lam = 4.0
    rep = ss.bound_b_star(ss.couple_student(k, d), lam, 400_000, 97)
    assert abs(rep.mean - 2 * lam / (k - 2)) < 3 * rep.stderr


def test_b_star_sphere_within_closed_bound():
    d, c_low = 100, 4.0
    theta = ss.parse_theta(f"scaled:{math.sqrt(c_low * d)}", d)
    coup = ss.couple_sphere(d, 1.0, theta)
    lam = float(d - 2)
    rep = ss.bound_b_star(coup, lam, 100_000, 98)
    closed = 4.0 * (d - 2) ** 2 / ((math.sqrt(c_low) - 1) ** 3 * d**2)  # bound on 2 B*
    assert 2 * rep.mean <= closed + 6 * rep.stderr


def test_b_star_closed_forms():
    # product model, theta = 0: the covariance sum drops out
    inputs = ss.BoundInputs(
        lam=2.0, d=10, trace_sigma=10.0, c4=3.0, c8=105.0, c_minus4=16.0, c_minus2=4.0
    )
    theta = np.zeros(10)
    val = ss.bound_b_star_closed(inputs, theta)
    expect = 6 * 2.0 * 4.0 / 100.0 * (10 * (math.sqrt(3.0) + math.sqrt(105.0) / 3))
    assert val == pytest.approx(expect)
    refined = ss.bound_b_star_mixture_refined(inputs, theta)
    assert refined == pytest.approx(25 * 4.0 * 2.0 / (8 * 100.0) * (10 * 1.0 + 10.0))


def test_b_star_closed_dominates_mc_for_gaussian():
    d = 10
    g = ss.GaussianIso(d, 1.0, "scaled:1")
    lam = float(d - 2)
    mc = ss.bound_b_star(ss.couple_independent(g), lam, 100_000, 99)
    c_minus4 = ss.inverse_moment_bound(1.0, 1.0, 0.5, 4, d)["bound"]
    inputs = ss.BoundInputs(
        lam=lam, d=d, trace_sigma=float(d), c4=3.0, c8=105.0, c_minus4=c_minus4
    )
    closed = ss.bound_b_star_closed(inputs, g.theta)
    assert mc.mean <= closed


def test_local_dependence_calculator():
    val = ss.local_dependence_cov_bound(2, 105.0, 1.0, 1.0, 64)
    expect = 8 * 2 * ((105 + 1) * (105 + 1)) ** 0.25 / 62**2
    assert val == pytest.approx(expect)
    with pytest.raises(ParameterError):
        ss.local_dependence_cov_bound(64, 105.0, 1.0, 1.0, 64)


# -- inverse moments -----------------------------------------------------------------


def test_inverse_moment_bound_gaussian_constants():
    out = ss.inverse_moment_bound(1.0, 1.0, 0.5, 1, 4)
    assert out == {"bound": 2.0, "valid": True}
    assert not ss.inverse_moment_bound(1.0, 1.0, 0.5, 2, 7)["valid"]
    # quadrature oracle: E[d/chi^2_d] = d/(d-2) <= 2 for d >= 4
    for d in (4, 6, 10):
        assert d * _inv_chi2_moment(d) == pytest.approx(d / (d - 2.0), rel=1e-9)
        assert d / (d - 2.0) <= 2.0


def test_mc_inverse_moment_matches_oracle():
    d = 8
    rep = ss.mc_inverse_moment(ss.GaussianIso(d, 1.0), 2, 300_000, 100)
    oracle = d**2 * _inv_chi2_moment(d, 2)
    assert_close_within(rep, oracle)


def test_jensen_lower_values_and_mc():
    assert ss.jensen_lower(np.zeros(5), 5.0) == pytest.approx(0.2)
    theta = ss.parse_theta(f"scaled:{math.sqrt(5.0)}", 5)
    lower = ss.jensen_lower(theta, 5.0)
    assert lower == pytest.approx(0.1)
    rep = ss.mc_e_inv2(ss.GaussianIso(5, 1.0, theta), 200_000, 101)
    assert rep.mean + 3 * rep.stderr >= lower
    big = ss.jensen_lower(np.full(4, 1e9), 4.0)
    assert big < 1e-17


def test_inverse_moment_order_three_runs():
    rep = ss.mc_inverse_moment(ss.GaussianIso(10, 1.0), 3, 50_000, 102)
    assert rep.mean > 0


# -- Student constants ----------------------------------------------------------------


def test_student_constants_pinned_values():
    consts = ss.student_constants(6, 6, 4.0)
    assert consts["var_trace_T"] == pytest.approx(109.35)
    assert consts["e_frob_dev_sq"] == pytest.approx(18.225)
    # arithmetic re-derivation through the Gamma-mixture fourth moments:
    # Var(sum Y_i^2) = 2 d s^4 k^2 (d+k-2) / ((k-2)^2 (k-4)) with s^2 = k/(k-2)
    d, k = 6, 6
    s2 = k / (k - 2)
    var_sum = 2 * d * s2**2 * k**2 * (d + k - 2) / ((k - 2) ** 2 * (k - 4))
    var_tr = d**2 / (d + k - 2) ** 2 * var_sum
    assert consts["var_trace_T"] == pytest.approx(var_tr)
    assert consts["e_frob_dev_sq"] == pytest.approx(var_tr / d)


def test_student_constants_validation_and_limits():
    with pytest.raises(ParameterError):
        ss.student_constants(7, 6, 1.0)  # odd d
    with pytest.raises(ParameterError):
        ss.student_constants(4, 6, 1.0)  # too small
    with pytest.raises(ParameterError):
        ss.student_constants(6, 4, 1.0)  # k < 5
    small = ss.student_constants(20, 10**6, 1.0)
    assert small["kernel_excess_bound"] < 1e-4
    # the zero-bias bound tends to 16 lam / (d-2) at fixed d, so it vanishes
    # only along k -> inf jointly with d -> inf
    assert small["zero_bias_excess_bound"] == pytest.approx(16.0 / 18.0, rel=1e-4)
    joint = ss.student_constants(2000, 10**6, 1.0)
    assert joint["zero_bias_excess_bound"] < 1e-2


def test_student_kernel_vs_zero_bias_bound_ratio_finite():
    consts = ss.student_constants(20, 10, 18.0)
    ratio = consts["kernel_excess_bound"] / consts["zero_bias_excess_bound"]
    assert 0 < ratio < 100


# -- Pinsker and adaptivity --------------------------------------------------------------


def test_pinsker_limit_values():
    assert ss.pinsker_limit(1.0, 1.0) == pytest.approx(0.5)
    assert ss.pinsker_limit(1.0, 0.0) == 0.0
    assert ss.pinsker_limit(0.0, 0.0) == 0.0
    assert abs(ss.pinsker_limit(1.0, 1e9) - 1.0) < 1e-8


def test_adaptivity_bound_kernel_values():
    val = ss.adaptivity_bound_kernel(np.zeros(100), 1.0, 100)
    assert val == pytest.approx(1 - 98**2 / 100**2)
    # with ||theta|| = c fixed the bound approaches the Pinsker limit
    d = 100_000
    theta = ss.parse_theta("scaled:1", d)
    assert ss.adaptivity_bound_kernel(theta, 1.0, d) == pytest.approx(0.5, abs=1e-3)


def test_adaptivity_bound_zero_bias_term_vanishes():
    vals = []
    for d in (100, 1000, 10000):
        theta = ss.parse_theta("scaled:1", d)
        full = ss.adaptivity_bound_zero_bias(theta, 1.0, d, L=5.0)
        base = ss.adaptivity_bound_zero_bias(theta, 1.0, d, L=0.0)
        vals.append(full - base)
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-3


# -- bound dominance across a model/lambda matrix -----------------------------------------


@pytest.mark.parametrize(
    "model,lam",
    [
        (ss.GaussianIso(6, 1.0, "scaled:1"), 4.0),
        (ss.StudentT(6, 6, "scaled:1"), 4.0),
        (ss.ProductIID(6, ss.Laplace1D(1 / math.sqrt(2)), "scaled:1"), 4.0),
    ],
)
def test_zero_bias_risk_bound_dominates_mc(model, lam):
    mom = model.moments()
    coup = ss.coupling_for(model)
    bstar = ss.bound_b_star(coup, lam, 200_000, 103)
    e_inv2 = ss.mc_e_inv2(model, 200_000, 104).mean
    bound = mom.trace_cov + lam * e_inv2 * (lam - 2 * (mom.trace_cov - 2 * mom.kappa)) + 2 * bstar.mean
    rep = ss.mc_risk(model, ss.JamesStein(lam), 200_000, 105)
    assert rep.mean - 3 * rep.stderr <= bound
