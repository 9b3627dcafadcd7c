import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

import steinshrink as ss
from steinshrink import _mc
from steinshrink._mc import chunk_rows, substream
from steinshrink.errors import MomentUnavailableError, ParameterError


def _family_zoo(d):
    zoo = {
        "gaussian": ss.GaussianIso(d, 1.3, "scaled:1"),
        "laplace": ss.ProductIID(d, ss.Laplace1D(0.8), "scaled:1"),
        "uniform": ss.ProductIID(d, ss.Uniform1D(1.1), "scaled:1"),
        "smoothed": ss.ProductIID(d, ss.SmoothedRademacher1D(1.0, 0.2), "scaled:1"),
        "student": ss.StudentT(d, 7, "scaled:1"),
        "ball": ss.BallUniform(d, 1.0, "scaled:1"),
        "corrupt-add": ss.AdditiveCorruption(0.25, ss.StudentT(d, 7), "scaled:1"),
        "corrupt-mix": ss.MixingCorruption(0.25, ss.StudentT(d, 7), "scaled:1"),
    }
    if d >= 2:
        zoo["sphere"] = ss.SphereUniform(d, 1.0, "scaled:1")
        zoo["mixture"] = ss.Mixture(
            [ss.GaussianIso(d, 1.0), ss.ProductIID(d, ss.Laplace1D(1 / math.sqrt(2)))],
            [0.5, 0.5],
            "scaled:1",
        )
    return zoo


@pytest.mark.parametrize("d", [3, 5, 10])
def test_sample_mean_and_covariance_converge(d):
    n = 1_000_000
    for name, model in _family_zoo(d).items():
        mom = model.moments()
        X = model.sample(n, 99)
        err = np.linalg.norm(X.mean(axis=0) - model.theta)
        assert err < 4.0 * math.sqrt(mom.trace_cov / n), (name, d, err)
        if mom.c4 is not None:
            emp = np.cov(X.T) if d > 1 else np.atleast_2d(np.var(X, ddof=1))
            frob = np.linalg.norm(emp - mom.cov)
            assert frob < 5.0 * d * math.sqrt(mom.c4 / n), (name, d, frob)


def test_degenerate_gaussian_returns_theta():
    model = ss.GaussianIso(4, 0.0, "scaled:3")
    X = model.sample(3, 0)
    assert np.array_equal(X, np.tile(model.theta, (3, 1)))


def test_sphere_draws_live_on_the_radius():
    model = ss.SphereUniform(4, 1.0)
    X = model.sample(50, 1)
    norms = np.linalg.norm(X, axis=1)
    assert np.allclose(norms, 2.0, atol=1e-12)


def test_student_sample_covariance_matches_reported():
    model = ss.StudentT(6, 6)
    X = model.sample(1_000_000, 3)
    emp = np.einsum("ni,nj->ij", X, X) / X.shape[0]
    # coordinate variance of the Gamma-mixture law is (k/(k-2))^2 = 2.25
    assert abs(emp[0, 0] - model.sigma2) < 0.05
    assert model.sigma2 == pytest.approx((6 / 4) ** 2)


def test_mixing_corruption_at_zero_eps_is_gaussian():
    mix = ss.MixingCorruption(0.0, ss.StudentT(5, 6), "scaled:1")
    gauss = ss.GaussianIso(5, ss.StudentT(5, 6).sigma2, "scaled:1")
    a = mix.sample(100_000, 4)
    b = gauss.sample(100_000, 5)
    for i in range(5):
        assert ks_2samp(a[:, i], b[:, i]).pvalue > 0.001


def _out_of_place_draw(model, rng, m):
    """The centered draw as first written, each scaling making a new array."""
    d = model.d
    if isinstance(model, ss.StudentT):
        g = rng.gamma(model.k / 2.0, 2.0 / model.k, m)
        return math.sqrt(model.scale2) * rng.standard_normal((m, d)) / np.sqrt(g)[:, None]
    if isinstance(model, ss.AdditiveCorruption):
        y0 = rng.normal(0.0, math.sqrt(model.sigma2), (m, d))
        y1 = _out_of_place_draw(model.outlier, rng, m)
        return math.sqrt(1.0 - model.eps) * y0 + math.sqrt(model.eps) * y1
    g = rng.standard_normal((m, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    if isinstance(model, ss.SphereUniform):
        return model.radius * g
    r = rng.uniform(0.0, 1.0, m) ** (1.0 / d)
    return model.radius * r[:, None] * g


@pytest.mark.parametrize("name", ["student", "sphere", "ball", "corrupt-add"])
def test_in_place_draws_keep_the_bits(name):
    # `draw` shifts the draw in place and _fill scales it in place; the
    # float operations and their order are those of the out-of-place form
    model = _family_zoo(7)[name]
    X = model.sample(500, 29)
    want = model.theta + _out_of_place_draw(model, substream(29, 0), 500)
    assert np.array_equal(X.view(np.uint64), want.view(np.uint64))


def _peak_chunks(monkeypatch, model, chunks):
    """Peak traced memory of a pass over `chunks` full chunks of draws on two
    threads, in chunk sizes; a full chunk is 32 draw tasks."""
    monkeypatch.setattr(_mc, "_usable_cores", lambda: 2)
    rows = chunk_rows(model.d)
    tracemalloc.start()
    try:
        _mc.run(chunks * rows, 31, model.d, model.draw, lambda X: {"x": X[:, 0]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (rows * model.d * 8)


@pytest.mark.parametrize("model", [ss.GaussianIso(400, 1.3), ss.StudentT(400, 7)],
                         ids=["gaussian", "student"])
def test_in_place_draws_hold_one_chunk(monkeypatch, model):
    # each draw task writes its rows into a buffer of a finished task, with
    # no chunk-sized temporary: a pass holds about one task per thread and
    # never a chunk (2.5 tasks measured)
    assert _peak_chunks(monkeypatch, model, 2) < 4 / 32


def test_mixture_draw_holds_about_one_chunk(monkeypatch):
    # a mixture copies each draw task's fresh draw into its buffer, so its
    # fancy-index copy is one task's worth, not a chunk's (4.1 tasks measured)
    assert _peak_chunks(monkeypatch, ss.MixingCorruption(0.1, ss.StudentT(400, 7)), 2) < 6 / 32


def test_select_lambda_pass_holds_no_task_sized_temporaries(monkeypatch):
    # `sure --select-lambda` scores a draw task's rows a row block at a time
    # (`_mc.in_blocks`), so its several (rows, d) and (rows, G) temporaries are
    # a block's, not a task's: at d = 1024 and 4000 rows on two threads the
    # pass peaks at 6.5-6.9 MB in blocks of at most 64 rows (5.6 MB in 16-row
    # blocks), where whole tasks peaked at 17.8 MB
    from steinshrink import cli

    monkeypatch.setattr(_mc, "_usable_cores", lambda: 2)
    peaks = []

    def traced(*args):
        tracemalloc.start()
        try:
            accs = _mc.run(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return accs

    monkeypatch.setattr(cli, "run", traced)
    args = ["sure", "--model", "gaussian", "--d", "1024", "--theta", "scaled:3", "--select-lambda",
            "--reps", "4000", "--seed", "7", "--out", os.devnull]
    assert cli.main(args) == 0
    assert len(peaks) == 1 and peaks[0] < 7e6


def test_coordinate_variance_is_the_covariance_diagonal_without_the_matrix(monkeypatch):
    # the bits of cov()[i, i] for every family; all but a linear image (whose
    # diagonal is that of a BLAS product) build no d x d matrix for it
    d = 7
    A = np.random.default_rng(3).normal(size=(d, d)) + 3 * np.eye(d)
    linear = ss.LinearTransform(A, ss.StudentT(d, 7), "scaled:1")
    assert [linear.coordinate_variance(i) for i in range(d)] == list(np.diagonal(linear.cov()))
    zoo = {**_family_zoo(d), "elliptical": ss.Elliptical.student(d, 7, "scaled:1")}
    want = {name: [float(model.cov()[i, i]) for i in range(d)] for name, model in zoo.items()}

    def no_matrix(self):
        raise AssertionError("built the covariance matrix")

    monkeypatch.setattr(ss.NoiseModel, "cov", no_matrix)
    monkeypatch.setattr(ss.Mixture, "cov", no_matrix)
    monkeypatch.setattr(ss.Elliptical, "cov", no_matrix)
    for name, model in zoo.items():
        got = [model.coordinate_variance(i) for i in range(d)]
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want[name]).view(np.uint64)), name


def test_pinsker_scaling_divides_variance_by_d():
    d = 50
    model = ss.GaussianIso(d, 1.0, scaling="pinsker")
    assert model.sigma2 == pytest.approx(1.0 / d)
    X = model.sample(200_000, 6)
    assert np.allclose(X.var(axis=0).mean(), 1.0 / d, rtol=0.05)
    prod = ss.ProductIID(d, ss.Laplace1D(1 / math.sqrt(2)), scaling="pinsker")
    assert prod.sigma2 == pytest.approx(1.0 / d)


# -- moments ----------------------------------------------------------------


def test_student_moments_match_family_values():
    mom = ss.StudentT(6, 6).moments()
    s2 = 6 / 4
    assert mom.cov[0, 0] == pytest.approx(s2**2)
    assert mom.trace_cov == pytest.approx(6 * s2**2)
    # fourth moment of the mixture law: 3 s^4 k^2 / ((k-2)(k-4))
    assert mom.c4 == pytest.approx(3 * s2**2 * 36 / (4 * 2))
    assert mom.c8 is None  # needs k > 8
    assert ss.StudentT(6, 10).moments().c8 is not None
    with pytest.raises(MomentUnavailableError):
        ss.StudentT(6, 6).moment_cap(8)


def test_sphere_cov_is_sigma2_identity():
    mom = ss.SphereUniform(7, 1.7).moments()
    assert np.allclose(mom.cov, 1.7**2 * np.eye(7))


def test_mixture_of_identical_gaussians_keeps_cov():
    mix = ss.Mixture([ss.GaussianIso(4, 1.0), ss.GaussianIso(4, 1.0)], [0.5, 0.5])
    assert np.allclose(mix.moments().cov, np.eye(4))


def test_linear_transform_cov():
    A = np.array([[1.0, 0.5], [0.0, 2.0]])
    base = ss.ProductIID(2, ss.Laplace1D(0.5))
    model = ss.LinearTransform(A, base)
    assert np.allclose(model.moments().cov, A @ base.cov() @ A.T)


def test_additive_corruption_keeps_isotropic_cov():
    out = ss.StudentT(5, 6)
    model = ss.AdditiveCorruption(0.3, out)
    assert np.allclose(model.moments().cov, out.sigma2 * np.eye(5))
    emp = model.sample(400_000, 8)
    assert abs(np.var(emp[:, 0]) - out.sigma2) < 0.05


@pytest.mark.parametrize("d", [1, 2, 200, 1600])
def test_isotropic_kappa_is_the_largest_eigenvalue_bit_for_bit(monkeypatch, d):
    # a family whose covariance is sigma2 Id reads kappa off sigma2, with the
    # bits of eigvalsh(sigma2 Id)[-1] and without calling it; the others
    # still take it from their covariance's eigenvalues
    models = [ss.GaussianIso(d, 1.7), ss.GaussianIso(d, 0.0), ss.StudentT(d, 7), ss.BallUniform(d, 1.3),
              ss.ProductIID(d, ss.Laplace1D(0.9)), ss.ProductIID(d, ss.Uniform1D(1.1), scaling="pinsker"),
              ss.ProductIID(d, ss.SmoothedRademacher1D(0.8, 0.2)),
              ss.AdditiveCorruption(0.2, ss.StudentT(d, 6))]
    models += [ss.SphereUniform(d, 0.7)] if d >= 2 else []
    want = [float(np.linalg.eigvalsh(model.cov())[-1]) for model in models]

    def refused(*args, **kwargs):
        raise AssertionError("eigvalsh called on an isotropic covariance")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    for model, kappa in zip(models, want):
        got = model.moments().kappa
        assert np.float64(got).tobytes() == np.float64(kappa).tobytes(), type(model).__name__
    mixed = ss.MixingCorruption(0.3, ss.StudentT(d, 6))  # a mixture's covariance is its own
    with pytest.raises(AssertionError, match="eigvalsh"):
        mixed.moments()


def test_moment_caps_respect_lyapunov():
    for model in _family_zoo(5).values():
        mom = model.moments()
        if mom.c4 is not None and mom.c8 is not None:
            assert mom.c8 >= mom.c4**2 - 1e-9


# each law with the bits of its sixth moment as a ProductIID coordinate, and
# Pinsker-scaled at d = 9
_LAWS_AND_SIXTH_MOMENTS = [
    (ss.Gaussian1D(0.7), 1.7647349999999995, 0.0024207613168724263),
    (ss.Laplace1D(1.3), 3475.3024800000007, 4.7672187654321),
    (ss.Uniform1D(2.1), 12.252303000000003, 0.016806999999999996),
    (ss.SmoothedRademacher1D(0.8, 0.15), 0.41513485937500016, 0.0005694579689643347),
]


@pytest.mark.parametrize("law, sixth, sixth_pinsker", _LAWS_AND_SIXTH_MOMENTS,
                         ids=[row[0].name for row in _LAWS_AND_SIXTH_MOMENTS])
def test_law_moments_match_quadrature_and_scale(law, sixth, sixth_pinsker):
    r = law.support_radius or 60.0 * math.sqrt(law.variance)
    points = (law.c,) if isinstance(law, ss.SmoothedRademacher1D) else None

    def moment(p):  # the law is symmetric: twice the integral over [0, r]
        value, _ = quad(lambda y: y**p * law.pdf(y), 0.0, r, points=points,
                        epsabs=0.0, epsrel=1e-12, limit=400)
        return 2.0 * value

    f = 0.6
    small = law.scaled(f)
    assert type(small) is type(law)
    for p, name in ((2, "variance"), (4, "c4"), (6, "c6"), (8, "c8")):
        assert getattr(law, name) == pytest.approx(moment(p), rel=1e-9), name
        assert getattr(small, name) == pytest.approx(f**p * getattr(law, name), rel=1e-12), name
    assert ss.ProductIID(4, law).coordinate_moment(6) == sixth
    assert ss.ProductIID(9, law, scaling="pinsker").coordinate_moment(6) == sixth_pinsker


def test_additive_corruption_eighth_moment_keeps_its_value():
    outlier = ss.ProductIID(4, ss.Laplace1D(1 / math.sqrt(2)))
    model = ss.AdditiveCorruption(0.3, outlier)
    assert model.coordinate_moment(6) == 19.859999999999985
    assert model.coordinate_moment(8) == 192.0344999999998


# -- densities ---------------------------------------------------------------


def test_density_unavailable_cases():
    assert not ss.SphereUniform(4, 1.0).has_density()
    assert not ss.FourPointDegenerate().has_density()
    assert not ss.AdditiveCorruption(1.0, ss.SphereUniform(4, 1.0)).has_density()
    assert not ss.Mixture([ss.SphereUniform(4, 1.0), ss.GaussianIso(4)], [0.5, 0.5]).has_density()
    assert ss.AdditiveCorruption(0.5, ss.SphereUniform(4, 1.0)).has_density()


def test_elliptical_matches_gaussian_when_generator_is_exponential():
    d = 3
    model = ss.Elliptical(d, lambda t: math.exp(-t), np.eye(d))
    assert np.allclose(model.cov(), np.eye(d), atol=1e-9)
    X = model.sample(200_000, 9)
    assert abs(X.var(axis=0).mean() - 1.0) < 0.02


def test_elliptical_generic_sampler_handles_heavy_tails():
    model = ss.Elliptical.student(4, 6)
    ref = ss.StudentT(4, 6)
    X = model.sample(200_000, 5)
    assert abs(X.var(axis=0).mean() - model.cov()[0, 0]) < 0.05
    assert ks_2samp(X[:, 0], ref.sample(200_000, 6)[:, 0]).pvalue > 0.001


def test_elliptical_closed_form_shortcuts_agree_with_quadrature():
    d = 3
    quad_path = ss.Elliptical(d, lambda t: math.exp(-t), 2.0 * np.eye(d))
    closed = ss.Elliptical.gaussian(d, 2.0)
    assert np.allclose(closed.cov(), quad_path.cov(), atol=1e-9)

    k = 6
    stud_closed = ss.Elliptical.student(d, k)
    stud_model = ss.StudentT(d, k)
    assert np.allclose(stud_closed.cov(), stud_model.cov(), atol=1e-9)


def test_elliptical_radial_table_is_built_once_across_draw_threads(monkeypatch):
    # 30000 rows of d = 50 make 5 draw tasks, drawn on 2 threads; the first
    # task of each thread needs the 2^15-point radial table, built once
    from steinshrink import _mc

    monkeypatch.setattr(_mc, "_usable_cores", lambda: 2)
    calls = []

    def generator(t):
        calls.append(t)
        return math.exp(-t)

    model = ss.Elliptical(50, generator, np.eye(50), second_moment=50.0)
    X = model.sample(30000, 1)
    assert len(_mc._draw_cuts(30000, 50)) == 6 and X.shape == (30000, 50)
    assert 1 << 15 <= len(calls) < 1.5 * (1 << 15)


def test_elliptical_rejects_a_generator_with_no_radial_mass():
    with pytest.raises(ParameterError, match="not normalizable"):
        ss.Elliptical(3, lambda t: 0.0, np.eye(3))


# -- validity ----------------------------------------------------------------


def test_validity_kernel_threshold():
    assert ss.GaussianIso(5, 1.0).validity("kernel").ok
    report = ss.GaussianIso(4, 1.0).validity("kernel")
    assert not report.ok and "d < 5" in report.reasons


def test_validity_zerobias_sphere_shift():
    d = 6
    ok = ss.SphereUniform(d, 1.0, f"scaled:{2 * math.sqrt(d)}").validity("zerobias")
    assert ok.ok
    assert not ss.SphereUniform(d, 1.0).validity("zerobias").ok


def test_validity_four_point_flagged():
    report = ss.FourPointDegenerate().validity("zerobias")
    assert not report.ok


def test_validity_bounded_product_translation():
    # uniform coordinates shifted beyond the support width in two coordinates
    theta = np.array([3.0, -3.0, 0.0])
    model = ss.ProductIID(3, ss.Uniform1D(1.0), theta)
    assert model.validity("zerobias").ok


# -- parameter errors ---------------------------------------------------------


def test_parameter_errors():
    with pytest.raises(ParameterError):
        ss.StudentT(6, 4)
    with pytest.raises(ParameterError):
        ss.AdditiveCorruption(1.5, ss.StudentT(4, 6))
    with pytest.raises(ParameterError):
        ss.Mixture([ss.GaussianIso(3, 1.0)], [0.5])
    with pytest.raises(ParameterError):
        ss.LinearTransform(np.zeros((2, 2)), ss.GaussianIso(2, 1.0))
    with pytest.raises(ParameterError):
        ss.Elliptical(2, lambda t: math.exp(-t), -np.eye(2))


# -- theta parsing ------------------------------------------------------------


def test_parse_theta_forms(tmp_path):
    assert np.array_equal(ss.parse_theta("zero", 3), np.zeros(3))
    scaled = ss.parse_theta("scaled:2", 4)
    assert np.dot(scaled, scaled) == pytest.approx(4.0)
    path = tmp_path / "theta.txt"
    path.write_text("1.5\n-2.0\n0.25\n")
    assert np.array_equal(ss.parse_theta(str(path), 3), np.array([1.5, -2.0, 0.25]))
    with pytest.raises(ParameterError):
        ss.parse_theta(str(path), 4)
    with pytest.raises(ParameterError):
        ss.parse_theta("scaled:x", 3)


# -- start-up on numpy alone: scipy is imported on first use -----------------------


def _python(code, *args):
    """stdout of `code` run in a fresh interpreter on this test's sys.path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_leaves_scipy_stats_unloaded():
    assert _python("import sys, steinshrink; print('scipy.stats' in sys.modules)") == "False"


def test_import_leaves_scipy_integrate_unloaded():
    # quadrature.quad imports it on first use; Monte Carlo runs never integrate
    assert _python("import sys, steinshrink; print('scipy.integrate' in sys.modules)") == "False"


def test_cli_import_loads_numpy_random_and_no_scipy():
    code = (
        "import sys\n"
        "from steinshrink import cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), 'numpy.random' in sys.modules)"
    )
    assert _python(code) == "[] True"


_EVERY_BENCHMARK_KIND = """
import sys
import numpy as np
import steinshrink as ss
from steinshrink import cli

out = sys.argv[1]
for argv in (
    ["risk", "--bounds", "--model", "laplace", "--d", "12", "--lambda", "10", "--reps", "200"],
    ["risk", "--bounds", "--model", "gaussian", "--d", "12", "--lambda", "10", "--reps", "200"],
    ["sure", "--model", "student", "--d", "8", "--k", "6", "--lambda", "6", "--reps", "300"],
    ["sure", "--model", "gaussian", "--d", "32", "--select-lambda", "--reps", "100"],
    ["adaptivity", "--model", "laplace", "--c", "1", "--d-list", "10,20", "--reps", "200"],
):
    assert cli.main(argv + ["--seed", "3", "--out", out]) == 0, argv
d, n = 8, 300
student = ss.StudentT(d, 6, "scaled:1")
laplace = ss.ProductIID(d, ss.Laplace1D(0.7), "scaled:1")
fns = (ss.shrink_direction(), ss.linear_map(np.random.default_rng(0).normal(size=(d, d))))
for model, kernel in ((student, ss.student_kernel(6, d)), (laplace, ss.product_kernel([laplace.law] * d))):
    coupling = ss.coupling_for(model)
    for fn in fns:
        ss.stein_identity_residual(model, kernel, fn, n, 4)
        ss.zb_identity_residual(model, coupling, fn, n, 5)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_benchmark_operation_kinds_load_no_scipy(tmp_path):
    # a scipy import inside a timed operation would add about 0.3 s to it
    assert _python(_EVERY_BENCHMARK_KIND, str(tmp_path / "out.csv")) == "[]"


def test_deferred_scipy_special_callers_keep_the_bits():
    from scipy.special import ndtr

    from steinshrink.laws1d import _normal_sf

    y = np.linspace(-9.0, 9.0, 3601)
    assert np.array_equal(_normal_sf(y, 0.8, 0.15), ndtr(-(y - 0.8) / 0.15))


def test_smoothed_rademacher_matches_scipy_norm():
    from scipy.stats import norm

    law = ss.SmoothedRademacher1D(0.8, 0.15)
    c, h = law.c, law.h
    y = np.linspace(-9.0, 9.0, 3601)  # reaches 50 h past both atoms
    log_pdf = np.logaddexp(norm.logpdf(y, c, h), norm.logpdf(y, -c, h)) - math.log(2.0)
    up = c * norm.sf(y, c, h) + h**2 * norm.pdf(y, c, h)
    dn = -c * norm.sf(y, -c, h) + h**2 * norm.pdf(y, -c, h)
    tail = 0.5 * (up + dn)
    np.testing.assert_allclose(law.log_pdf(y), log_pdf, rtol=1e-13, atol=0)
    np.testing.assert_allclose(law.tail_first_moment(y), tail, rtol=1e-13, atol=0)
    inner = np.abs(y) < 3.0  # where the density stays positive in floating point
    np.testing.assert_allclose(
        law.kernel(y[inner]), tail[inner] / np.exp(log_pdf[inner]), rtol=1e-13, atol=0
    )
