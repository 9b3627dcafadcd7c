import math

import numpy as np
import pytest
import sympy
from scipy.integrate import quad

import steinshrink as ss
from steinshrink import _mc
from steinshrink.errors import ParameterError
from steinshrink.quadrature import RadialProfile, tail_integral
from steinshrink.stein_kernels import MixtureKernel, discrepancy_of
from steinshrink.testfns import coordinate_quadratic, linear_map, shrink_direction
from steinshrink.zero_bias import identity_residual
from conftest import assert_close_within, assert_zero_within
from oracles import full_matrix


# -- Gaussian fixed point: every construction returns Sigma ------------------


def test_gaussian_fixed_point_all_paths(rng):
    d = 5
    sigma2 = 1.7
    Y = rng.normal(0.0, math.sqrt(sigma2), (64, d))
    target = sigma2 * np.eye(d)

    const = ss.gaussian_kernel(target)
    assert np.allclose(const.matrices(Y), target, atol=1e-12)

    ell = ss.elliptical_kernel(lambda t: math.exp(-t), target, exact=True)
    assert np.allclose(ell.matrices(Y), target, atol=1e-10)

    prod = ss.product_kernel([ss.Gaussian1D(math.sqrt(sigma2))] * d)
    assert np.allclose(prod.matrices(Y), target, atol=1e-12)

    A = np.diag([1.0, 2.0, 0.5, 1.5, 3.0])
    trans = ss.transform_kernel(ss.gaussian_kernel(np.eye(d)), A)
    assert np.allclose(trans.matrices(Y), A @ A.T, atol=1e-12)


def test_transform_round_trip_restores_kernel(rng):
    d = 4
    base = ss.product_kernel([ss.Laplace1D(0.8)] * d)
    A = rng.normal(size=(d, d)) + 3 * np.eye(d)
    twice = ss.transform_kernel(ss.transform_kernel(base, A), np.linalg.inv(A))
    Y = rng.laplace(0, 0.8, (32, d))
    assert np.allclose(twice.matrices(Y), base.matrices(Y), atol=1e-10)


def test_transform_requires_invertible():
    with pytest.raises(ParameterError):
        ss.transform_kernel(ss.gaussian_kernel(np.eye(2)), np.zeros((2, 2)))


# -- Student closed form ------------------------------------------------------


def test_student_kernel_at_origin_matches_display():
    # (0 + k s^2) / (d + k - 2) = 9/10 at k = d = 6
    kern = ss.student_kernel(6, 6)
    assert np.allclose(kern.matrices(np.zeros((1, 6)))[0], 0.9 * np.eye(6), atol=1e-14)


def test_student_kernel_gaussian_limit():
    kern = ss.student_kernel(10**6, 4)
    y = np.array([0.3, -1.0, 2.0, 0.1])
    assert np.allclose(kern.matrices(y[None])[0], np.eye(4), atol=1e-4)


def test_student_kernel_trace_unbiased_for_model_cov():
    model = ss.StudentT(6, 6)
    kern = ss.student_kernel(6, 6)
    disc = ss.discrepancy_stats(model, kern, 400_000, 21)
    assert abs(disc.e_trace_T - model.moments().trace_cov) < 3 * disc.e_trace_T_stderr


@pytest.mark.parametrize(
    "model,kern_builder",
    [
        (ss.StudentT(6, 6), lambda m: ss.student_kernel(6, 6)),
        (ss.ProductIID(8, ss.Laplace1D(0.8)), lambda m: ss.product_kernel([m.law] * 8)),
        (ss.ProductIID(4, ss.Uniform1D(1.2)), lambda m: ss.product_kernel([m.law] * 4)),
    ],
)
def test_kernel_entries_unbiased_for_covariance(model, kern_builder):
    # |MC mean of T entries - Sigma entries| < 4 stderr, entrywise
    kern = kern_builder(model)
    d, n = model.d, 400_000

    def entries(X):
        mats = kern.matrices(X - model.theta)
        return {(i, j): mats[:, i, j] for i in range(d) for j in range(d)}

    accs = _mc.run(n, 22, d, model.draw, entries)
    mean = np.array([[accs[i, j].mean for j in range(d)] for i in range(d)])
    se = np.array([[accs[i, j].stderr for j in range(d)] for i in range(d)])
    gap = np.abs(mean - full_matrix(model.cov()))
    assert np.all(gap <= 4.0 * np.maximum(se, 1e-12))


# -- elliptical generators against symbolic tail integrals -------------------


def test_elliptical_ratio_power_law_vs_sympy():
    a = 2.5
    u, t = sympy.symbols("u t", positive=True)
    tail = sympy.integrate((1 + u) ** (-a), (u, t, sympy.oo))
    expected = sympy.lambdify(t, tail / (1 + t) ** (-a))
    prof = RadialProfile(lambda v: (1.0 + v) ** (-a))
    for q in (0.0, 0.3, 2.0, 11.0):
        assert prof.exact(q)[0] == pytest.approx(expected(q / 2.0), rel=1e-9)


def test_elliptical_student_ratio_matches_closed_form():
    k, d = 6, 6
    prof = RadialProfile(lambda v: (1.0 + 2.0 * v / k) ** (-(k + d) / 2.0))
    for q in (0.0, 1.0, 4.0, 16.0):
        assert prof.exact(q)[0] == pytest.approx((q + k) / (d + k - 2.0), rel=1e-10)


def test_elliptical_quadrature_agrees_with_student_closed_form(rng):
    # the two kernel construction paths agree pointwise to 1e-8
    k, d = 6, 6
    s2 = k / (k - 2.0)
    closed = ss.student_kernel(k, d)
    quadpath = ss.elliptical_kernel(
        lambda v: (1.0 + 2.0 * v / k) ** (-(k + d) / 2.0), s2 * np.eye(d), exact=True
    )
    pts = rng.normal(0.0, 2.0, (100, d))
    assert np.allclose(quadpath.matrices(pts), closed.matrices(pts), atol=1e-8)
    assert np.allclose(full_matrix(quadpath.sigma), full_matrix(closed.sigma), atol=1e-8)


def test_elliptical_kernel_table_close_to_exact(rng):
    k, d = 6, 4
    gen = lambda v: (1.0 + 2.0 * v / k) ** (-(k + d) / 2.0)
    exact = ss.elliptical_kernel(gen, np.eye(d), exact=True)
    tabled = ss.elliptical_kernel(gen, np.eye(d), q_table_max=500.0)
    pts = rng.normal(0.0, 1.5, (200, d))
    assert np.allclose(tabled.matrices(pts), exact.matrices(pts), rtol=1e-5)


# -- product kernels against integral oracles --------------------------------


def _quadrature_kernel(law, y):
    num, _ = quad(lambda u: u * law.pdf(u), y, np.inf, epsabs=1e-14, epsrel=1e-12, limit=300)
    return num / law.pdf(np.array(y))


@pytest.mark.parametrize(
    "law",
    [ss.Laplace1D(0.7), ss.Uniform1D(1.3), ss.SmoothedRademacher1D(1.0, 0.25)],
)
def test_one_dimensional_kernels_match_quadrature(law):
    ys = [-0.9, -0.2, 0.0, 0.4, 1.1]
    for y in ys:
        assert law.kernel(np.array(y)) == pytest.approx(_quadrature_kernel(law, y), rel=1e-9)


def test_laplace_kernel_closed_form():
    law = ss.Laplace1D(0.6)
    y = np.array([-1.2, 0.0, 2.0])
    assert np.allclose(law.kernel(y), 0.6 * (np.abs(y) + 0.6))


def test_uniform_kernel_closed_form():
    law = ss.Uniform1D(2.0)
    y = np.array([-1.0, 0.0, 1.5])
    assert np.allclose(law.kernel(y), (4.0 - y**2) / 2.0)


@pytest.mark.parametrize(
    "law",
    [ss.Laplace1D(0.8), ss.Gaussian1D(1.3), ss.Uniform1D(1.2), ss.SmoothedRademacher1D(1.0, 0.3)],
    ids=lambda law: law.name,
)
def test_shared_law_block_kernel_matches_column_stack_bit_for_bit(law):
    for rows, d in ((4000, 33), (1, 5)):
        Y = law.sample(np.random.default_rng(rows + d), (rows, d))  # inside the support
        kern = ss.product_kernel([law] * d)
        assert kern.shared_kernel is not None
        want = np.stack([law.kernel(Y[:, i]) for i in range(d)], axis=1)
        assert np.array_equal(kern.diagonals(Y).view(np.uint64), want.view(np.uint64))
    equal_copies = ss.product_kernel([ss.Laplace1D(0.8), ss.Laplace1D(0.8)])
    assert equal_copies.shared_kernel is not None


def test_mixed_laws_keep_the_column_path():
    laws = [ss.Laplace1D(0.8), ss.Gaussian1D(1.3), ss.Laplace1D(0.9)]
    kern = ss.product_kernel(laws)
    assert kern.shared_kernel is None
    Y = np.random.default_rng(5).normal(size=(50, 3))
    want = np.stack([law.kernel(Y[:, i]) for i, law in enumerate(laws)], axis=1)
    assert np.array_equal(kern.diagonals(Y), want)
    raw = ss.product_kernel([laws[0].kernel] * 3, variances=[1.28] * 3)
    assert raw.shared_kernel is None


# -- identity residuals -------------------------------------------------------


def _fams(d):
    rng = np.random.default_rng(7)
    return [linear_map(rng.normal(size=(d, d))), coordinate_quadratic(0), shrink_direction()]


def test_identity_residual_student_all_fns():
    model = ss.StudentT(6, 6)
    kern = ss.student_kernel(6, 6)
    for fn in _fams(6):
        assert_zero_within(ss.stein_identity_residual(model, kern, fn, 300_000, 31))


def test_identity_residual_product_laplace():
    d = 6
    model = ss.ProductIID(d, ss.Laplace1D(0.9), "scaled:1")
    kern = ss.product_kernel([model.law] * d)
    for fn in _fams(d):
        assert_zero_within(ss.stein_identity_residual(model, kern, fn, 300_000, 32))


def test_identity_residual_transformed_kernel():
    d = 6
    A = np.diag([1.0, 2.0, 1.0, 3.0, 1.0, 0.5])
    base = ss.ProductIID(d, ss.Laplace1D(1.0))
    model = ss.LinearTransform(A, base, "scaled:1")
    kern = ss.transform_kernel(ss.product_kernel([base.law] * d), A)
    for fn in _fams(d):
        assert_zero_within(ss.stein_identity_residual(model, kern, fn, 300_000, 33))


def test_identity_residual_elliptical_quadrature_path():
    k, d = 6, 6
    model = ss.StudentT(d, k, "scaled:1")
    s2 = k / (k - 2.0)
    kern = ss.elliptical_kernel(
        lambda v: (1.0 + 2.0 * v / k) ** (-(k + d) / 2.0), s2 * np.eye(d), q_table_max=1e5
    )
    for fn in _fams(d):
        assert_zero_within(ss.stein_identity_residual(model, kern, fn, 200_000, 34))


def test_wrong_kernel_is_detected():
    model = ss.GaussianIso(5, 1.0, "scaled:1")
    bad = ss.gaussian_kernel(2.0 * np.eye(5))
    fn = linear_map(np.eye(5))
    rep = ss.stein_identity_residual(model, bad, fn, 200_000, 35)
    assert_close_within(rep, -5.0)  # E<X-theta, X> - <2 Sigma, Id> = -Tr Sigma


# -- average and mixture kernels ----------------------------------------------


def test_average_kernel_single_copy_matches_base():
    model = ss.StudentT(6, 6)
    kern = ss.student_kernel(6, 6)
    one = ss.average_kernel([kern])
    d1 = ss.discrepancy_stats(model, one, 100_000, 36)
    d0 = ss.discrepancy_stats(model, kern, 100_000, 36)
    assert d1.var_trace_T == pytest.approx(d0.var_trace_T)


def test_average_kernel_variance_scales_inverse_in_copies():
    model = ss.StudentT(6, 6)
    kern = ss.student_kernel(6, 6)
    eight = ss.average_kernel([kern] * 8)
    d8 = ss.discrepancy_stats(model, eight, 400_000, 37)
    single = ss.student_constants(6, 6, 1.0)["var_trace_T"]
    assert abs(d8.var_trace_T - single / 8.0) < 4 * d8.var_trace_T_stderr


def test_average_kernel_residual():
    model = ss.StudentT(6, 6)
    kern = ss.average_kernel([ss.student_kernel(6, 6)] * 8)
    for fn in _fams(6):
        assert_zero_within(ss.stein_identity_residual(model, kern, fn, 200_000, 38))


def test_average_kernel_requires_shared_sigma():
    with pytest.raises(ParameterError):
        ss.average_kernel([ss.gaussian_kernel(np.eye(3)), ss.gaussian_kernel(2 * np.eye(3))])


def test_asymmetric_caller_matrix_is_rejected():
    from steinshrink.stein_kernels import ConstantKernel
    from steinshrink.testfns import FixedWeights

    asym = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    g = ss.GaussianIso(3, 1.0)
    constructors = [
        lambda: ss.gaussian_kernel(asym),
        lambda: ss.elliptical_kernel(lambda v: (1.0 + v / 3.0) ** -3.0, asym),
        lambda: ss.average_kernel([ConstantKernel(FixedWeights(asym))] * 2),
        lambda: ss.mixture_kernel([(g, ConstantKernel(FixedWeights(asym)))], [1.0]),
    ]
    for build in constructors:
        with pytest.raises(ParameterError, match="symmetric"):
            build()


def test_kernels_built_in_the_package_skip_the_symmetry_check(monkeypatch):
    def refuse(matrix):
        raise AssertionError("symmetry checked on a package-built matrix")

    monkeypatch.setattr("steinshrink.stein_kernels._symmetric", refuse)
    from steinshrink import cli

    d = 5
    product = ss.product_kernel([ss.Laplace1D(1.0)] * d)
    ss.student_kernel(6, d)
    ss.transform_kernel(product, np.eye(d) + 0.1)
    cli.model_kernel(ss.GaussianIso(d, 1.3))  # the covariance's weights, not a caller's matrix


def test_mixture_kernel_epsilon_scaling_of_discrepancy():
    # mixing a Gaussian with a Student at rate eps scales E||T - Sigma||^2 by eps
    d = k = 6
    eps = 0.3
    student = ss.StudentT(d, k)
    gauss = ss.GaussianIso(d, student.sigma2)
    pairs = [(gauss, ss.gaussian_kernel(gauss.cov())), (student, ss.student_kernel(k, d))]
    mixt = ss.mixture_kernel(pairs, [1 - eps, eps])
    model = ss.MixingCorruption(eps, student)
    disc = ss.discrepancy_stats(model, mixt, 400_000, 39)
    target = eps * ss.student_constants(d, k, 1.0)["e_frob_dev_sq"]
    assert abs(disc.e_frob_dev_sq - target) < 3 * disc.e_frob_dev_sq_stderr
    for fn in _fams(d):
        assert_zero_within(ss.stein_identity_residual(model, mixt, fn, 200_000, 40))


def test_mixture_kernel_of_equal_gaussians_is_constant():
    g = ss.GaussianIso(4, 1.0)
    pairs = [(g, ss.gaussian_kernel(g.cov())), (g, ss.gaussian_kernel(g.cov()))]
    mixt = ss.mixture_kernel(pairs, [0.5, 0.5])
    disc = ss.discrepancy_stats(g, mixt, 50_000, 41)
    assert disc.e_frob_dev_sq == pytest.approx(0.0, abs=1e-12)
    assert disc.var_trace_T == pytest.approx(0.0, abs=1e-12)


# -- discrepancy stats ---------------------------------------------------------


def test_discrepancy_gaussian_exactly_zero():
    g = ss.GaussianIso(6, 2.0)
    disc = ss.discrepancy_stats(g, ss.gaussian_kernel(g.cov()), 10_000, 42)
    assert disc.var_trace_T == 0.0
    assert disc.e_frob_dev_sq == 0.0


def test_discrepancy_needs_two_draws():
    g = ss.GaussianIso(3, 1.0)
    with pytest.raises(ParameterError):
        ss.discrepancy_stats(g, ss.gaussian_kernel(g.cov()), 1, 0)


def test_tail_integral_power_law():
    val = tail_integral(lambda u: (1.0 + u) ** (-3.0), 2.0)
    assert val == pytest.approx(0.5 * 3.0 ** (-2.0), rel=1e-10)


def _stream_buffers(kernel, model, rows):
    """The identity chunk of a kernel stream's draw of `rows` rows, the
    buffers it took from `empty`, and the peak traced memory of the draw."""
    import tracemalloc

    draw = kernel.stream(model)
    pool = [np.empty((rows, model.d)) for _ in range(3)]
    taken = []

    def empty(shape):
        taken.append(pool.pop())
        return taken[-1]

    tracemalloc.start()
    try:
        chunk = draw(_mc.substream(1, 0), rows, empty)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return chunk, taken, peak


def test_gaussian_kernel_stream_forms_no_array_besides_x():
    # a constant kernel's weights do not depend on X - theta, so its stream
    # draws X into its buffer and forms no other (rows, d) array
    rows, d = 2000, 200
    model = ss.GaussianIso(d, 1.3, "scaled:1")
    chunk, taken, peak = _stream_buffers(ss.gaussian_kernel(model.cov()), model, rows)
    assert len(taken) == 1 and chunk.X is taken[0]
    assert peak < rows * d * 8 / 4


def test_product_kernel_stream_makes_its_diagonal_in_place():
    # the draw takes one buffer, X, and makes no weights; a row block's
    # Laplace diagonal b (|y| + b) is made over the block's X - theta, with
    # the bits of `Law1D.kernel` on its rows
    rows, d = 2000, 200
    model = ss.ProductIID(d, ss.Laplace1D(0.8), "scaled:1")
    kernel = ss.product_kernel([model.law] * d)
    chunk, taken, peak = _stream_buffers(kernel, model, rows)
    assert len(taken) == 1 and chunk.X is taken[0]
    assert peak < rows * d * 8 / 4
    (term,) = chunk.rows(64, 128).terms
    want = model.law.kernel(chunk.X[64:128] - model.theta)
    assert np.array_equal(term.W.diag.view(np.uint64), want.view(np.uint64))


def test_a_pass_makes_a_dense_kernels_matrices_once_for_every_test_function(monkeypatch):
    # every test function of an identity pass contracts the same weights of a
    # row block, so a mixture kernel's (rows, d, d) matrices are made once a row
    d, k, n = 8, 6, 3000
    gauss = ss.GaussianIso(d, ss.StudentT(d, k).sigma2)
    kernel = ss.mixture_kernel([(gauss, ss.gaussian_kernel(gauss.cov())),
                                (ss.StudentT(d, k), ss.student_kernel(k, d))], [0.7, 0.3])
    model = ss.MixingCorruption(0.3, ss.StudentT(d, k), "scaled:1")
    fns = [linear_map(np.random.default_rng(3).normal(size=(d, d))), coordinate_quadratic(0),
           shrink_direction()]
    rows = []
    terms = MixtureKernel._terms

    def counted(self, *args):
        rows.append(len(args[-1]))  # the pick of the block's rows
        return terms(self, *args)

    monkeypatch.setattr(MixtureKernel, "_terms", counted)
    reps = identity_residual(n, 4, kernel.stream(model), model.theta, fns, "stein")
    assert len(reps) == 3 and len(rows) > 1
    assert sum(rows) == n


def test_a_joint_kernel_refuses_draws_without_its_sources():
    # a mixture or average kernel is a function of the joint draw, so the
    # pointwise callers, which pass the draws X alone, are refused
    d = 4
    kernels = [ss.average_kernel([ss.student_kernel(6, d)] * 2),
               ss.mixture_kernel([(ss.StudentT(d, 6), ss.student_kernel(6, d))], [1.0])]
    X = ss.StudentT(d, 6).sample(10, 1)
    for kernel in kernels:
        with pytest.raises(ParameterError, match="joint samples only"):
            ss.sure_kernel(X, ss.JamesStein(2.0), kernel, np.zeros(d))
        with pytest.raises(ParameterError, match="joint samples only"):
            discrepancy_of(kernel, np.zeros(d))(X)


@pytest.mark.parametrize("name", ["mixture", "average"])
def test_dense_kernels_build_their_matrices_a_row_block_at_a_time(name):
    # a dense kernel's identity chunk keeps the pick or the copies of its
    # rows, and its (rows, d, d) matrices are made one row block of the
    # pass at a time: at d = 64 the residual and the discrepancy peak far
    # below a draw task's 4096 matrices (128 MiB)
    import tracemalloc

    d, k, n = 64, 6, 20000
    student = ss.StudentT(d, k, "scaled:1")
    if name == "mixture":
        gauss = ss.GaussianIso(d, student.sigma2)
        model = ss.MixingCorruption(0.3, ss.StudentT(d, k), "scaled:1")
        kernel = ss.mixture_kernel([(gauss, ss.gaussian_kernel(gauss.cov())),
                                    (ss.StudentT(d, k), ss.student_kernel(k, d))], [0.7, 0.3])
    else:
        model, kernel = student, ss.average_kernel([ss.student_kernel(k, d)] * 3)
    tracemalloc.start()
    try:
        ss.stein_identity_residual(model, kernel, shrink_direction(), n, 4)
        stats = ss.discrepancy_stats(model, kernel, n, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.n == n
    assert peak < 32 * 2**20
