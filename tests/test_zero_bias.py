import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.stats import ks_2samp

import steinshrink as ss
from steinshrink import _mc, laws1d
from steinshrink.errors import ParameterError
from steinshrink.testfns import coordinate_quadratic, linear_map, shrink_direction
from steinshrink.zero_bias import (
    FourPointCoupling,
    ScaledCoupling,
    StudentGammaCoupling,
    identity_residual,
)
from conftest import assert_zero_within, joint_parts
from oracles import full_matrix, zb1d, zb_density

KS_LEVEL = 0.001


def _fams(d, include_g0=True):
    rng = np.random.default_rng(11)
    out = [linear_map(rng.normal(size=(d, d))), coordinate_quadratic(0)]
    if include_g0:
        out.append(shrink_direction())
    return out


# -- one-dimensional transform -------------------------------------------------


def _zb_pdf(law, y):
    """p*(y) = tail(y) / var, the one closed form of the zero-bias density."""
    return law.tail_first_moment(y) / law.variance


def test_zb1d_gaussian_fixed_point():
    law = ss.Gaussian1D(1.3)
    ys = np.linspace(-4, 4, 30)
    assert np.allclose(_zb_pdf(law, ys), law.pdf(ys), atol=1e-13)


def test_zb1d_laplace_closed_form_and_normalization():
    b = 0.8
    law = ss.Laplace1D(b)
    ys = np.linspace(-6, 6, 41)
    expected = (np.abs(ys) + b) * np.exp(-np.abs(ys) / b) / (4 * b**2)
    assert np.allclose(_zb_pdf(law, ys), expected, rtol=1e-12)
    total, _ = quad(lambda y: _zb_pdf(law, np.array(y)), -np.inf, np.inf, epsrel=1e-12)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_zb1d_rademacher_characterization_gives_uniform():
    # E[Y f(Y)] for Y = +-1 equals E f'(U) for U uniform on [-1, 1]
    for f, fp in [(np.tanh, lambda u: 1 / np.cosh(u) ** 2), (np.sin, np.cos)]:
        lhs = 0.5 * (f(1.0) - f(-1.0))
        rhs, _ = quad(lambda u: 0.5 * fp(u), -1.0, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_zb1d_generic_pdf_route_matches_closed_form():
    law = ss.Laplace1D(0.6)
    generic = zb1d(lambda u: math.exp(-abs(u) / 0.6) / 1.2, sigma2=law.variance)
    ys = np.array([-1.5, -0.1, 0.0, 0.7, 2.2])
    assert np.allclose(generic(ys), _zb_pdf(law, ys), rtol=1e-8)


def test_zb1d_samplers_match_densities():
    rng = np.random.default_rng(0)
    for law in (ss.Laplace1D(0.9), ss.Uniform1D(1.2), ss.SmoothedRademacher1D(1.0, 0.2)):
        draws = law.zb_sample(rng, 200_000)
        # quantile check against the density via a fine CDF grid
        grid = np.linspace(draws.min() - 0.1, draws.max() + 0.1, 4001)
        pdf = _zb_pdf(law, grid)
        cdf = np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))
        cdf = np.concatenate([[0], cdf]) / cdf[-1]
        emp = np.searchsorted(np.sort(draws), grid) / draws.size
        assert np.max(np.abs(emp - cdf)) < 0.01, law.name


def _zb_reference(law, rng, size):
    """Zero-bias draws as plain array formulas, a sub-block of rows at a time
    (`laws1d._SUB_BLOCK` variates): all its first uniforms, then its second."""
    out = np.empty(size)
    rows = out.reshape(len(out), -1)
    step = max(1, min(len(rows), laws1d._SUB_BLOCK // rows.shape[1]))
    for r in range(0, len(rows), step):
        shape = rows[r : r + step].shape
        u1, u2 = rng.random(shape), rng.random(shape)
        if isinstance(law, ss.Laplace1D):
            # a Laplace variate (numpy's inversion) plus a signed Exp(b) half
            # the time, with one log of the product of their two uniforms
            w = np.minimum(u1 + u1, (2.0 - u1) - u1)
            rows[r : r + step] = np.copysign(-law.b * np.log(w * np.minimum(u2 + u2, 1.0)), u1 - 0.5)
        else:
            rows[r : r + step] = (u1 * (2.0 * law.a) - law.a) * np.cbrt(u2)
    return out


@pytest.mark.parametrize("law", [ss.Laplace1D(1.3), ss.Uniform1D(2.1)], ids=lambda law: law.name)
def test_zero_bias_fills_match_array_formulas_bit_for_bit(law):
    # (3000, 17) spans two sub-blocks of 1927 rows
    for size in (5, (300, 17), (3000, 17)):
        ref, new = np.random.default_rng(23), np.random.default_rng(23)
        want = _zb_reference(law, ref, size)
        got = law.zb_sample(new, size)
        assert got.shape == np.empty(size).shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # two 64-bit outputs per variate, and the generator stays in step
        ahead = np.random.default_rng(23)
        ahead.bit_generator.advance(2 * got.size)
        assert ref.random() == new.random() == ahead.random()


@pytest.mark.parametrize(
    "law",
    [ss.Gaussian1D(0.7), ss.Laplace1D(1.3), ss.Uniform1D(2.1), ss.SmoothedRademacher1D(1.0, 0.2)],
    ids=lambda law: law.name,
)
def test_zero_bias_moments(law):
    # E X*^k = E X^(k+2) / ((k + 1) sigma^2): k = 2 and 4
    n = 1_000_000
    x2 = law.zb_sample(np.random.default_rng(61), n) ** 2
    for power, want in ((x2, law.c4 / (3.0 * law.variance)), (x2 * x2, law.c6 / (5.0 * law.variance))):
        se = power.std() / math.sqrt(n)
        assert abs(power.mean() - want) < 4.0 * se, (law.name, power.mean(), want, se)


# -- couplings: characterization residuals ------------------------------------


def test_residual_independent_replace():
    model = ss.ProductIID(6, ss.SmoothedRademacher1D(1.0, 0.2), "scaled:1")
    coup = ss.couple_independent(model)
    for fn in _fams(6):
        assert_zero_within(ss.zb_identity_residual(model, coup, fn, 200_000, 51))


def test_residual_sphere():
    d = 6
    coup = ss.couple_sphere(d, 1.0, f"scaled:{2 * math.sqrt(d)}")
    for fn in _fams(d):
        assert_zero_within(ss.zb_identity_residual(coup.base, coup, fn, 200_000, 52))


def test_residual_student():
    coup = ss.couple_student(6, 6)
    for fn in _fams(6):
        assert_zero_within(ss.zb_identity_residual(coup.base, coup, fn, 200_000, 53))


def test_residual_sum_coupling():
    # additive corruption: sqrt(1-eps) Gaussian + sqrt(eps) product-Laplace
    d, eps = 6, 0.3
    out = ss.ProductIID(d, ss.Laplace1D(1 / math.sqrt(2)))
    model = ss.AdditiveCorruption(eps, out, "scaled:1")
    comps = [
        ScaledCoupling(ss.couple_gaussian(ss.GaussianIso(d, 1.0)), math.sqrt(1 - eps)),
        ScaledCoupling(ss.couple_independent(out), math.sqrt(eps)),
    ]
    coup = ss.zb_sum(model, comps)
    assert np.allclose(full_matrix(coup.sigma), full_matrix(model.cov()))
    for fn in _fams(d):
        assert_zero_within(ss.zb_identity_residual(model, coup, fn, 200_000, 54))


def test_residual_mixture_coupling():
    d, eps = 6, 0.25
    out = ss.ProductIID(d, ss.Laplace1D(1 / math.sqrt(2)))
    model = ss.MixingCorruption(eps, out, "scaled:1")
    coup = ss.coupling_for(model)
    assert coup.equal_variance
    for fn in _fams(d):
        assert_zero_within(ss.zb_identity_residual(model, coup, fn, 200_000, 55))


def test_residual_mixture_unequal_variance():
    d = 6
    comps = [ss.GaussianIso(d, 0.5), ss.ProductIID(d, ss.Laplace1D(1.0))]
    model = ss.Mixture(comps, [0.4, 0.6], "scaled:1")
    coup = ss.zb_mixture(model, [ss.coupling_for(c) for c in comps], [0.4, 0.6])
    assert not coup.equal_variance
    for fn in _fams(d):
        assert_zero_within(ss.zb_identity_residual(model, coup, fn, 300_000, 56))


def test_residual_linear_map_ellipsoid():
    # tridiagonal AA' = Id + rho (super/sub diagonal), sphere base
    d, rho = 6, 0.3
    M = np.eye(d) + rho * (np.eye(d, k=1) + np.eye(d, k=-1))
    A = np.linalg.cholesky(M)
    base = ss.couple_sphere(d, 1.0)
    theta = ss.parse_theta(f"scaled:{2 * math.sqrt(d)}", d)
    model = ss.LinearTransform(math.sqrt(d) * A, ss.SphereUniform(d, 1.0 / math.sqrt(d)), theta)
    coup = ss.zb_linear(A, base, base_model=model)
    assert coup.same_for_all  # the sphere base shares one companion
    assert np.allclose(full_matrix(coup.sigma), A @ A.T)
    for fn in _fams(d):
        assert_zero_within(ss.zb_identity_residual(model, coup, fn, 200_000, 57))


def test_linear_map_identity_matrix_preserves_base():
    # A = I: the d rank-one terms e_k e_k' at X with x_k := R_k add up to the
    # base's replacement term, row by row on the same substreams
    d = 4
    base_model = ss.ProductIID(d, ss.Laplace1D(0.8))
    base = ss.couple_independent(base_model)
    coup = ss.zb_linear(np.eye(d), base, base_model=base_model)
    fields = _fams(d) + [ss.JamesStein(2.5), ss.SoftThreshold(0.8)]
    for chunk, base_chunk in zip(joint_parts(coup, 3000, 3), joint_parts(base, 3000, 3)):
        assert np.array_equal(chunk.X, base_chunk.X)
        for fn in fields:
            np.testing.assert_allclose(
                chunk.weighted_partials(fn)[0], base_chunk.weighted_partials(fn)[0],
                rtol=1e-10, atol=1e-12
            )


def test_residual_linear_map_replacement_base():
    # non-identity nonnegative A over product Laplace: d rank-one terms
    d = 6
    A = np.random.default_rng(31).uniform(0.0, 1.0, (d, d)) + np.eye(d)
    base_model = ss.ProductIID(d, ss.Laplace1D(1 / math.sqrt(2)))
    model = ss.LinearTransform(A, base_model, "scaled:1")
    coup = ss.zb_linear(A, ss.couple_independent(base_model), base_model=model)
    assert np.allclose(full_matrix(coup.sigma), full_matrix(model.cov()))
    for fn in _fams(d):
        assert_zero_within(ss.zb_identity_residual(model, coup, fn, 200_000, 59))


def test_residual_sum_with_student_component():
    # sqrt(1-eps) Gaussian + sqrt(eps) Student: the pick is averaged out
    d, k, eps = 6, 6, 0.3
    student = ss.StudentT(d, k)
    model = ss.AdditiveCorruption(eps, student, "scaled:1")
    comps = [
        ScaledCoupling(ss.couple_gaussian(ss.GaussianIso(d, student.sigma2)), math.sqrt(1 - eps)),
        ScaledCoupling(ss.couple_student(k, d), math.sqrt(eps)),
    ]
    coup = ss.zb_sum(model, comps)
    assert np.allclose(full_matrix(coup.sigma), full_matrix(model.cov()))
    for fn in _fams(d):
        assert_zero_within(ss.zb_identity_residual(model, coup, fn, 200_000, 60))


def test_linear_map_rejects_negative_products():
    A = np.array([[1.0, 2.0], [1.0, -0.3]])
    base_model = ss.ProductIID(2, ss.Gaussian1D(1.0))
    base = ss.couple_independent(base_model)
    model = ss.LinearTransform(A, base_model)
    with pytest.raises(ParameterError, match="violates"):
        ss.zb_linear(A, base, base_model=model)


def test_four_point_residual_linear_is_fine_but_g0_invalid():
    model = ss.FourPointDegenerate()
    coup = FourPointCoupling(model)
    assert_zero_within(ss.zb_identity_residual(model, coup, _fams(2, False)[0], 100_000, 58))
    assert not model.validity("zerobias").ok


# -- Gaussian fixed points ------------------------------------------------------


def test_gaussian_fixed_point_all_paths():
    d = 4
    g = ss.GaussianIso(d, 1.0, "scaled:1")
    paths = {
        "independent": ss.couple_independent(g),
        "sum": ss.zb_sum(
            g,
            [
                ss.couple_gaussian(ss.GaussianIso(d, 0.5)),
                ss.couple_gaussian(ss.GaussianIso(d, 0.5)),
            ],
        ),
        "mixture": ss.zb_mixture(
            g,
            [ss.couple_gaussian(ss.GaussianIso(d, 1.0)), ss.couple_gaussian(ss.GaussianIso(d, 1.0))],
            [0.5, 0.5],
        ),
    }
    for name, coup in paths.items():
        X, Xs = coup.pair_sampler(0, 0, 100_000, 8)
        for col in range(d):
            assert ks_2samp(X[:, col], Xs[:, col]).pvalue > KS_LEVEL, (name, col)


def test_zb_construct_gaussian_fixed_point():
    g = ss.GaussianIso(3, 1.0, "scaled:1")
    draws = ss.zb_construct(g, 1, 100_000, 9)
    ref = g.sample(100_000, 10)
    for col in range(3):
        assert ks_2samp(draws[:, col], ref[:, col]).pvalue > KS_LEVEL


@pytest.mark.parametrize("law", [ss.Laplace1D(0.8), ss.SmoothedRademacher1D(1.0, 0.2)],
                         ids=lambda law: law.name)
def test_zb_construct_product_coordinates(law):
    # coordinate i follows the law's zero-bias sampler, every other one the law
    d, i, n = 3, 1, 100_000
    model = ss.ProductIID(d, law, "scaled:1")
    draws = ss.zb_construct(model, i, n, 31) - model.theta
    rng = np.random.default_rng(32)
    assert ks_2samp(draws[:, i], law.zb_sample(rng, n)).pvalue > KS_LEVEL
    assert ks_2samp(draws[:, 2], law.sample(rng, n)).pvalue > KS_LEVEL


# -- support and consistency -----------------------------------------------------


def test_sphere_support_law():
    d = 5
    theta = ss.parse_theta("scaled:4", d)
    coup = ss.couple_sphere(d, 1.0, theta)
    radius = math.sqrt(d)
    for chunk in joint_parts(coup, 50_000, 12):
        dev = np.linalg.norm(chunk.companion(0, 0) - theta, axis=1)
        assert dev.max() <= radius + 1e-12


def test_sphere_companion_is_ball_uniform():
    # rejection-sampler oracle: uniform ball draws via cube rejection
    d = 4
    coup = ss.couple_sphere(d, 1.0)
    _, Xs = coup.pair_sampler(0, 0, 100_000, 13)
    rng = np.random.default_rng(14)
    pts = []
    while sum(len(p) for p in pts) < 100_000:
        cand = rng.uniform(-1, 1, (200_000, d))
        keep = cand[np.einsum("ij,ij->i", cand, cand) <= 1.0]
        pts.append(keep)
    ball = math.sqrt(d) * np.concatenate(pts)[:100_000]
    assert ks_2samp(np.linalg.norm(Xs, axis=1), np.linalg.norm(ball, axis=1)).pvalue > KS_LEVEL
    assert ks_2samp(Xs[:, 0], ball[:, 0]).pvalue > KS_LEVEL


def test_sphere_coupling_moment_identities():
    d = 4
    coup = ss.couple_sphere(d, 1.0)
    n = 400_000
    r_sharp = []
    diff = []
    for chunk in joint_parts(coup, n, 15):
        u = chunk.X / math.sqrt(d)
        ustar = chunk.companion(0, 0) / math.sqrt(d)
        r_sharp.append(np.linalg.norm(ustar, axis=1))
        diff.append(np.linalg.norm(u - ustar, axis=1))
    r_sharp = np.concatenate(r_sharp)
    diff = np.concatenate(diff)
    assert abs(r_sharp.mean() - d / (d + 1)) < 4 * r_sharp.std() / math.sqrt(n)
    assert abs(diff.mean() - 1.0 / (d + 1)) < 4 * diff.std() / math.sqrt(n)
    assert diff.mean() <= 1.0 / d


def test_student_coupling_marginal_is_student():
    coup = ss.couple_student(6, 6)
    X, _ = coup.pair_sampler(0, 0, 100_000, 16)
    ref = ss.StudentT(6, 6).sample(100_000, 17)
    assert ks_2samp(X[:, 0], ref[:, 0]).pvalue > KS_LEVEL


def test_student_epsilon_mean():
    # E[eps] = 2/k for the Gamma increment of the coupling
    k = 10
    rng = np.random.default_rng(18)
    eps = rng.gamma(1.0, 2.0 / k, 200_000)
    assert eps.mean() == pytest.approx(2.0 / k, abs=4 * eps.std() / math.sqrt(eps.size))


def test_construct_agrees_with_couple_independent():
    model = ss.ProductIID(3, ss.Laplace1D(0.8), "scaled:1")
    built = ss.zb_construct(model, 0, 100_000, 19)
    coup = ss.couple_independent(model)
    _, paired = coup.pair_sampler(0, 0, 100_000, 20)
    for col in range(3):
        assert ks_2samp(built[:, col], paired[:, col]).pvalue > KS_LEVEL


def test_zb_construct_sphere_matches_ball():
    model = ss.SphereUniform(4, 1.0)
    draws, ess = ss.zb_construct(model, 2, 60_000, 21, return_ess=True)
    assert ess > 10_000  # SIR keeps a healthy effective sample size
    ref = ss.BallUniform(4, 1.0).sample(60_000, 22)
    assert ks_2samp(np.linalg.norm(draws, axis=1), np.linalg.norm(ref, axis=1)).pvalue > KS_LEVEL


def test_zb_construct_weighs_each_task_ess_by_its_rows(monkeypatch):
    # two chunks of two 64-row draw tasks and a 3-row remainder task: the
    # effective sample size is each task's Kish fraction 1 / (m sum p^2) of
    # its m = rows * pool candidates, computed here from the SIR weights
    # p ~ x_i^2 of the candidates its substream draws first, times that
    # task's rows, summed; each fraction is in (0, 1], so it is at most n
    d, i, n, seed, pool = 8, 2, 2 * 128 + 3, 17, 64
    monkeypatch.setattr(_mc, "_CHUNK_BUDGET", 128 * d)  # 128 rows a chunk
    monkeypatch.setattr(_mc, "_DRAW_TASK", 64 * d)  # 64 rows a task
    model = ss.SphereUniform(d, 1.0, "scaled:1")
    _, ess = ss.zb_construct(model, i, n, seed, return_ess=True)
    rows = [(0, 0, 64), (0, 1, 64), (1, 0, 64), (1, 1, 64), (2, 0, 3)]
    fractions = []
    for chunk, task, m in rows:
        w = model._draw(_mc.substream(seed, chunk, task), m * pool)[:, i] ** 2
        p = w / w.sum()
        fractions.append(1.0 / np.sum(p * p) / (m * pool))
    assert all(0.0 < f <= 1.0 for f in fractions)
    assert ess == pytest.approx(sum(m * f for (_, _, m), f in zip(rows, fractions)), rel=1e-12)
    assert ess <= n
    # the 3-row task weighs 3/259, not a fifth as in a plain mean of fractions
    assert ess != pytest.approx(np.mean(fractions) * n, rel=1e-3)


@pytest.mark.parametrize("d, n", [(4, 60_000), (6, 30_000)])
def test_zb_construct_ess_of_the_sphere_is_a_count_below_n(d, n):
    # on the sphere x_i^2 / ||x||^2 ~ Beta(1/2, (d-1)/2), whose weights give a
    # Kish fraction (E w)^2 / E w^2 = (d + 2) / (3 d), so the ESS is about
    # that share of the n draws
    _, ess = ss.zb_construct(ss.SphereUniform(d, 1.0), 2, n, 21, return_ess=True)
    assert ess <= n
    assert ess == pytest.approx((d + 2) / (3 * d) * n, rel=0.02)


def test_square_bias_oracle_identity():
    # E[g(X^i)] = sigma_i^-2 E[(X_i - t_i)^2 g(D_{i,U}(X - t) + t)]
    model = ss.ProductIID(4, ss.Laplace1D(0.8), "scaled:1")
    i = 2
    coup = ss.couple_independent(model)

    def g(X):
        return np.tanh(X).sum(axis=1)

    lhs_acc, rhs_acc = [], []
    rng = np.random.default_rng(23)
    for chunk in joint_parts(coup, 400_000, 24):
        lhs_acc.append(g(chunk.companion(i, i)))
        X = chunk.X
        y = X - model.theta
        u = rng.uniform(0, 1, X.shape[0])
        scaled = y.copy()
        scaled[:, i] *= u
        rhs_acc.append(y[:, i] ** 2 * g(scaled + model.theta) / model.sigma2)
    lhs = np.concatenate(lhs_acc)
    rhs = np.concatenate(rhs_acc)
    se = math.hypot(lhs.std() / math.sqrt(lhs.size), rhs.std() / math.sqrt(rhs.size))
    assert abs(lhs.mean() - rhs.mean()) < 3 * se


# -- densities -------------------------------------------------------------------


def test_zb_density_1d_gaussian_is_gaussian():
    model = ss.ProductIID(1, ss.Gaussian1D(1.0))
    dens = zb_density(model, 0)
    for y in (-1.0, 0.0, 0.5):
        assert dens(np.array([y])) == pytest.approx(
            math.exp(-0.5 * y * y) / math.sqrt(2 * math.pi), rel=1e-7
        )


def test_zb_density_product_factorizes():
    model = ss.ProductIID(2, ss.Laplace1D(0.7))
    dens = zb_density(model, 0)
    law = model.law
    pt = np.array([0.4, -1.1])
    expected = _zb_pdf(law, pt[0]) * law.pdf(pt[1])
    assert dens(pt) == pytest.approx(float(expected), rel=1e-10)


def test_zb_density_integrates_to_one_d2():
    model = ss.ProductIID(2, ss.Uniform1D(1.0))
    dens = zb_density(model, 1)
    total, _ = dblquad(
        lambda y0, y1: dens(np.array([y0, y1])), -1.0, 1.0, lambda _: -1.0, lambda _: 1.0
    )
    assert total == pytest.approx(1.0, abs=1e-8)


def test_zb_density_unavailable_without_density():
    with pytest.raises(ParameterError):
        zb_density(ss.SphereUniform(4, 1.0), 0)


# -- misc ----------------------------------------------------------------------


def test_pair_sampler_rejects_zero_weight():
    coup = ss.couple_student(6, 5)
    with pytest.raises(ParameterError):
        coup.pair_sampler(0, 1, 10, 0)


def test_identity_residual_needs_distinct_test_function_names():
    coupling = ss.couple_student(6, 6)
    fns = [linear_map(np.eye(6)), linear_map(2.0 * np.eye(6))]
    with pytest.raises(ParameterError, match="distinct names"):
        identity_residual(100, 1, coupling._centered, coupling.theta, fns, "zb")


def test_residual_product_laplace_g0_high_dimension(monkeypatch):
    # d = 1024: each chunk of 8192 rows is drawn as 32 tasks, each from its
    # own substream, here on three threads whatever the core count, and the
    # g0 identity must still hold
    monkeypatch.setattr(_mc, "_usable_cores", lambda: 3)
    d = 1024
    model = ss.ProductIID(d, ss.Laplace1D(1 / math.sqrt(2)), "scaled:1")
    rep = ss.zb_identity_residual(model, ss.couple_independent(model), shrink_direction(), 16384, 61)
    assert rep.n == 2 * _mc.chunk_rows(d)
    assert_zero_within(rep)


def test_coordinate_sum_projection_residual():
    model = ss.ProductIID(5, ss.Laplace1D(0.8), "scaled:1")
    coup = ss.couple_independent(model)
    rep = ss.coordinate_sum_residual(
        coup, lambda w: np.tanh(w), lambda w: 1.0 / np.cosh(w) ** 2, 300_000, 25
    )
    assert_zero_within(rep)


def test_additive_corruption_leaves_draw_unchanged_with_prob_one_minus_eps():
    d, eps = 4, 0.3
    out = ss.ProductIID(d, ss.Laplace1D(1 / math.sqrt(2)))
    model = ss.AdditiveCorruption(eps, out)
    comps = [
        ScaledCoupling(ss.couple_gaussian(ss.GaussianIso(d, 1.0)), math.sqrt(1 - eps)),
        ScaledCoupling(ss.couple_independent(out), math.sqrt(eps)),
    ]
    coup = ss.zb_sum(model, comps)
    unchanged = 0
    total = 0
    for chunk in joint_parts(coup, 50_000, 26):
        xij = chunk.companion(0, 0)
        unchanged += int(np.sum(np.all(xij == chunk.X, axis=1)))
        total += xij.shape[0]
    assert unchanged / total == pytest.approx(1 - eps, abs=0.02)


def _student_rows(g, rows, d, k, theta):
    """(g, B, X, P) of the Student coupling's formula on the generator g: g
    and N as `StudentT._fill` draws them, X = theta + s N / sqrt(g), then
    B = (1 - U)^(1 / (k/2 - 1)) and P = theta + (X - theta) / sqrt(B)."""
    gam = g.gamma(k / 2.0, 2.0 / k, rows)
    Y = math.sqrt(k / (k - 2.0)) * g.standard_normal((rows, d)) / np.sqrt(gam)[:, None]
    B = (1.0 - g.random(rows)) ** (1.0 / (k / 2.0 - 1.0))
    return gam, B, theta + Y, theta + Y / np.sqrt(B)[:, None]


def test_student_coupling_chunk_keeps_the_formula_bits():
    # the chunk is written in place, with the bits of the formula, and its X
    # has the bits of the model's own draw on the same generator
    k, rows = 6, 53
    model = ss.StudentT(9, k, "scaled:1")
    coupling = StudentGammaCoupling(model)
    chunk = coupling._centered(_mc.substream(3, 0), rows, np.empty)
    _, _, X, P = _student_rows(_mc.substream(3, 0), rows, 9, k, coupling.theta)
    (term,) = chunk.terms
    assert chunk.X.tobytes() == X.tobytes() and term.P.tobytes() == P.tobytes()
    assert chunk.X.tobytes() == model.draw(_mc.substream(3, 0), rows, np.empty).tobytes()
    assert term.P is not chunk.X


@pytest.mark.parametrize("threads", [1, 3])
def test_student_coupling_tasks_keep_the_formula_bits(monkeypatch, threads):
    # a chunk of rows is drawn in ten draw tasks, each joint chunk with the
    # formula bits on its own substream, on 1 and 3 threads alike, and the
    # buffers a pass reuses give each task's rows those same bits
    monkeypatch.setattr(_mc, "_usable_cores", lambda: threads)
    monkeypatch.setattr(_mc, "_DRAW_TASK", 5 * 9)
    monkeypatch.setattr(_mc, "_DRAW_TASKS_PER_THREAD", 1)
    k, rows = 6, 53
    coupling = StudentGammaCoupling(ss.StudentT(9, k, "scaled:1"))
    chunks = joint_parts(coupling, rows, 3)
    cuts = _mc._draw_cuts(rows, 9)
    assert len(cuts) == 11 and len(chunks) == 10
    X_rows, P_rows = [], []
    for t, chunk in enumerate(chunks):
        a, b = cuts[t], cuts[t + 1]
        _, _, X, P = _student_rows(_mc.substream(3, 0, t), b - a, 9, k, coupling.theta)
        X_rows.append(X)
        P_rows.append(P)
        (term,) = chunk.terms
        assert chunk.X.tobytes() == X_rows[-1].tobytes() and term.P.tobytes() == P_rows[-1].tobytes()
    accs = _mc.run(rows, 3, 9, coupling._centered,
                   lambda chunk: {"x": chunk.X[:, 1], "p": chunk.terms[0].P[:, 2]})
    for name, want in (("x", np.concatenate(X_rows)[:, 1]), ("p", np.concatenate(P_rows)[:, 2])):
        ref = _mc.Accumulator()
        ref.add(want)
        assert (accs[name].mean, accs[name].m2, accs[name].m4) == (ref.mean, ref.m2, ref.m4)


def test_student_coupling_splits_g_by_an_independent_beta():
    # at d = 64: B ~ Beta(k/2 - 1, 1) has mean (k/2 - 1)/(k/2) and is
    # uncorrelated with g, so delta = g B ~ Gamma(k/2 - 1) and eps = g (1 - B)
    # ~ Gamma(1) are the Gamma pair of the coupling; its zero-bias identity
    # holds within 3 standard errors
    d, k, n, seed = 64, 6, 32_000, 61
    model = ss.StudentT(d, k, "scaled:1")
    coupling = StudentGammaCoupling(model)
    assert len(list(_mc.chunk_plan(n, d))) == 1  # each task on substream (seed, 0, t)
    parts = joint_parts(coupling, n, seed)
    cuts = np.cumsum([0] + [len(part.X) for part in parts])
    gs, Bs = [], []
    for t, part in enumerate(parts):
        gam, B, X, P = _student_rows(_mc.substream(seed, 0, t), cuts[t + 1] - cuts[t], d, k,
                                     model.theta)
        assert part.X.tobytes() == X.tobytes() and part.terms[0].P.tobytes() == P.tobytes()
        gs.append(gam)
        Bs.append(B)
    g, B = np.concatenate(gs), np.concatenate(Bs)
    assert len(parts) > 1 and len(B) == n
    a = k / 2.0 - 1.0
    assert abs(B.mean() - a / (a + 1.0)) < 3.0 * B.std() / math.sqrt(n)
    zg, zb = (g - g.mean()) / g.std(), (B - B.mean()) / B.std()
    products = zg * zb
    assert abs(products.mean()) < 3.0 * products.std() / math.sqrt(n)
    for fn in _fams(d):
        assert_zero_within(ss.zb_identity_residual(model, coupling, fn, n, seed))
