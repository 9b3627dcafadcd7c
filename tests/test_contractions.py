"""Closed-form contractions against the dense Jacobian and kernel-matrix oracles.

Every structured value must match the dense `(rows, d, d)` evaluation row by
row at d = 6, to a relative 1e-10; the coordinate-replacement closed forms
must match the per-index loop of dense partials over built companions the
same way, and the averaged couplings must match their formula evaluated
with dense Jacobians at companions built from the same draws.  The dense
Jacobians are `oracles.jacobian`.  The memory tests check that the
structured paths keep memory at O(n d).
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import steinshrink as ss
from steinshrink.errors import EvaluationError, ParameterError
from steinshrink import _mc
from steinshrink._mc import substream
from steinshrink.stein_kernels import DiagonalKernel
from steinshrink.testfns import (
    DenseWeights,
    coordinate_quadratic,
    linear_map,
    shrink_direction,
)
from steinshrink.zero_bias import (
    _Lazy,
    FourPointCoupling,
    JointChunk,
    LinearMapCoupling,
    MixtureCoupling,
    Replaced,
    ScaledCoupling,
    Shared,
    SumCoupling,
)
from conftest import joint_parts, kernel_parts
from oracles import full_matrix, jacobian

D = 6
ROWS = 64


def assert_rows_close(structured, dense):
    structured = np.broadcast_to(structured, dense.shape)
    scale = np.abs(dense).max()
    np.testing.assert_allclose(structured, dense, rtol=1e-10, atol=1e-13 * scale)


def _test_fns():
    A = np.random.default_rng(20240517).normal(size=(D, D))
    return [shrink_direction(), linear_map(A), coordinate_quadratic(2)]


def _models_and_kernels():
    """(name, model, kernel) for every kernel construction."""
    k = 6
    s2 = k / (k - 2.0)
    student = ss.StudentT(D, k, "scaled:1")
    laplace = ss.ProductIID(D, ss.Laplace1D(0.9), "scaled:1")
    gauss = ss.GaussianIso(D, 1.3, "scaled:1")
    A = np.random.default_rng(3).normal(size=(D, D)) + 3.0 * np.eye(D)
    B = np.random.default_rng(4).normal(size=(D, D)) + 3.0 * np.eye(D)
    base = ss.ProductIID(D, ss.Laplace1D(1.0))
    product = ss.product_kernel([base.law] * D)
    mix_gauss = ss.GaussianIso(D, student.sigma2)
    return [
        ("constant", gauss, ss.gaussian_kernel(gauss.cov())),
        ("student", student, ss.student_kernel(k, D)),
        (
            "elliptical",
            student,
            ss.elliptical_kernel(lambda v: (1.0 + 2.0 * v / k) ** (-(k + D) / 2.0), s2 * np.eye(D)),
        ),
        ("product", laplace, ss.product_kernel([laplace.law] * D)),
        ("transformed-product", ss.LinearTransform(A, base, "scaled:1"),
         ss.transform_kernel(product, A)),
        ("transformed-twice", ss.LinearTransform(B @ A, base, "scaled:1"),
         ss.transform_kernel(ss.transform_kernel(product, A), B)),
        ("transformed-student", ss.LinearTransform(A, ss.StudentT(D, k), "scaled:1"),
         ss.transform_kernel(ss.student_kernel(k, D), A)),
        ("mixture", ss.MixingCorruption(0.3, ss.StudentT(D, k)),
         ss.mixture_kernel([(mix_gauss, ss.gaussian_kernel(mix_gauss.cov())),
                            (ss.StudentT(D, k), ss.student_kernel(k, D))], [0.7, 0.3])),
        ("average", student, ss.average_kernel([ss.student_kernel(k, D)] * 3)),
    ]


CASES = _models_and_kernels()


def _chunk(model, kernel):
    """One identity chunk of the kernel's stream, its one term's weights, and
    the dense kernel matrices at its draws as the oracle."""
    chunk = kernel_parts(kernel, model, ROWS, 5)[0]
    (term,) = chunk.terms
    assert isinstance(term, Shared) and term.P is chunk.X
    if isinstance(term.W, DenseWeights):  # mixture and average chunks carry their matrices
        mats = term.W.mats
    else:
        mats = kernel.matrices(chunk.X - model.theta)
    return chunk, term.W, mats


@pytest.mark.parametrize("name,model,kernel", CASES, ids=[c[0] for c in CASES])
def test_kernel_contraction_matches_dense(name, model, kernel):
    chunk, W, mats = _chunk(model, kernel)
    for fn in _test_fns():
        dense = np.einsum("mij,mij->m", mats, jacobian(fn, chunk.X))
        assert_rows_close(fn.contract(chunk.X, W), dense)
        assert_rows_close(chunk.weighted_partials(fn), dense)


@pytest.mark.parametrize("name,model,kernel", CASES, ids=[c[0] for c in CASES])
def test_trace_and_frob_dev_match_dense(name, model, kernel):
    _, W, mats = _chunk(model, kernel)
    assert_rows_close(W.trace(), np.trace(mats, axis1=1, axis2=2))
    dev = mats - full_matrix(kernel.sigma)
    assert_rows_close(kernel.frob_dev(W), np.einsum("mij,mij->m", dev, dev))


def test_discrepancy_evaluates_the_kernel_once_per_chunk(monkeypatch):
    # 100 rows per chunk at d = 6: three chunks for n = 250
    monkeypatch.setattr(_mc, "_CHUNK_BUDGET", 100 * D)
    model = ss.ProductIID(D, ss.Laplace1D(0.9), "scaled:1")
    kernel = ss.product_kernel([model.law] * D)
    calls = []
    diagonals = DiagonalKernel.diagonals

    def counted(self, Y, out=None):
        calls.append(Y.shape[0])
        return diagonals(self, Y, out)

    monkeypatch.setattr(DiagonalKernel, "diagonals", counted)
    ss.discrepancy_stats(model, kernel, 250, 6)
    assert calls == [100, 100, 50]


def test_gaussian_kernel_and_fixed_point_coupling_stream_the_same_chunks():
    model = ss.GaussianIso(D, 1.3, "scaled:1")
    n = 300  # below one chunk of rows for either stream
    by_kernel = kernel_parts(ss.gaussian_kernel(model.cov()), model, n, 13)
    by_coupling = joint_parts(ss.coupling_for(model), n, 13)
    assert len(by_kernel) == len(by_coupling) == 1
    (k_chunk,), (c_chunk,) = by_kernel, by_coupling
    np.testing.assert_array_equal(k_chunk.X, c_chunk.X)
    for fn in _test_fns():
        np.testing.assert_array_equal(k_chunk.weighted_partials(fn), c_chunk.weighted_partials(fn))


@pytest.mark.parametrize("name,model,kernel", CASES[:7], ids=[c[0] for c in CASES[:7]])
def test_sure_kernel_matches_dense(name, model, kernel):
    X = model.sample(ROWS, 6)
    Y = X - model.theta
    for est in (ss.JamesStein(2.5), ss.SoftThreshold(0.8)):
        fx = est.f(X)
        cross = np.einsum("mij,mij->m", kernel.matrices(Y), jacobian(est, X))
        dense = np.trace(full_matrix(kernel.sigma)) + np.einsum("mi,mi->m", fx, fx) + 2.0 * cross
        assert_rows_close(ss.sure_kernel(X, est, kernel, model.theta), dense)


def _linear_student_coupling():
    # nonnegative A keeps every sigma_ij >= 0, as the linear-map coupling needs
    A = np.random.default_rng(8).uniform(0.0, 1.0, (D, D)) + 2.0 * np.eye(D)
    model = ss.LinearTransform(A, ss.StudentT(D, 6), "scaled:1")
    return ss.zb_linear(A, ss.couple_student(6, D), model)


@pytest.mark.parametrize(
    "make_coupling",
    [
        lambda: ss.coupling_for(ss.StudentT(D, 6, "scaled:1")),
        lambda: ss.coupling_for(ss.SphereUniform(D, 1.0, "scaled:3")),
        _linear_student_coupling,
    ],
    ids=["student", "sphere", "linear-student"],
)
def test_zb_shared_branch_matches_dense(make_coupling):
    coupling = make_coupling()
    chunk = joint_parts(coupling, ROWS, 9)[0]
    (term,) = chunk.terms
    assert isinstance(term, Shared)
    weights = coupling.sigma
    for fn in _test_fns():
        dense = np.einsum("ij,mij->m", full_matrix(coupling.sigma), jacobian(fn, term.P))
        assert_rows_close(fn.contract(term.P, weights), dense)
        assert_rows_close(chunk.weighted_partials(fn), dense)


def test_zb_residual_shared_branch_matches_dense_mean():
    model = ss.StudentT(D, 6, "scaled:1")
    coupling = ss.coupling_for(model)
    for fn in _test_fns():
        rows = []
        for chunk in joint_parts(coupling, 2000, 10):
            lhs = np.einsum("mi,mi->m", chunk.X - model.theta, fn.f(chunk.X))
            star = chunk.companion(0, 0)
            rows.append(lhs - np.einsum("ij,mij->m", full_matrix(coupling.sigma), jacobian(fn, star)))
        rows = np.concatenate(rows)
        rep = ss.zb_identity_residual(model, coupling, fn, 2000, 10)
        assert rep.mean == pytest.approx(rows.mean(), rel=1e-10, abs=1e-12 * np.abs(rows).max())


def test_student_residual_memory_is_linear_in_d():
    # the dense path needs at least 3 n d^2 doubles (Jacobian, kernel
    # matrices, their product): about 226 MB here
    d, n = 48, 4096
    model = ss.StudentT(d, 6)
    kernel = ss.student_kernel(6, d)
    fn = shrink_direction()
    tracemalloc.start()
    try:
        ss.stein_identity_residual(model, kernel, fn, n, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * d * 8


# -- coordinate-replacement companions ----------------------------------------


def _replacement_couplings():
    """(name, coupling) for every coupling that emits the replacement form,
    each with a nonzero theta."""
    laplace = ss.ProductIID(D, ss.Laplace1D(1 / math.sqrt(2)))
    eps = 0.3
    return [
        ("laplace", ss.couple_independent(ss.ProductIID(D, ss.Laplace1D(0.9), "scaled:1"))),
        ("gaussian", ss.couple_independent(ss.GaussianIso(D, 1.3, "scaled:1"))),
        (
            "scaled",
            ScaledCoupling(
                ss.couple_independent(ss.ProductIID(D, ss.Uniform1D(1.0), "scaled:1")), 1.7
            ),
        ),
        (
            "sum",
            ss.zb_sum(
                ss.AdditiveCorruption(eps, laplace, "scaled:1"),
                [
                    ScaledCoupling(ss.couple_gaussian(ss.GaussianIso(D, 1.0)), math.sqrt(1 - eps)),
                    ScaledCoupling(ss.couple_independent(laplace), math.sqrt(eps)),
                ],
            ),
        ),
        ("mixture", ss.coupling_for(ss.MixingCorruption(0.25, laplace, "scaled:1"))),
    ]


REPLACEMENT = _replacement_couplings()


def _fields():
    return _test_fns() + [ss.JamesStein(2.5), ss.SoftThreshold(0.8), ss.Identity()]


@pytest.mark.parametrize("name,coupling", REPLACEMENT, ids=[c[0] for c in REPLACEMENT])
def test_replacement_closed_form_matches_partial_loop(name, coupling):
    chunk = joint_parts(coupling, ROWS, 9)[0]
    (term,) = chunk.terms
    assert isinstance(term, Replaced) and np.array_equal(term.B, chunk.X)
    assert np.any(coupling.theta != 0.0)
    sigma = full_matrix(coupling.sigma)
    for field in _fields():
        loop = np.zeros(ROWS)
        for i, j in zip(*np.nonzero(sigma)):
            loop += sigma[i, j] * jacobian(field, chunk.companion(i, j))[:, i, j]
        assert_rows_close(chunk.weighted_partials(field), loop)


def test_replacement_guard_raises_near_the_origin():
    # row 0: X^0 = (1e-8, 0, ..., 0), within 1e-12 of the origin, though X is not
    X = np.zeros((2, D))
    X[:, 0] = 1.0
    R = np.ones((2, D))
    R[0, 0] = 1e-8
    chunk = JointChunk(X, (Replaced(X, R, np.ones(D)),))
    with pytest.raises(EvaluationError, match="origin"):
        chunk.weighted_partials(shrink_direction())
    R[0, 0] = 1e-3
    assert np.all(np.isfinite(chunk.weighted_partials(shrink_direction())))


# -- averaged companions ---------------------------------------------------------


def _averaged_couplings():
    """(name, coupling) for the four-point coupling, the shared mixture and
    every coupling whose chunk averages a component pick or a replaced index
    out, each with a nonzero theta."""
    k, eps = 6, 0.3
    laplace = ss.ProductIID(D, ss.Laplace1D(0.8))
    student = ss.StudentT(D, k)
    gauss = ss.GaussianIso(D, 0.5)
    # equal variances, one replacement and one shared component
    matched = ss.ProductIID(D, ss.Laplace1D(math.sqrt(student.sigma2 / 2.0)))
    A = np.random.default_rng(8).uniform(0.0, 1.0, (D, D)) + np.eye(D)
    return [
        ("four-point", FourPointCoupling(ss.FourPointDegenerate("scaled:1"))),
        ("mixture-shared", ss.coupling_for(ss.MixingCorruption(0.3, student, "scaled:1"))),
        (
            "mixture-unequal",
            ss.zb_mixture(
                ss.Mixture([gauss, laplace], [0.4, 0.6], "scaled:1"),
                [ss.couple_gaussian(gauss), ss.couple_independent(laplace)],
                [0.4, 0.6],
            ),
        ),
        ("mixture-mixed", ss.coupling_for(ss.Mixture([matched, student], [0.5, 0.5], "scaled:1"))),
        (
            "linear-replacement",
            ss.zb_linear(A, ss.couple_independent(laplace), ss.LinearTransform(A, laplace, "scaled:1")),
        ),
        (
            "sum-student",
            ss.zb_sum(
                ss.AdditiveCorruption(eps, student, "scaled:1"),
                [
                    ScaledCoupling(ss.couple_gaussian(ss.GaussianIso(D, student.sigma2)),
                                   math.sqrt(1 - eps)),
                    ScaledCoupling(ss.couple_student(k, D), math.sqrt(eps)),
                ],
            ),
        ),
    ]


AVERAGED = _averaged_couplings()


@pytest.mark.parametrize("name,coupling", REPLACEMENT + AVERAGED,
                         ids=[c[0] for c in REPLACEMENT + AVERAGED])
def test_a_chunks_rows_carry_the_rows_of_its_terms(name, coupling):
    # `JointChunk.rows` slices X and every term; terms made afresh on each
    # pass are made from the sliced rows of what they are made of, and give
    # the rows of the whole chunk's weighted partials (to the last bit but on
    # the linear image, whose terms are BLAS products)
    chunk = joint_parts(coupling, ROWS, 9)[0]
    block = chunk.rows(5, 12)
    assert np.array_equal(block.X, chunk.X[5:12])
    if isinstance(block.terms, _Lazy):
        for source in block.terms._sources:
            assert (source if isinstance(source, np.ndarray) else source.X).shape[0] == 7
    fields = _fields()
    if name == "four-point":  # d = 2; g0 is singular on the companions' segments
        A = np.random.default_rng(20240517).normal(size=(2, 2))
        fields = [linear_map(A), coordinate_quadratic(1), ss.JamesStein(2.5), ss.SoftThreshold(0.8)]
    for field in fields:
        whole, rows = chunk.weighted_partials(field)[5:12], block.weighted_partials(field)
        if name == "linear-replacement":
            assert_rows_close(rows, whole)
        else:
            assert np.array_equal(rows.view(np.uint64), whole.view(np.uint64)), field


def _dense_sum(field, sigma, point):
    """sum over sigma_ij != 0 of sigma_ij d_j f_i(point(i, j)), from the dense Jacobian."""
    pairs = zip(*np.nonzero(sigma))
    return sum(sigma[i, j] * jacobian(field, point(i, j))[:, i, j] for i, j in pairs)


def _averaged_oracle(coupling, field, seed):
    """The averaged sum rowwise, from companions built out of the draws the
    coupling makes for chunk 0 of `seed`."""
    rng = substream(seed, 0)
    theta = coupling.theta
    if isinstance(coupling, FourPointCoupling):
        coupling.base._draw(rng, ROWS)
        U = rng.uniform(-1.0, 1.0, ROWS)

        def point(i, j):
            out = np.tile(theta, (ROWS, 1))
            out[:, i] += U
            return out

        return _dense_sum(field, full_matrix(coupling.sigma), point)
    if isinstance(coupling, LinearMapCoupling):
        base = coupling.base_coupling._centered(rng, ROWS, np.empty)
        A, gamma = coupling.A, np.diag(full_matrix(coupling.base_coupling.sigma))
        total = 0.0
        for k in range(D):
            weights = gamma[k] * np.outer(A[:, k], A[:, k])
            star = theta + base.companion(k, k) @ A.T  # the base is centered
            total = total + _dense_sum(field, weights, lambda i, j: star)
        return total
    if isinstance(coupling, MixtureCoupling):
        pick = rng.choice(len(coupling.components), size=ROWS, p=coupling.weights)
        if coupling.same_for_all:  # X as the mixture draws it, then the picked companions
            sels = [np.flatnonzero(pick == s) for s in range(len(coupling.components))]
            drawn = [(sel, comp, comp.base._draw(rng, sel.size))
                     for sel, comp in zip(sels, coupling.components) if sel.size]
            star = np.empty((ROWS, D))
            for sel, comp, Y in drawn:
                star[sel] = JointChunk(Y, comp._companions(rng, Y, np.empty)).companion(0, 0)
            return _dense_sum(field, full_matrix(coupling.sigma), lambda i, j: theta + star)
    subs = [comp._centered(rng, ROWS, np.empty) for comp in coupling.components]
    total = 0.0
    if isinstance(coupling, SumCoupling):
        X = theta + sum(sub.X for sub in subs)
        for comp, sub in zip(coupling.components, subs):
            total = total + _dense_sum(field, full_matrix(comp.sigma),
                                       lambda i, j: X - sub.X + sub.companion(i, j))
        return total
    for w, comp, sub in zip(coupling.weights, coupling.components, subs):
        total = total + w * _dense_sum(field, full_matrix(comp.sigma),
                                       lambda i, j: theta + sub.companion(i, j))
    return total


@pytest.mark.parametrize("name,coupling", AVERAGED, ids=[c[0] for c in AVERAGED])
def test_averaged_closed_form_matches_dense_oracle(name, coupling):
    assert np.any(coupling.theta != 0.0)
    chunk = joint_parts(coupling, ROWS, 9)[0]
    fields = _fields()
    if name == "four-point":  # d = 2; g0 is singular on the companions' segments
        A = np.random.default_rng(20240517).normal(size=(2, 2))
        fields = [linear_map(A), coordinate_quadratic(1), ss.JamesStein(2.5), ss.SoftThreshold(0.8)]
    elif name != "mixture-shared":  # averaged: no single companion is drawn
        with pytest.raises(ParameterError, match="averages"):
            chunk.companion(0, 0)
    for field in fields:
        assert_rows_close(chunk.weighted_partials(field), _averaged_oracle(coupling, field, 9))


def _raises(*args):
    raise AssertionError("a per-index partial or a dense Jacobian was evaluated")


def test_no_coupling_calls_partial():
    # estimators have no per-index partial or dense Jacobian to call; a
    # test function keeps both, for the bench tracer, so they are made to raise
    shared = [
        ss.coupling_for(m)
        for m in (ss.StudentT(D, 6, "scaled:1"), ss.SphereUniform(D, 1.0, "scaled:3"),
                  ss.GaussianIso(D, 1.3, "scaled:1"))
    ]
    for coupling in shared + [_linear_student_coupling()] + [c for _, c in REPLACEMENT + AVERAGED]:
        d = coupling.d
        A = np.random.default_rng(20240517).normal(size=(d, d))
        for fn in (linear_map(A), coordinate_quadratic(1), shrink_direction()):
            if fn.needs_origin_guard and isinstance(coupling, FourPointCoupling):
                continue  # g0 is singular on the four-point companions
            fn = dataclasses.replace(fn, jac=_raises, partial=_raises)
            ss.zb_identity_residual(coupling.base, coupling, fn, 500, 3)
        for est in (ss.JamesStein(2.5), ss.SoftThreshold(0.8), ss.Identity()):
            ss.sure_zero_bias_mean(coupling.base, est, coupling, 500, 3)


def test_b_star_memory_is_linear_in_d():
    # one chunk: X, R and the closed form's two temporaries fit well inside
    # the bound; anything that grows with d (a (rows, d, d) array, companions
    # kept alive across indices) does not
    d, rows = 400, 4096
    coupling = ss.couple_independent(ss.ProductIID(d, ss.Laplace1D(1 / math.sqrt(2))))
    tracemalloc.start()
    try:
        ss.bound_b_star(coupling, d - 2.0, rows, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * rows * d * 8
