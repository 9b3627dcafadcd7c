"""Stein kernels: matrix fields T with E<X-theta, f(X)> = E<T, grad f(X)>.

Kernels come in structured representations (constant, scalar profile times a
fixed matrix, diagonal, linear images of these) and hand them to the test
functions as `Weights`, so a contraction <T, grad f> costs O(rows * d) and
no per-row (d, d) matrix is built.  Only the mixture and average kernels,
which have no such structure, keep per-row dense matrices.

In zero-bias terms a kernel is one shared term whose point is X and whose
weights are T(X - theta): `SteinKernel.stream` draws the same identity
chunks (`zero_bias.JointChunk`) as a coupling, and one residual serves both
identities.  `discrepancy_stats` measures how far a kernel sits from its
covariance, the quantity that drives the non-Gaussian risk and SURE-bias
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._mc import RiskReport, in_blocks, run
from .errors import EvaluationError, ParameterError
from .laws1d import Law1D
from .noise_models import NoiseModel
from .quadrature import RadialProfile
from .testfns import DenseWeights, DiagonalWeights, FixedWeights, TestFn, Weights, _as_matrix, _per_row
from .zero_bias import JointChunk, Shared, identity_residual


class SteinKernel:
    """Base kernel; subclasses fill in one of the structured evaluations."""

    construction = "abstract"
    joint_only = False  # T is a function of X - theta alone, built by `at`

    def __init__(self, sigma: FixedWeights):
        self.sigma = sigma  # the kernel's mean, held as its diagonal where it is diagonal
        self.d = sigma.matrix.shape[0]

    def matrices(self, Y: np.ndarray) -> np.ndarray:
        """Dense T(y) per row, (m, d, d), from which the mixture and average
        kernels build their weights."""
        raise NotImplementedError

    def as_weights(self, Y: np.ndarray) -> Weights:
        """T(y) per row in structured form, which may overwrite Y; subclasses
        with structure override this dense fallback."""
        return DenseWeights(self.matrices(Y))

    def frob_dev(self, W: Weights):
        """||W - Sigma||_F^2 = ||W||^2 - 2 <W, Sigma> + ||Sigma||^2, rowwise,
        for weights W this kernel built."""
        return W.frob_sq() - 2.0 * W.inner(_as_matrix(self.sigma.matrix)) + self.sigma.frob_sq()

    def stream(self, model: NoiseModel):
        """(draw, width) of `_mc.run` for identity chunks of the model's
        draws (`at`)."""

        def draw(rng, rows, empty):
            return self.at(model.draw(rng, rows, empty), model.theta, empty)

        return draw, None

    def at(self, X, theta, empty=np.empty) -> JointChunk:
        """The identity chunk of draws X: one shared term at X, weighted
        T(X - theta), built in buffers of `empty`."""
        return JointChunk(X, (Shared(X, self._weights_at(X, theta, empty)),))

    def _weights_at(self, X, theta, empty) -> Weights:
        """T(X - theta) of a draw task's rows, X - theta written into a buffer
        of `empty` that the weights may keep or overwrite."""
        return self.as_weights(np.subtract(X, theta, out=empty(X.shape)))


def _symmetric(matrix) -> np.ndarray:
    """A caller's matrix, checked to be square and symmetric."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ParameterError("kernel mean matrix must be square")
    if not np.allclose(matrix, matrix.T):
        raise ParameterError("kernel mean matrix must be symmetric")
    return matrix


class ConstantKernel(SteinKernel):
    """T(y) = Sigma."""

    construction = "constant"

    def matrices(self, Y):
        sigma = _as_matrix(self.sigma.matrix)
        return np.broadcast_to(sigma, (Y.shape[0],) + sigma.shape).copy()

    def as_weights(self, Y):
        return self.sigma

    def _weights_at(self, X, theta, empty):
        return self.sigma  # T does not depend on X - theta, so it is not formed

    def frob_dev(self, W):
        return 0.0  # T is Sigma


class ScalarProfileKernel(SteinKernel):
    """T(y) = s(y) * M for a fixed symmetric matrix M and scalar profile s;
    M and Sigma are `FixedWeights`, both diagonal or both dense."""

    def __init__(self, sigma, matrix, scale_fn, construction="scalar_profile"):
        super().__init__(sigma)
        self.matrix = matrix
        self.scale_fn = scale_fn
        self.construction = construction
        # once, not per draw task: a BLAS dot in a task thread oversubscribes the cores
        self._norms = (matrix.frob_sq(), float(np.vdot(matrix.matrix, sigma.matrix)),
                       sigma.frob_sq())

    def scales(self, Y: np.ndarray) -> np.ndarray:
        return self.scale_fn(Y)

    def matrices(self, Y):
        return self.scales(Y)[:, None, None] * _as_matrix(self.matrix.matrix)

    def as_weights(self, Y):
        return self.matrix.rescaled(self.scales(Y))

    def frob_dev(self, W):
        # ||s M - Sigma||^2 = s^2 ||M||^2 - 2 s <M, Sigma> + ||Sigma||^2
        norm_sq, inner, sigma_sq = self._norms
        return W.scale**2 * norm_sq - 2.0 * (W.scale * inner) + sigma_sq


class DiagonalKernel(SteinKernel):
    """T(y) = diag(T_1(y_1), ..., T_d(y_d)) for independent coordinates."""

    construction = "product_diagonal"

    def __init__(self, sigma_diag, coordinate_kernels, shared_kernel=None):
        super().__init__(FixedWeights(sigma_diag))
        self.coordinate_kernels = coordinate_kernels  # list of vectorized T_i
        # elementwise T shared by every coordinate, `T(y, out=None)` (`Law1D.kernel`):
        # one call on the block
        self.shared_kernel = shared_kernel

    def diagonals(self, Y: np.ndarray, out=None) -> np.ndarray:
        """(T_1(y_1), ..., T_d(y_d)) per row, written into `out` if given,
        which may be Y itself."""
        if self.shared_kernel is not None:
            return self.shared_kernel(Y, out=out)
        cols = [k(Y[:, i]) for i, k in enumerate(self.coordinate_kernels)]
        return np.stack(cols, axis=1, out=out)

    def matrices(self, Y):
        m, d = Y.shape
        out = np.zeros((m, d, d))
        idx = np.arange(d)
        out[:, idx, idx] = self.diagonals(Y)
        return out

    def as_weights(self, Y):
        return DiagonalWeights(self.diagonals(Y, out=Y))  # T(y) over y

    def frob_dev(self, W):
        dev = W.diag - self.sigma.matrix
        return np.einsum("mi,mi->m", dev, dev)


class TransformedKernel(SteinKernel):
    """Kernel of A Y from a kernel of Y: y -> A T(A^-1 y) A'.

    Contractions move A onto the test-function side,
    <A T A', J> = <T, A' J A>, inside the base kernel's weights.
    """

    construction = "transformed"

    def __init__(self, base: SteinKernel, A):
        A = np.asarray(A, dtype=float)
        if A.shape != (base.d, base.d):
            raise ParameterError("A must match the kernel dimension")
        det = np.linalg.det(A)
        if abs(det) < 1e-300:
            raise ParameterError("transform matrix must be invertible")
        super().__init__(base.sigma.transformed(A))
        self.base = base
        self.A = A
        self._Ainv = np.linalg.inv(A)

    def matrices(self, Y):
        inner = self.base.matrices(Y @ self._Ainv.T)
        return np.einsum("ij,mjk,lk->mil", self.A, inner, self.A)

    def as_weights(self, Y):
        return self.base.as_weights(Y @ self._Ainv.T).transformed(self.A)


# ---------------------------------------------------------------------------
# constructors


def gaussian_kernel(sigma) -> ConstantKernel:
    """The constant kernel of a Gaussian law: `sigma` is its covariance's
    weights (`NoiseModel.cov`), or a caller's (d, d) matrix, checked."""
    if not isinstance(sigma, FixedWeights):
        sigma = FixedWeights(_symmetric(sigma))
    return ConstantKernel(sigma)


def student_kernel(k: int, d: int) -> ScalarProfileKernel:
    """Closed-form kernel of the Gamma-mixture Student law.

    T(y) = ((||y||^2 + k s^2) / (d + k - 2)) Id with s^2 = k/(k-2); its mean
    is the model covariance s^4 Id.
    """
    if k < 5 or d < 1:
        raise ParameterError("student kernel needs k >= 5 and d >= 1")
    s2 = k / (k - 2.0)

    def scale(Y):
        return (np.einsum("ij,ij->i", Y, Y) + k * s2) / (d + k - 2.0)

    return ScalarProfileKernel(sigma=FixedWeights(np.full(d, s2**2)), matrix=FixedWeights(np.ones(d)),
                               scale_fn=scale, construction="student_closed_form")


def elliptical_kernel(generator, dispersion, theta=None, *, exact: bool = False,
                      q_table_max: float = 1e4) -> ScalarProfileKernel:
    """Kernel of an elliptical law from its density generator.

    T(x) = [ tail(q/2) / phi(q/2) ] * dispersion, q the quadratic form of the
    dispersion matrix.  Tail integrals run through adaptive quadrature; with
    exact=False a dense tabulation of the radial profile is used so that
    Monte Carlo sweeps stay cheap (tabulation error is far below MC noise).
    """
    disp = _symmetric(dispersion)
    d = disp.shape[0]
    eig = np.linalg.eigvalsh(disp)
    if eig[0] <= 0:
        raise ParameterError("dispersion must be positive definite")
    disp_inv = np.linalg.inv(disp)
    profile = RadialProfile(generator)
    ratio = profile.exact if exact else profile.table(q_table_max)

    from .quadrature import elliptical_second_moment

    mean_scale = elliptical_second_moment(generator, d) / d

    def scale(Y):
        q = np.einsum("mi,ij,mj->m", Y, disp_inv, Y)
        vals = ratio(q)
        if np.any(~np.isfinite(vals)):
            raise EvaluationError("elliptical kernel evaluated outside the effective support")
        return vals

    return ScalarProfileKernel(sigma=FixedWeights(mean_scale * disp), matrix=FixedWeights(disp),
                               scale_fn=scale, construction="elliptical_radial")


def product_kernel(laws_or_fns, variances=None) -> DiagonalKernel:
    """Diagonal kernel from per-coordinate 1-D kernels.

    Accepts laws1d.Law1D instances (using their closed forms) or raw
    callables paired with `variances`.  When every coordinate has the same
    law, its kernel is evaluated once on the whole (rows, d) block.
    """
    laws_or_fns = list(laws_or_fns)
    first = laws_or_fns[0] if laws_or_fns else None
    shared = isinstance(first, Law1D) and all(item == first for item in laws_or_fns)
    kernels, sig = [], []
    for i, item in enumerate(laws_or_fns):
        if hasattr(item, "kernel") and hasattr(item, "variance"):
            kernels.append(item.kernel)
            sig.append(item.variance)
        else:
            if variances is None:
                raise ParameterError("raw kernel callables need explicit variances")
            kernels.append(item)
            sig.append(variances[i])
    return DiagonalKernel(np.asarray(sig, dtype=float), kernels, first.kernel if shared else None)


def transform_kernel(kernel: SteinKernel, A) -> TransformedKernel:
    return TransformedKernel(kernel, A)


class AverageKernel(SteinKernel):
    """Kernel (1/n) sum T_i at the joint draw, paired with the
    variance-preserving standardized mean theta + n^(-1/2) sum (X_i - theta).

    That rescaling is what keeps the kernel mean equal to the shared
    component covariance; the plain average would need an extra 1/n.  Only
    usable through joint-sample Monte Carlo: the kernel is a function of all
    copies, not of the averaged point alone, so there is no pointwise
    `matrices`.
    """

    construction = "average"
    joint_only = True

    def __init__(self, kernels):
        if not kernels:
            raise ParameterError("need at least one component kernel")
        sigma = _as_matrix(kernels[0].sigma.matrix)
        for k in kernels[1:]:
            if not np.allclose(_as_matrix(k.sigma.matrix), sigma):
                raise ParameterError("averaged kernels must share the covariance")
        super().__init__(FixedWeights(_symmetric(sigma)))
        self.kernels = list(kernels)

    def matrices(self, Y):
        raise ParameterError("average kernel is defined on joint samples only")

    def stream(self, model: NoiseModel):
        ncopies = len(self.kernels)

        def fill(rng, Y, mats):
            draws = [model._draw(rng, len(Y)) for _ in range(ncopies)]
            np.divide(sum(draws), math.sqrt(ncopies), out=Y)
            np.divide(sum(k.matrices(y) for k, y in zip(self.kernels, draws)), ncopies, out=mats)

        return _dense_stream(model, fill, ncopies)


class MixtureKernel(SteinKernel):
    """Paired sampler (Y_s, T_s(Y_s)) over mixture components."""

    construction = "mixture"
    joint_only = True

    def __init__(self, pairs, weights):
        if not pairs:
            raise ParameterError("mixture kernel needs components")
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError("weights must be nonnegative and sum to 1")
        for model, _ in pairs:
            if np.any(model.theta != 0.0):
                raise ParameterError("mixture kernel components must be centered")
        sigma = sum(wi * _as_matrix(k.sigma.matrix) for wi, (_, k) in zip(w, pairs))
        super().__init__(FixedWeights(_symmetric(sigma)))
        self.pairs = list(pairs)
        self.weights = w

    def matrices(self, Y):
        raise ParameterError("mixture kernel is defined on joint samples only")

    def stream(self, model: NoiseModel):
        def fill(rng, Y, mats):
            pick = rng.choice(len(self.pairs), size=len(Y), p=self.weights)
            for s, (comp, kern) in enumerate(self.pairs):
                sel = np.flatnonzero(pick == s)
                if sel.size:
                    ys = comp._draw(rng, sel.size)
                    Y[sel] = ys
                    mats[sel] = kern.matrices(ys)

        return _dense_stream(model, fill)


def _dense_stream(model: NoiseModel, fill, copies: int = 1):
    """(draw, width) of identity chunks of X with one shared term at X
    weighted by per-row dense kernel matrices T, the width being what a
    chunk allocates: `copies` draws of (rows, d) and the (rows, d, d)
    matrices.  `fill(rng, Y, mats)` writes a draw task's centered rows Y
    and their T in place; theta is added here."""
    d = model.d

    def draw(rng, rows, empty):
        X, mats = empty((rows, d)), empty((rows, d, d))
        fill(rng, X, mats)
        X += model.theta
        return JointChunk(X, (Shared(X, DenseWeights(mats)),))

    return draw, d * max(d, copies)


def average_kernel(kernels) -> AverageKernel:
    return AverageKernel(kernels)


def mixture_kernel(pairs, weights) -> MixtureKernel:
    return MixtureKernel(pairs, weights)


# ---------------------------------------------------------------------------
# Monte Carlo statistics


@dataclass(frozen=True)
class DiscrepancyStats:
    e_trace_T: float
    e_trace_T_stderr: float
    var_trace_T: float
    var_trace_T_stderr: float
    e_frob_dev_sq: float
    e_frob_dev_sq_stderr: float
    n: int
    seed: int

    def __post_init__(self):
        if self.var_trace_T < 0 or self.e_frob_dev_sq < -1e-12:
            raise ParameterError("variance-type discrepancy fields must be nonnegative")

    def b_lambda_factor(self) -> float:
        """sqrt(Var Tr T) + 2 sqrt(E ||T - Sigma||^2), the bound ingredient."""
        return math.sqrt(max(self.var_trace_T, 0.0)) + 2.0 * math.sqrt(max(self.e_frob_dev_sq, 0.0))


def discrepancy_values(kernel: SteinKernel, chunk) -> dict:
    """Tr T and ||T - Sigma||_F^2 per row of one of the kernel's identity
    chunks (`kernel.at`, or `kernel.stream` for a kernel defined on joint
    samples only), read off the weights the chunk already carries."""
    (term,) = chunk.terms
    rows = chunk.X.shape[0]
    return {"trace": _per_row(term.W.trace(), rows),
            "frob": _per_row(kernel.frob_dev(term.W), rows)}


def discrepancy_of(kernel: SteinKernel, theta):
    """`discrepancy_values` as a per-row statistic of draws X: the weights
    T(X - theta) are built one row block of at least 64 rows at a time
    (`_mc.in_blocks`), so they hold one block, not a draw task's rows; a
    constant kernel builds no weights and is scored whole."""

    def values(X):
        return discrepancy_values(kernel, kernel.at(X, theta))

    return values if isinstance(kernel, ConstantKernel) else in_blocks(values)


def discrepancy_from(accs: dict, seed: int) -> DiscrepancyStats:
    """DiscrepancyStats from the accumulated `discrepancy_values`."""
    tr, fb = accs["trace"], accs["frob"]
    if tr.n < 2:
        raise ParameterError("discrepancy statistics need n >= 2")
    return DiscrepancyStats(
        e_trace_T=tr.mean,
        e_trace_T_stderr=tr.stderr,
        var_trace_T=tr.variance,
        var_trace_T_stderr=tr.variance_stderr(),
        e_frob_dev_sq=fb.mean,
        e_frob_dev_sq_stderr=fb.stderr,
        n=tr.n,
        seed=seed,
    )


def discrepancy_stats(model: NoiseModel, kernel: SteinKernel, n: int, seed: int) -> DiscrepancyStats:
    """DiscrepancyStats over n draws of the model from `seed`: T(X - theta)
    on the model's draws X, as the CLI's passes score it (`discrepancy_of`),
    or, for a kernel defined on joint samples only, on its own identity
    chunks (`stream`)."""
    if kernel.joint_only:
        draw, width = kernel.stream(model)
        accs = run(n, seed, model.d, draw, lambda chunk: discrepancy_values(kernel, chunk), width)
    else:
        accs = run(n, seed, model.d, model.draw, discrepancy_of(kernel, model.theta))
    return discrepancy_from(accs, seed)


def stein_identity_residual(
    model: NoiseModel, kernel: SteinKernel, test_fn: TestFn, n: int, seed: int
) -> RiskReport:
    """MC estimate of E<X-theta, f(X)> - E<T, grad f(X)>; 0 for a true kernel."""
    reps = identity_residual(n, seed, *kernel.stream(model), model.theta, [test_fn], "stein")
    return reps[test_fn.name]
