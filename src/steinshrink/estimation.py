"""Shrinkage and soft-thresholding estimators with their risk estimates.

SURE here is the Gaussian unbiased risk formula

    Tr(Sigma) + ||f(x)||^2 + 2 sum_ij sigma_ij d_j f_i(x),

applied verbatim to possibly non-Gaussian data; the kernel and zero-bias
variants replace the cross term by the corresponding Stein-identity form
and are unbiased whenever that identity holds.

For soft thresholding the divergence term is counted with a strict
inequality, Card{i : |x_i| < lambda}: on the open set where the partials
exist the two conventions agree a.e., and the strict count makes lambda=0
reduce exactly to the identity estimator.  The sigma^2 factor multiplying
the count follows from the general formula (a plain count is only correct
at sigma = 1).
"""

from __future__ import annotations

import math

import numpy as np

from ._mc import Accumulator, RiskReport, report_from
from .errors import EvaluationError, ParameterError
from .noise_models import NoiseModel
from .stein_kernels import SteinKernel
from .testfns import _SINGULARITY_EPS, FixedWeights, Weights, g0_contract
from .zero_bias import ZeroBiasCoupling


def james_stein(x, lam: float, define_zero: bool = False) -> np.ndarray:
    """S_lam(x) = x (1 - lam / ||x||^2), rowwise on (m, d) input."""
    if lam < 0:
        raise ParameterError("lambda must be nonnegative")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    sq = np.einsum("ij,ij->i", X, X)
    if lam == 0:
        out = X.copy()
    else:
        bad = sq <= _SINGULARITY_EPS
        if np.any(bad):
            if not define_zero:
                raise EvaluationError("james_stein at ||x||^2 <= 1e-12; pass define_zero to map to 0")
            sq = np.where(bad, 1.0, sq)
            out = X * (1.0 - lam / sq)[:, None]
            out[bad] = 0.0
        else:
            out = X * (1.0 - lam / sq)[:, None]
    return out[0] if single else out


def soft_threshold(x, lam: float) -> np.ndarray:
    if lam < 0:
        raise ParameterError("lambda must be nonnegative")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


class EstimatorSpec:
    """S(x) = x + f(x) with derivative access for the perturbation f.

    `contract(X, W)` is the rowwise <W, grad f(x)> in closed form; the dense
    `jacobian` is kept as a test oracle.
    """

    kind = "abstract"

    def __init__(self, lam: float = 0.0):
        if lam < 0:
            raise ParameterError("lambda must be nonnegative")
        self.lam = float(lam)

    def apply(self, X: np.ndarray, define_zero: bool = False) -> np.ndarray:
        return X + self.f(X, define_zero=define_zero)

    def f(self, X: np.ndarray, define_zero: bool = False) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def partial(self, X: np.ndarray, i: int, j: int) -> np.ndarray:
        return self.jacobian(X)[:, i, j]

    def contract(self, X: np.ndarray, W: Weights) -> np.ndarray:
        raise NotImplementedError

    def cross_term(self, X: np.ndarray, cov: np.ndarray) -> np.ndarray:
        """sum_ij sigma_ij d_j f_i(x), rowwise."""
        return self.contract(X, FixedWeights(cov))

    def singular_rows(self, X: np.ndarray) -> np.ndarray:
        return np.zeros(X.shape[0], dtype=bool)


class Identity(EstimatorSpec):
    kind = "identity"

    def __init__(self):
        super().__init__(0.0)

    def f(self, X, define_zero=False):
        return np.zeros_like(X)

    def jacobian(self, X):
        m, d = X.shape
        return np.zeros((m, d, d))

    def partial(self, X, i, j):
        return np.zeros(X.shape[0])

    def contract(self, X, W):
        return np.zeros(X.shape[0])


class JamesStein(EstimatorSpec):
    """f(x) = -lam x / ||x||^2."""

    kind = "james_stein"

    def f(self, X, define_zero=False):
        if self.lam == 0:
            return np.zeros_like(X)
        sq = np.einsum("ij,ij->i", X, X)
        bad = sq <= _SINGULARITY_EPS
        if np.any(bad) and not define_zero:
            raise EvaluationError("james_stein at ||x||^2 <= 1e-12; pass define_zero to map to 0")
        sq = np.where(bad, 1.0, sq)
        out = -self.lam * X / sq[:, None]
        if np.any(bad):
            out[bad] = -X[bad]  # S(x) = 0 there
        return out

    def jacobian(self, X):
        m, d = X.shape
        sq = np.einsum("ij,ij->i", X, X)
        out = np.zeros((m, d, d))
        idx = np.arange(d)
        out[:, idx, idx] = (-self.lam / sq)[:, None]
        out += 2.0 * self.lam * np.einsum("mi,mj->mij", X, X) / (sq**2)[:, None, None]
        return out

    def partial(self, X, i, j):
        sq = np.einsum("ij,ij->i", X, X)
        val = 2.0 * self.lam * X[:, i] * X[:, j] / sq**2
        if i == j:
            val = val - self.lam / sq
        return val

    def contract(self, X, W):
        return -self.lam * g0_contract(X, W)

    def singular_rows(self, X):
        if self.lam == 0:
            return np.zeros(X.shape[0], dtype=bool)
        return np.einsum("ij,ij->i", X, X) <= _SINGULARITY_EPS


class SoftThreshold(EstimatorSpec):
    """f_i(x) = sgn(x_i)(|x_i| - lam)_+ - x_i, coordinatewise."""

    kind = "soft_threshold"

    def f(self, X, define_zero=False):
        return soft_threshold(X, self.lam) - X

    def active(self, X: np.ndarray) -> np.ndarray:
        return np.abs(X) < self.lam

    def jacobian(self, X):
        m, d = X.shape
        out = np.zeros((m, d, d))
        idx = np.arange(d)
        out[:, idx, idx] = np.where(self.active(X), -1.0, 0.0)
        return out

    def partial(self, X, i, j):
        if i != j:
            return np.zeros(X.shape[0])
        return np.where(self.active(X)[:, i], -1.0, 0.0)

    def contract(self, X, W):
        return -(self.active(X) * W.diagonal()).sum(axis=1)


def make_estimator(kind: str, lam: float = 0.0) -> EstimatorSpec:
    if kind in ("identity", "id"):
        return Identity()
    if kind in ("james-stein", "james_stein", "js"):
        return JamesStein(lam)
    if kind in ("soft-threshold", "soft_threshold", "st"):
        return SoftThreshold(lam)
    raise ParameterError(f"unknown estimator kind {kind!r}")


# ---------------------------------------------------------------------------
# SURE variants


def _cov_matrix(cov_or_sigma2, d: int) -> np.ndarray:
    cov = np.asarray(cov_or_sigma2, dtype=float)
    if cov.ndim == 0:
        return float(cov) * np.eye(d)
    if cov.shape != (d, d):
        raise ParameterError("covariance must be scalar or d x d")
    return cov


def sure(x, estimator: EstimatorSpec, cov) -> float | np.ndarray:
    """Tr Sigma + ||f(x)||^2 + 2 sum_ij sigma_ij d_j f_i(x)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    covm = _cov_matrix(cov, X.shape[1])
    if np.any(estimator.singular_rows(X)):
        raise EvaluationError("SURE evaluated at a shrinkage singularity")
    fx = estimator.f(X)
    vals = np.trace(covm) + np.einsum("mi,mi->m", fx, fx) + 2.0 * estimator.cross_term(X, covm)
    return float(vals[0]) if single else vals


def sure_kernel(x, estimator: EstimatorSpec, kernel: SteinKernel, theta) -> float | np.ndarray:
    """Oracle variant: the covariance cross term uses T(x - theta) instead.

    Needs theta, so it is only usable inside Monte Carlo validation.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    theta = np.asarray(theta, dtype=float)
    if np.any(estimator.singular_rows(X)):
        raise EvaluationError("SURE evaluated at a shrinkage singularity")
    fx = estimator.f(X)
    cross = kernel.contract(X - theta, estimator, X)
    vals = np.trace(kernel.sigma) + np.einsum("mi,mi->m", fx, fx) + 2.0 * cross
    return float(vals[0]) if single else vals


def sure_zero_bias_mean(
    model: NoiseModel, estimator: EstimatorSpec, coupling: ZeroBiasCoupling, n: int, seed: int
) -> RiskReport:
    """MC estimate of Tr Sigma + E||f(X)||^2 + 2 sum_ij sigma_ij E d_j f_i(X^ij).

    The zero-bias vectors are not observable pointwise, so only this mean
    (which is unbiased for the risk) is available.
    """
    trace_sigma = float(np.trace(coupling.sigma))
    weights = FixedWeights(coupling.sigma)
    acc = Accumulator()
    for chunk in coupling.joint_chunks(n, seed):
        X = chunk.X
        fx = estimator.f(X, define_zero=True)
        vals = trace_sigma + np.einsum("mi,mi->m", fx, fx)
        if chunk.shared:
            xs = chunk.star
            vals = vals + 2.0 * estimator.contract(xs, weights)
        else:
            for i, j, w, xij in chunk.iter_stars():
                vals = vals + 2.0 * w * estimator.partial(xij, i, j)
        acc.add(vals)
    return report_from(acc, seed, label=f"sure-zb:{estimator.kind}")


# ---------------------------------------------------------------------------
# SURE-driven threshold selection


def sure_soft_threshold_grid(x: np.ndarray, sigma2: float, grid: np.ndarray) -> np.ndarray:
    """SURE(lambda) over a sorted grid for one observation vector.

    Uses order statistics of |x| so a full grid costs O((d + G) log d).
    """
    ax = np.sort(np.abs(np.asarray(x, dtype=float)))
    d = ax.size
    csq = np.concatenate([[0.0], np.cumsum(ax**2)])
    # strict count: |x_i| < lam
    below = np.searchsorted(ax, grid, side="left")
    sum_min = csq[below] + grid**2 * (d - below)
    return d * sigma2 + sum_min - 2.0 * sigma2 * below


def lambda_grid(d: int, c_grid: float = 2.0, size: int = 512) -> np.ndarray:
    if c_grid <= 0 or size < 2 or d < 2:
        raise ParameterError("grid needs C > 0, size >= 2 and d >= 2")
    return np.linspace(0.0, math.sqrt(c_grid * math.log(d)), size)


def select_lambda(x, sigma2: float, grid_spec=(2.0, 512), estimator_kind: str = "soft-threshold"):
    """Smallest SURE minimizer over a uniform grid on [0, sqrt(C log d)].

    Returns (lambda_hat, sure_value).
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    c_grid, size = grid_spec
    grid = lambda_grid(d, c_grid, size)
    if estimator_kind in ("soft-threshold", "soft_threshold", "st"):
        values = sure_soft_threshold_grid(x, sigma2, grid)
    elif estimator_kind in ("james-stein", "james_stein", "js"):
        sq = float(np.dot(x, x))
        if sq <= _SINGULARITY_EPS:
            raise EvaluationError("cannot tune shrinkage at x = 0")
        values = d * sigma2 + grid * (grid - 2.0 * sigma2 * (d - 2.0)) / sq
    else:
        raise ParameterError(f"unsupported estimator kind {estimator_kind!r}")
    best = int(np.argmin(values))  # argmin returns the first, i.e. smallest lambda
    return float(grid[best]), float(values[best])
