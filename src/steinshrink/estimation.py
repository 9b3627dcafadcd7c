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

from ._mc import _CHUNK_BUDGET, _JOINT_BLOCK_ROWS, RiskReport, in_blocks, report_from, run
from .errors import EvaluationError, ParameterError
from .noise_models import NoiseModel
from .stein_kernels import SteinKernel
from .testfns import (
    _SINGULARITY_EPS,
    FixedWeights,
    Weights,
    g0_contract,
    g0_replaced,
    sq_norms,
)
from .zero_bias import ZeroBiasCoupling


def james_stein(x, lam: float, define_zero: bool = False) -> np.ndarray:
    """S_lam(x) = x (1 - lam / ||x||^2), rowwise on (m, d) input."""
    x = np.asarray(x, dtype=float)
    out = JamesStein(lam).apply(np.atleast_2d(x), define_zero=define_zero)
    return out[0] if x.ndim == 1 else out


def soft_threshold(x, lam) -> np.ndarray:
    """sgn(x)(|x| - lam)_+ for a scalar lam or one that broadcasts against x,
    such as a (rows, 1) column of per-row thresholds."""
    if np.any(np.asarray(lam) < 0):
        raise ParameterError("lambda must be nonnegative")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


class EstimatorSpec:
    """S(x) = x + f(x) with derivative access for the perturbation f.

    `contract(X, W)` is the rowwise <W, grad f(x)> in closed form, and
    `contract_replaced(X, R, w)` the rowwise sum_i w_i d_i f_i(X^i) with X^i
    = X except x_i := R_i.  No dense Jacobian is built: the tests check these
    against one written from the formulas.

    The row statistics (`loss`, `excess`, `f_sq`, `cross_term`,
    `singular_rows`) take an optional `sq`, the rowwise ||x||^2, so that a
    caller computes it once per row and shares it.  Here they build S(x) or
    f(x); an estimator with a row form reads them off row sums instead.
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

    def contract(self, X: np.ndarray, W: Weights) -> np.ndarray:
        raise NotImplementedError

    def contract_replaced(self, X: np.ndarray, R: np.ndarray, w: np.ndarray):
        raise NotImplementedError

    def guard(self, X: np.ndarray) -> None:
        """Nothing to guard: `f` is defined everywhere (see `define_zero`)."""

    def cross_term(self, X: np.ndarray, cov: Weights, sq=None) -> np.ndarray:
        """sum_ij sigma_ij d_j f_i(x), rowwise, with `cov` the weights sigma."""
        return self.contract(X, cov)

    def singular_rows(self, X: np.ndarray, sq=None) -> np.ndarray:
        """Rows where f is singular (S is mapped to 0 there under `define_zero`)."""
        return np.zeros(X.shape[0], dtype=bool)

    def loss(self, X: np.ndarray, theta: np.ndarray, sq=None) -> np.ndarray:
        """||S(x) - theta||^2 rowwise, with S mapped to 0 at the singularity."""
        dev = self.apply(X, define_zero=True) - theta
        return np.einsum("ij,ij->i", dev, dev)

    def excess(self, X: np.ndarray, theta: np.ndarray, sq=None) -> np.ndarray:
        """||S(x) - theta||^2 - ||x - theta||^2 rowwise."""
        dev = X - theta
        return self.loss(X, theta, sq) - np.einsum("ij,ij->i", dev, dev)

    def f_sq(self, X: np.ndarray, sq=None) -> np.ndarray:
        """||f(x)||^2 rowwise."""
        fx = self.f(X)
        return np.einsum("mi,mi->m", fx, fx)


class Identity(EstimatorSpec):
    kind = "identity"

    def __init__(self):
        super().__init__(0.0)

    def f(self, X, define_zero=False):
        return np.zeros_like(X)

    def contract(self, X, W):
        return np.zeros(X.shape[0])

    def contract_replaced(self, X, R, w):
        return 0.0

    def loss(self, X, theta, sq=None):
        dev = X - theta
        return np.einsum("ij,ij->i", dev, dev)


class JamesStein(EstimatorSpec):
    """f(x) = -lam x / ||x||^2.

    S(x) = (1 - lam / s) x with s = ||x||^2, so every row statistic is read
    off two row sums, s and t = <x, theta>: the loss is ||x - theta||^2 +
    lam (lam - 2 (s - t)) / s and ||f(x)||^2 is lam^2 / s.  None of them
    builds a (rows, d) array.
    """

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

    def contract(self, X, W):
        return -self.lam * g0_contract(X, W)

    def contract_replaced(self, X, R, w):
        return -self.lam * g0_replaced(X, R, w)

    def cross_term(self, X, cov, sq=None):
        return -self.lam * g0_contract(X, cov, sq)

    def singular_rows(self, X, sq=None):
        if self.lam == 0:
            return np.zeros(X.shape[0], dtype=bool)
        return (sq_norms(X) if sq is None else sq) <= _SINGULARITY_EPS

    def _row_sums(self, X, theta, sq):
        """(s, t, singular rows, lam (lam - 2 (s - t)) / s off those rows)."""
        s = sq_norms(X) if sq is None else sq
        t = np.einsum("ij,j->i", X, theta)
        bad = self.singular_rows(X, s)
        if self.lam == 0:
            return s, t, bad, 0.0
        return s, t, bad, self.lam * (self.lam - 2.0 * (s - t)) / np.where(bad, 1.0, s)

    def loss(self, X, theta, sq=None):
        s, t, bad, gain = self._row_sums(X, theta, sq)
        theta_sq = float(np.dot(theta, theta))
        return np.where(bad, theta_sq, s - 2.0 * t + theta_sq + gain)

    def excess(self, X, theta, sq=None):
        """lam (lam - 2 (s - t)) / s, and ||theta||^2 - ||x - theta||^2 = 2t - s
        on the singular rows."""
        s, t, bad, gain = self._row_sums(X, theta, sq)
        return np.where(bad, 2.0 * t - s, gain)

    def f_sq(self, X, sq=None):
        if self.lam == 0:
            return np.zeros(X.shape[0])
        return self.lam**2 / (sq_norms(X) if sq is None else sq)


class SoftThreshold(EstimatorSpec):
    """f_i(x) = sgn(x_i)(|x_i| - lam)_+ - x_i, coordinatewise."""

    kind = "soft_threshold"

    def f(self, X, define_zero=False):
        return soft_threshold(X, self.lam) - X

    def active(self, X: np.ndarray) -> np.ndarray:
        return np.abs(X) < self.lam

    def contract(self, X, W):
        return -(self.active(X) * W.diagonal()).sum(axis=1)

    def contract_replaced(self, X, R, w):
        return -np.einsum("mi,i->m", self.active(R), w)


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


def _cov_weights(cov, d: int) -> Weights:
    """`FixedWeights` of a scalar sigma^2, held as the diagonal of sigma^2 Id,
    or of a (d, d) covariance; `Weights` pass through."""
    if isinstance(cov, Weights):
        return cov
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        return FixedWeights(np.full(d, float(cov)))
    if cov.shape != (d, d):
        raise ParameterError("covariance must be scalar or d x d")
    return FixedWeights(cov)


def _sure_form(x, estimator: EstimatorSpec, trace: float, cross, sq=None) -> float | np.ndarray:
    """trace + ||f(x)||^2 + 2 cross(X, sq), rowwise; a float for one observation.

    `sq` is the rowwise ||x||^2 of a block, when the caller has it.
    """
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    if sq is None:
        sq = sq_norms(X)
    if np.any(estimator.singular_rows(X, sq)):
        raise EvaluationError("SURE evaluated at a shrinkage singularity")
    vals = trace + estimator.f_sq(X, sq) + 2.0 * cross(X, sq)
    return float(vals[0]) if x.ndim == 1 else vals


def sure(x, estimator: EstimatorSpec, cov, sq=None) -> float | np.ndarray:
    """Tr Sigma + ||f(x)||^2 + 2 sum_ij sigma_ij d_j f_i(x); `sq` as in `_sure_form`.

    `cov` is sigma^2, a (d, d) covariance, or its weights (`NoiseModel.cov`).
    """
    weights = _cov_weights(cov, np.shape(x)[-1])
    return _sure_form(
        x, estimator, weights.trace(), lambda X, sq: estimator.cross_term(X, weights, sq), sq
    )


def sure_kernel(x, estimator: EstimatorSpec, kernel: SteinKernel, theta) -> float | np.ndarray:
    """Oracle variant: the covariance cross term uses T(x - theta) instead.

    Needs theta, so it is only usable inside Monte Carlo validation.
    """
    theta = np.asarray(theta, dtype=float)
    return _sure_form(
        x,
        estimator,
        kernel.sigma.trace(),
        lambda X, sq: kernel.at(X, theta).weighted_partials(estimator)[0],
    )


def sure_zero_bias_mean(
    model: NoiseModel, estimator: EstimatorSpec, coupling: ZeroBiasCoupling, n: int, seed: int
) -> RiskReport:
    """MC estimate of Tr Sigma + E||f(X)||^2 + 2 sum_ij sigma_ij E d_j f_i(X^ij).

    The zero-bias vectors are not observable pointwise, so only this mean
    (which is unbiased for the risk) is available.
    """
    trace_sigma = coupling.sigma.trace()

    def risk(chunk):
        fx = estimator.f(chunk.X, define_zero=True)
        vals = trace_sigma + np.einsum("mi,mi->m", fx, fx)
        return {"risk": vals + 2.0 * chunk.weighted_partials(estimator)[0]}

    acc = run(n, seed, coupling.d, coupling._centered, in_blocks(risk))["risk"]
    return report_from(acc, seed, label=f"sure-zb:{estimator.kind}")


# ---------------------------------------------------------------------------
# SURE-driven threshold selection


def _count_below(sorted_abs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Card{i : |x_i| < grid[g]} per row, (rows, G), exact in integers: the
    left insertion point of grid[g] in the row's sorted |x|, one binary
    search per grid point."""
    below = np.empty((sorted_abs.shape[0], grid.size), dtype=np.intp)
    for row, counts in zip(sorted_abs, below):
        counts[:] = row.searchsorted(grid)
    return below


def sure_soft_threshold_grid(x: np.ndarray, sigma2: float, grid: np.ndarray) -> np.ndarray:
    """SURE(lambda) over a sorted grid: (G,) values for one observation (d,),
    (rows, G) for a block (rows, d), each row as if passed alone.

    Uses order statistics of |x|: a row costs O(d log d) to sort and
    O(G log d) to count below the grid.
    """
    x = np.asarray(x, dtype=float)
    X = x.reshape(-1, x.shape[-1])
    rows, d = X.shape
    # row r of csq is 0 and the cumulative sums of its sorted x_i^2: the sorted
    # |x| are written there, counted below the grid, then squared and summed
    csq = np.empty((rows, d + 1))
    csq[:, 0] = 0.0
    ax = np.abs(X, out=csq[:, 1:])
    ax.sort(axis=1)
    below = _count_below(ax, grid)
    np.cumsum(np.square(ax, out=ax), axis=1, out=ax)
    # sum_i min(x_i^2, lambda^2) = csq[below] + lambda^2 (d - below), with csq
    # read flat, at below + r (d + 1) in row r, and let go
    offsets = (d + 1) * np.arange(rows)[:, None]
    below += offsets
    values = csq.take(below)
    below -= offsets
    del csq, ax
    values += grid**2 * (d - below)
    values += d * sigma2
    values -= 2.0 * sigma2 * below
    return values.reshape(x.shape[:-1] + grid.shape)


# Most points of a lambda grid.  The select-lambda statistic's row blocks
# hold at least `_JOINT_BLOCK_ROWS` rows (`cli.cmd_sure`), so at this size
# one (rows, G) array of a block is a chunk's `_CHUNK_BUDGET` doubles (64 MB).
_MAX_GRID_SIZE = _CHUNK_BUDGET // _JOINT_BLOCK_ROWS


def lambda_grid(d: int, c_grid: float = 2.0, size: int = 512) -> np.ndarray:
    """`size` equally spaced points on [0, sqrt(C log d)].

    Refused (`ParameterError`) unless C > 0 is finite, 2 <= size <=
    `_MAX_GRID_SIZE`, d >= 2, and the top point and d top^2, the largest
    term of SURE, are finite.  Nothing is allocated before that.
    """
    if not 0 < c_grid < math.inf or size < 2 or d < 2:
        raise ParameterError("grid needs a finite C > 0, size >= 2 and d >= 2")
    if size > _MAX_GRID_SIZE:
        raise ParameterError(f"grid size {size} is above the maximum {_MAX_GRID_SIZE}")
    top = math.sqrt(c_grid * math.log(d))
    if not math.isfinite(d * top * top):
        raise ParameterError(f"grid top sqrt(C log d) = {top:g} at C = {c_grid:g}, d = {d} "
                             "makes d top^2 overflow")
    return np.linspace(0.0, top, size)


def select_lambda(x, sigma2: float, grid_spec=(2.0, 512), estimator_kind: str = "soft-threshold"):
    """Smallest SURE minimizer over a uniform grid on [0, sqrt(C log d)].

    `grid_spec` is (C, size), or the grid `lambda_grid` built from them, for
    a caller that scores many blocks.  Returns (lambda_hat, sure_value):
    floats for one observation (d,), one value per row for a block (rows, d).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    grid = grid_spec if isinstance(grid_spec, np.ndarray) else lambda_grid(d, *grid_spec)
    if estimator_kind in ("soft-threshold", "soft_threshold", "st"):
        values = sure_soft_threshold_grid(x, sigma2, grid)
    elif estimator_kind in ("james-stein", "james_stein", "js"):
        sq = np.einsum("...i,...i->...", x, x)[..., None]
        if np.any(sq <= _SINGULARITY_EPS):
            raise EvaluationError("cannot tune shrinkage at x = 0")
        values = d * sigma2 + grid * (grid - 2.0 * sigma2 * (d - 2.0)) / sq
    else:
        raise ParameterError(f"unsupported estimator kind {estimator_kind!r}")
    best = np.argmin(values, axis=-1)  # the first minimizer, i.e. the smallest lambda
    value = np.take_along_axis(values, best[..., None], axis=-1)[..., 0]
    if x.ndim == 1:
        return float(grid[best]), float(value)
    return grid[best], value
