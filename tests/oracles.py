"""Dense and quadrature oracles that the package's closed forms are checked
against.  Each is written from its formula, not from the code it checks:

* `jacobian(field, X)`: the dense (rows, d, d) Jacobian d_j f_i(x) of a test
  function or of an estimator's perturbation f(x) = S(x) - x;
* `zb1d(pdf, sigma2)`: the one-dimensional zero-bias density
  p*(y) = sigma^-2 int_y^inf u p(u) du;
* `zb_density(model, i)`: the density of the i-th zero-bias vector of a
  product law, the same tail integral along coordinate i times the density
  of the other coordinates;
* `count_below_by_histogram(sorted_abs, grid)`: the strict counts
  Card{i : |x_i| < grid[g]} of the select-lambda grid, from a per-row
  histogram of each coordinate's rank in the grid.
"""

import numpy as np
from scipy.integrate import quad

from steinshrink import Identity, JamesStein, ProductIID, SoftThreshold, TestFn
from steinshrink.errors import ParameterError


def g0_jacobian(X):
    """d_j g0_i(x) = delta_ij / ||x||^2 - 2 x_i x_j / ||x||^4 for g0(x) = x / ||x||^2."""
    sq = np.einsum("mi,mi->m", X, X)
    eye = np.eye(X.shape[1])
    return eye / sq[:, None, None] - 2.0 * np.einsum("mi,mj->mij", X, X) / (sq**2)[:, None, None]


def jacobian(field, X):
    """The dense Jacobian of a test function, or of an estimator's f.

    James-Stein is f = -lam g0; soft thresholding is f_i = -x_i where
    |x_i| < lam and -lam sgn(x_i) elsewhere, so d_i f_i is -1 or 0 and
    every off-diagonal partial vanishes.
    """
    X = np.asarray(X, dtype=float)
    if isinstance(field, TestFn):
        return field.jac(X)
    if isinstance(field, Identity):
        return np.zeros(X.shape + X.shape[1:])
    if isinstance(field, JamesStein):
        return -field.lam * g0_jacobian(X)
    if isinstance(field, SoftThreshold):
        return -np.einsum("mi,ij->mij", (np.abs(X) < field.lam).astype(float), np.eye(X.shape[1]))
    raise TypeError(f"no Jacobian oracle for {type(field).__name__}")


def zb1d(pdf, sigma2: float):
    """p*(y) = sigma^-2 int_y^inf u p(u) du, by adaptive quadrature, for a
    centered density `pdf` with variance sigma2."""

    def star_pdf(y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        tails = [quad(lambda u: u * pdf(u), v, np.inf, epsabs=1e-13, epsrel=1e-10, limit=400)[0]
                 for v in y]
        return np.maximum(tails, 0.0) / sigma2

    return star_pdf


def zb_density(model, i: int):
    """x -> p^i(x), the density of X^i for a product law: sigma_i^-2 int_{y_i}^inf
    u p(u) du, with y = x - theta, times the density of the other coordinates."""
    if not isinstance(model, ProductIID):
        raise ParameterError("the zero-bias density oracle covers product laws only")
    sigma_i2 = float(model.cov()[i, i])
    law = model.law

    def product(x):
        y = np.asarray(x, dtype=float) - model.theta
        star = max(float(law.tail_first_moment(y[i])), 0.0) / sigma_i2
        return star * float(np.exp(np.sum(law.log_pdf(np.delete(y, i)))))

    return product


def count_below_by_histogram(sorted_abs, grid):
    """Card{i : |x_i| < grid[g]} per row, (rows, G): |x_i| < grid[g] iff g >=
    searchsorted(grid, |x_i|, "right"), so the counts are a cumulative
    histogram of those ranks, taken per row."""
    rows, size = sorted_abs.shape[0], grid.size + 1
    ranks = np.searchsorted(grid, sorted_abs, side="right")
    ranks += size * np.arange(rows)[:, None]
    hist = np.bincount(ranks.ravel(), minlength=rows * size).reshape(rows, size)
    return np.cumsum(hist[:, :-1], axis=1)
