"""Dense and quadrature oracles that the package's closed forms are checked
against.  Each is written from its formula, not from the code it checks:

* `jacobian(field, X)`: the dense (rows, d, d) Jacobian d_j f_i(x) of a test
  function or of an estimator's perturbation f(x) = S(x) - x;
* `zb1d(pdf, sigma2)`: the one-dimensional zero-bias density
  p*(y) = sigma^-2 int_y^inf u p(u) du;
* `zb_density(model, i)`: the density of the i-th zero-bias vector, the
  same tail integral taken along coordinate i of the model density.
"""

import math

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
    """x -> p^i(x), the density of X^i: sigma_i^-2 int_{x_i}^inf (u - theta_i)
    p(x with x_i := u) du.  A product law factorizes into the 1-D zero-bias
    density of coordinate i times the density of the others."""
    if not model.has_density():
        raise ParameterError("density unavailable for this family")
    if not model.satisfies_conditional_mean_zero():
        raise ParameterError("zero-bias density needs the conditional-mean-zero condition")
    sigma_i2 = float(model.cov()[i, i])

    if isinstance(model, ProductIID):
        law = model.law

        def product(x):
            y = np.asarray(x, dtype=float) - model.theta
            return float(law.zb_pdf(y[i]) * np.exp(np.sum(law.log_pdf(np.delete(y, i)))))

        return product

    def generic(x):
        x = np.asarray(x, dtype=float)

        def integrand(u):
            point = x.copy()
            point[i] = model.theta[i] + u
            ld = model.log_density(point)
            return u * math.exp(ld) if ld is not None and np.isfinite(ld) else 0.0

        lo = x[i] - model.theta[i]
        val, _ = quad(integrand, lo, np.inf, epsabs=1e-13, epsrel=1e-9, limit=400)
        return max(val, 0.0) / sigma_i2

    return generic
