"""Adaptive quadrature over elliptical density generators phi: the second
moment E[q] and the kernel's tail ratio, which need no normalizing constant.

All tail integrals run through scipy's QUADPACK (adaptive Gauss-Kronrod)
with a relative tolerance of 1e-10 and an upper cutoff where the generator
has decayed below 1e-300, so quadrature error stays far below Monte Carlo
noise everywhere these values are consumed.

`quad` imports scipy.integrate on its first call, not with the package:
the import (with scipy.optimize) takes about 0.4 s, and only a generic
elliptical generator integrates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

RTOL = 1e-10
_FLOOR = 1e-300


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on first use."""
    from scipy.integrate import quad as _quad

    return _quad(func, a, b, **kwargs)


def generator_cutoff(phi, lo: float):
    """Point beyond lo where phi drops below 1e-300, when one is found
    within a moderate doubling range; None for slowly decaying tails,
    which are then integrated on the transformed infinite interval."""
    hi = max(1.0, 2.0 * abs(lo) + 1.0)
    cap = 1e9 * hi
    while hi < cap:
        if phi(hi) < _FLOOR:
            return hi
        hi *= 2.0
    return None


def tail_integral(phi, lo: float) -> float:
    """integral_lo^inf phi(u) du for a nonnegative, integrable generator."""
    hi = generator_cutoff(phi, lo)
    value, _ = quad(phi, lo, np.inf if hi is None else hi, epsabs=0.0, epsrel=RTOL, limit=400)
    return value


def radial_moment(phi, d: int, power: int = 0) -> float:
    """integral_0^inf t^(d/2 - 1 + power) phi(t) dt."""
    expo = d / 2.0 - 1.0 + power

    def f(t):
        return t**expo * phi(t)

    hi = generator_cutoff(phi, 0.0)
    # split at 1 so the possible t^(negative) endpoint is handled cleanly
    left, _ = quad(f, 0.0, 1.0, epsabs=0.0, epsrel=RTOL, limit=400)
    right, _ = quad(f, 1.0, np.inf if hi is None else hi, epsabs=0.0, epsrel=RTOL, limit=400)
    return left + right


def elliptical_second_moment(phi, d: int) -> float:
    """E[q] where q = x' Ups^-1 x under the elliptical law; cov = E[q]/d * Ups.
    A generator with no finite, positive radial mass is a ParameterError."""
    num = radial_moment(phi, d, power=1)
    den = radial_moment(phi, d, power=0)
    if not (den > 0.0 and math.isfinite(den)):
        raise ParameterError("generator is not normalizable in this dimension")
    return 2.0 * num / den


class RadialProfile:
    """Tail-ratio profile r(q) = tail(q/2) / phi(q/2) of a generator.

    `exact` evaluates by adaptive quadrature; `table` builds a log-spaced
    interpolant for Monte Carlo work where millions of evaluations are
    needed and interpolation error is negligible against MC noise.
    """

    def __init__(self, phi):
        self.phi = phi

    def exact(self, q) -> np.ndarray:
        q = np.atleast_1d(np.asarray(q, dtype=float))
        out = np.empty_like(q)
        for i, qi in enumerate(q):
            ph = self.phi(qi / 2.0)
            if ph <= 0.0:
                raise ValueError("generator vanishes at the evaluation point")
            out[i] = tail_integral(self.phi, qi / 2.0) / ph
        return out

    def table(self, q_max: float, nodes: int = 768):
        grid = np.concatenate([[0.0], np.geomspace(1e-8, max(q_max, 1.0), nodes)])
        vals = self.exact(grid)
        top = grid[-1]

        def interp(q):
            q = np.asarray(q, dtype=float)
            out = np.interp(q, grid, vals)
            over = q > top
            if np.any(over):  # rare tail points fall back to exact quadrature
                out = np.where(over, 0.0, out)
                out[over] = self.exact(q[over])
            return out

        return interp
