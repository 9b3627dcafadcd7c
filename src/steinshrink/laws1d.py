"""Symmetric one-dimensional noise laws used as product-model coordinates.

Each law exposes exact moments (variance, c4, c6, c8), its rescaled copy
(`scaled`), a density, the tail integral tail(y) = integral_y^inf u p(u) du,
its one-dimensional Stein kernel T(y) = tail(y) / p(y), and an exact sampler
of its zero-bias law.  The zero-bias density is tail(y) / var, so the tail
integral is the one closed form of both.

Laplace and uniform variates are inversions of one uniform each, and their
zero-bias variates take one more; both are written in place one sub-block
at a time (`_Inversion`).  A law draws serially on the generator it is
given; a chunk is drawn on the usable cores one level up, in draw tasks
that each have their own generator (`_mc.draw_tasks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParameterError

# Variates per `_Inversion` fill call: the sub-block and its scratch (256 KB
# each; a zero-bias fill has two) stay in cache through the fill's passes and
# the shift.  A zero-bias sub-block takes all its first uniforms, then all its
# second ones, so this constant is part of the companion stream's definition
# (changing it changes the bytes of every zero-bias draw), as `_mc._DRAW_TASK`
# is of every stream.
_SUB_BLOCK = 1 << 15
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = math.log(_SQRT_2PI)


# N(loc, scale^2) density, log density and upper tail, evaluated as
# scipy.stats.norm does, without importing scipy.stats; the tail imports
# scipy.special's ndtr on its first call, not with the package
def _normal_logpdf(y, loc, scale):
    z = (np.asarray(y, dtype=float) - loc) / scale
    return -(z**2) / 2.0 - _LOG_SQRT_2PI - math.log(scale)


def _normal_pdf(y, loc, scale):
    z = (np.asarray(y, dtype=float) - loc) / scale
    return np.exp(-(z**2) / 2.0) / _SQRT_2PI / scale


def _normal_sf(y, loc, scale):
    from scipy.special import ndtr

    return ndtr(-(np.asarray(y, dtype=float) - loc) / scale)


class Law1D:
    """Mean-zero symmetric 1-D law with closed-form Stein/zero-bias data."""

    name: str = ""

    @property
    def variance(self) -> float:
        raise NotImplementedError

    @property
    def c4(self) -> float:
        raise NotImplementedError

    @property
    def c6(self) -> float:
        raise NotImplementedError

    @property
    def c8(self) -> float:
        raise NotImplementedError

    def scaled(self, factor: float) -> "Law1D":
        """The law of `factor` times a variate."""
        raise NotImplementedError

    # support half-width; None for unbounded laws
    support_radius: float | None = None

    def sample(self, rng: np.random.Generator, size, shift=None, *, out=None) -> np.ndarray:
        """`size` variates, plus `shift` if given, written into the array
        `out` (of shape `size`) if given."""
        return _placed(self._variates(rng, size), shift, out)

    def _variates(self, rng: np.random.Generator, size) -> np.ndarray:
        raise NotImplementedError

    def zb_sample(self, rng: np.random.Generator, size, shift=None, *, out=None) -> np.ndarray:
        """`size` exact draws of the zero-bias law, density tail(y) / var,
        placed as `sample` places its variates."""
        return _placed(self._zb_variates(rng, size), shift, out)

    def _zb_variates(self, rng: np.random.Generator, size) -> np.ndarray:
        raise NotImplementedError

    def pdf(self, y) -> np.ndarray:
        return np.exp(self.log_pdf(y))

    def log_pdf(self, y) -> np.ndarray:
        raise NotImplementedError

    def tail_first_moment(self, y) -> np.ndarray:
        """integral_y^inf u p(u) du, vectorized."""
        raise NotImplementedError

    def kernel(self, y, out=None) -> np.ndarray:
        """1-D Stein kernel T(y) = tail_first_moment(y) / pdf(y), written into
        `out` if given, which may be y itself."""
        y = np.asarray(y, dtype=float)
        p = self.pdf(y)
        if np.any(p <= 0.0):
            raise EvaluationError(f"{self.name}: kernel evaluated where the density vanishes")
        return _placed(self.tail_first_moment(y) / p, None, out)


def _placed(x, shift, out) -> np.ndarray:
    """x + `shift` if given, written into `out` if given."""
    if shift is not None:
        x += shift
    if out is None:
        return x
    out[...] = x
    return out


class _Inversion(Law1D):
    """A law whose variate is the inverse CDF of one uniform, one 64-bit
    generator output (Devroye 1986, *Non-Uniform Random Variate Generation*,
    section 2.1), written in place by `_fill`; its zero-bias variate takes
    two outputs, written in place by `_zb_fill`."""

    def sample(self, rng, size, shift=None, *, out=None):
        """`size` variates (+ `shift` on each row of size[1:]), written into
        `out` if given; the bytes do not depend on the sub-block."""
        return _sub_blocks(self._fill, rng, size, shift, out)

    def zb_sample(self, rng, size, shift=None, *, out=None):
        """`size` zero-bias variates, placed as by `sample`: per sub-block,
        all their first uniforms, then all their second ones (`_SUB_BLOCK`)."""
        return _sub_blocks(self._zb_fill, rng, size, shift, out, scratches=2)

    def _fill(self, g: np.random.Generator, out: np.ndarray, scratch: np.ndarray) -> None:
        """Write len(out) variates from `g` into the flat array `out`, one
        64-bit output each; `scratch` (as long) may be overwritten."""
        raise NotImplementedError

    def _zb_fill(self, g: np.random.Generator, out: np.ndarray, scratch: np.ndarray,
                 second: np.ndarray) -> None:
        """`_fill`, but zero-bias variates, two 64-bit outputs each: the
        `_fill` outputs of all of them, then one more for each; `scratch`
        and `second` (each as long) may be overwritten."""
        raise NotImplementedError


def _sub_blocks(fill, rng, size, shift=None, out=None, scratches=1) -> np.ndarray:
    """`size` values of `fill` (+ `shift` on each row of size[1:]), written
    into `out` if given, one sub-block of rows at a time with `scratches`
    sub-blocks of scratch."""
    if out is None:
        out = np.empty(size)
    rows = out.reshape(len(out), -1)
    step = max(1, min(len(rows), _SUB_BLOCK // max(rows.shape[1], 1)))
    scratch = np.empty((scratches, step * rows.shape[1]))
    for r in range(0, len(rows), step):
        block = rows[r : r + step]
        fill(rng, block.reshape(-1), *scratch[:, : block.size])
        if shift is not None:
            block += shift
    return out


@dataclass(frozen=True)
class Gaussian1D(Law1D):
    sigma: float = 1.0
    name = "gaussian"

    def __post_init__(self):
        if self.sigma <= 0:
            raise ParameterError("sigma must be positive")

    @property
    def variance(self):
        return self.sigma**2

    @property
    def c4(self):
        return 3.0 * self.sigma**4

    @property
    def c6(self):
        return 15.0 * self.sigma**6

    @property
    def c8(self):
        return 105.0 * self.sigma**8

    def scaled(self, factor):
        return Gaussian1D(self.sigma * factor)

    def _variates(self, rng, size):
        return rng.normal(0.0, self.sigma, size)

    def log_pdf(self, y):
        y = np.asarray(y, dtype=float)
        return -0.5 * (y / self.sigma) ** 2 - math.log(self.sigma) - 0.5 * math.log(2 * math.pi)

    def tail_first_moment(self, y):
        y = np.asarray(y, dtype=float)
        return self.sigma**2 * np.exp(self.log_pdf(y))

    def kernel(self, y, out=None):
        if out is None:
            return np.full_like(np.asarray(y, dtype=float), self.sigma**2)
        out.fill(self.sigma**2)
        return out

    def _zb_variates(self, rng, size):
        return rng.normal(0.0, self.sigma, size)  # the Gaussian is the fixed point


@dataclass(frozen=True)
class Laplace1D(_Inversion):
    b: float = 1.0
    name = "laplace"

    def __post_init__(self):
        if self.b <= 0:
            raise ParameterError("scale b must be positive")

    @property
    def variance(self):
        return 2.0 * self.b**2

    @property
    def c4(self):
        return 24.0 * self.b**4

    @property
    def c6(self):
        return math.factorial(6) * self.b**6

    @property
    def c8(self):
        return math.factorial(8) * self.b**8

    def scaled(self, factor):
        return Laplace1D(self.b * factor)

    def _fill(self, g, out, scratch):
        # numpy's C `random_laplace` on the same uniform U, as array passes:
        # b log(U + U) below 1/2, -b log((2 - U) - U) from 1/2 on, so
        # copysign(b log(min(U + U, (2 - U) - U)), U - 1/2)
        _uniform_and_w(g, out, scratch)
        np.log(scratch, out=scratch)
        scratch *= self.b
        np.copysign(scratch, out, out=out)

    def log_pdf(self, y):
        y = np.asarray(y, dtype=float)
        return -np.abs(y) / self.b - math.log(2.0 * self.b)

    def tail_first_moment(self, y):
        y = np.asarray(y, dtype=float)
        a = np.abs(y)
        upper = (a + self.b) * np.exp(-a / self.b) / 2.0
        # for y < 0 the integral over (y, inf) of an odd-symmetric integrand
        # equals the one over (|y|, inf)
        return upper

    def kernel(self, y, out=None):
        # b (|y| + b), in place: a product's factors commute, so the bits are those of b * (...)
        out = np.abs(np.asarray(y, dtype=float), out=out)
        out += self.b
        out *= self.b
        return out

    def _zb_fill(self, g, out, scratch, second):
        # X* = S b (E1 + B E2), the equal mixture of Laplace(b) and a signed
        # Gamma(2, b) (Goldstein and Reinert 1997), from two uniforms: the
        # Laplace variate of `_fill` on U1 is copysign(-b log W, U1 - 1/2)
        # with W = min(2 U1, 2 - 2 U1), and B E2 = -log M with M = min(2 U2, 1)
        # (E2 = -log 2U2 below U2 = 1/2, 0 from 1/2 on), so X* is
        # copysign(-b log(W M), U1 - 1/2): one log for both parts (Devroye
        # 1986, *Non-Uniform Random Variate Generation*).  U2 = 0 is read as
        # 2^-53, as U1 = 0 is.
        _uniform_and_w(g, out, scratch)
        g.random(out=second)
        second += second  # 2 U2, exact
        np.maximum(second, 2.0**-52, out=second)
        np.minimum(second, 1.0, out=second)  # M
        scratch *= second
        np.log(scratch, out=scratch)
        scratch *= -self.b
        np.copysign(scratch, out, out=out)


def _uniform_and_w(g, out, scratch) -> None:
    """Draw U from `g` into `out`, then write W = min(U + U, (2 - U) - U)
    into `scratch` and 2U - 1, whose sign is U - 1/2's, into `out`.  U = 0
    (which numpy's Laplace sampler redraws from a second output) is read as
    2^-53, the least positive U, so every variate takes one output and W > 0."""
    g.random(out=out)
    np.subtract(2.0, out, out=scratch)
    scratch -= out
    out += out  # U + U, exact
    np.maximum(out, 2.0**-52, out=out)
    np.minimum(out, scratch, out=scratch)
    out -= 1.0  # exact but at U = 0


@dataclass(frozen=True)
class Uniform1D(_Inversion):
    a: float = 1.0
    name = "uniform"

    def __post_init__(self):
        if self.a <= 0:
            raise ParameterError("half-width a must be positive")

    @property
    def variance(self):
        return self.a**2 / 3.0

    @property
    def c4(self):
        return self.a**4 / 5.0

    @property
    def c6(self):
        return self.a**6 / 7.0

    @property
    def c8(self):
        return self.a**8 / 9.0

    def scaled(self, factor):
        return Uniform1D(self.a * factor)

    @property
    def support_radius(self):
        return self.a

    def _fill(self, g, out, scratch):
        # numpy's uniform(-a, a) is -a + (2a) U, with the same two roundings
        g.random(out=out)
        out *= 2.0 * self.a
        out += -self.a

    def log_pdf(self, y):
        y = np.asarray(y, dtype=float)
        out = np.where(np.abs(y) <= self.a, -math.log(2.0 * self.a), -np.inf)
        return out

    def tail_first_moment(self, y):
        y = np.asarray(y, dtype=float)
        yc = np.clip(y, -self.a, self.a)
        return (self.a**2 - yc**2) / (4.0 * self.a)

    def kernel(self, y, out=None):
        y = np.asarray(y, dtype=float)
        if np.any(np.abs(y) > self.a):
            raise EvaluationError("uniform kernel evaluated outside the support")
        out = np.subtract(self.a**2, np.square(y, out=out), out=out)  # (a^2 - y^2) / 2
        out /= 2.0
        return out

    def _zb_fill(self, g, out, scratch, second):
        # X* = a (2U1 - 1) cbrt(U2): a uniform(-a, a) variate times the cube
        # root of a second uniform, density 3 (a^2 - y^2) / (4 a^3)
        self._fill(g, out, scratch)
        g.random(out=second)
        np.cbrt(second, out=second)
        out *= second


@dataclass(frozen=True)
class SmoothedRademacher1D(Law1D):
    """A +-c coin smoothed by a small N(0, h^2), keeping a density."""

    c: float = 1.0
    h: float = 0.1
    name = "smoothed_rademacher"

    def __post_init__(self):
        if self.c <= 0 or self.h <= 0:
            raise ParameterError("c and h must be positive")

    @property
    def variance(self):
        return self.c**2 + self.h**2

    @property
    def c4(self):
        c2, h2 = self.c**2, self.h**2
        return c2**2 + 6.0 * c2 * h2 + 3.0 * h2**2

    @property
    def c6(self):
        c2, h2 = self.c**2, self.h**2
        return c2**3 + 15 * c2**2 * h2 + 45 * c2 * h2**2 + 15 * h2**3

    @property
    def c8(self):
        c2, h2 = self.c**2, self.h**2
        return c2**4 + 28 * c2**3 * h2 + 210 * c2**2 * h2**2 + 420 * c2 * h2**3 + 105 * h2**4

    def scaled(self, factor):
        return SmoothedRademacher1D(self.c * factor, self.h * factor)

    def _variates(self, rng, size):
        signs = rng.choice([-1.0, 1.0], size)
        return self.c * signs + rng.normal(0.0, self.h, size)

    def log_pdf(self, y):
        lp = _normal_logpdf(y, self.c, self.h)
        lm = _normal_logpdf(y, -self.c, self.h)
        return np.logaddexp(lp, lm) - math.log(2.0)

    def tail_first_moment(self, y):
        h2 = self.h**2
        up = self.c * _normal_sf(y, self.c, self.h) + h2 * _normal_pdf(y, self.c, self.h)
        dn = -self.c * _normal_sf(y, -self.c, self.h) + h2 * _normal_pdf(y, -self.c, self.h)
        return 0.5 * (up + dn)

    def _zb_variates(self, rng, size):
        # zero-bias of a sum: resample the coin summand with probability
        # c^2/var (its zero-bias is uniform on [-c, c]), else keep the law
        signs = rng.choice([-1.0, 1.0], size)
        z = rng.normal(0.0, self.h, size)
        u = rng.uniform(-self.c, self.c, size)
        pick = rng.uniform(0.0, 1.0, size) < self.c**2 / self.variance
        return np.where(pick, u + z, self.c * signs + z)
