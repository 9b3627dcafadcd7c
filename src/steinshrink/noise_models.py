"""Observation laws X = theta + Y with exact moments and seeded sampling.

Every model is immutable after construction and samples through
(seed, chunk index, draw task) substreams, so concurrent and serial runs
agree bit-for-bit.  A family's one sampling hook is `_fill(rng, out)`, a
centered draw written in place; `draw(rng, rows, empty)` writes theta plus
such a draw into `empty((rows, d))`, the model's stream for `_mc.run`, and a
composite law draws its parts with `_draw`.

A note on the Student family: it is realized by the Gamma variance
mixture X = theta + s * N / sqrt(g) with g ~ Gamma(k/2, rate k/2) and
s^2 = k/(k-2).  Since E[1/g] = k/(k-2), the coordinate variance of this
law is s^4 = (k/(k-2))^2, and that is the covariance the model reports;
the closed-form kernel and the Gamma coupling in the sibling modules are
exact for this same law.

The models carry no density: the zero-bias constructions need only each
coordinate law's tail integral and kernel (`laws1d`).  The one quadrature
here, a generic elliptical generator's second moment, loads its integrator
on first use (`quadrature.elliptical_second_moment`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._mc import draw_parts
from .errors import MomentUnavailableError, ParameterError
from .laws1d import Law1D
from .quadrature import elliptical_second_moment
from .testfns import FixedWeights, _as_matrix
from .theta import parse_theta

_DOUBLE_FACT = {0: 1.0, 2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0}


@dataclass(frozen=True)
class MomentSummary:
    mean: np.ndarray
    cov: FixedWeights
    trace_cov: float
    kappa: float
    c4: float | None = None
    c8: float | None = None

    def __post_init__(self):
        if self.kappa > self.trace_cov + 1e-9 * max(1.0, abs(self.trace_cov)):
            raise ParameterError("kappa cannot exceed the trace of a PSD covariance")
        if self.c4 is not None and self.c8 is not None and self.c8 < self.c4**2 - 1e-9:
            raise ParameterError("moment caps violate the Lyapunov inequality")


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    reasons: tuple = ()


class NoiseModel:
    """Base class: location family X = theta + Y for a centered law Y."""

    family = "abstract"

    def __init__(self, d: int, theta):
        if d < 1:
            raise ParameterError("dimension must be >= 1")
        self.d = int(d)
        th = parse_theta(theta, self.d) if not isinstance(theta, np.ndarray) else np.asarray(theta, dtype=float)
        if th.shape != (self.d,):
            raise ParameterError(f"theta has shape {th.shape}, expected ({self.d},)")
        th = th.copy()
        th.setflags(write=False)
        self.theta = th

    # -- sampling ---------------------------------------------------------
    def _fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """The one sampling hook: a centered draw of len(out) rows, written into `out`."""
        raise NotImplementedError

    def _draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """A fresh centered draw of m rows, for the laws built on this one."""
        return self._fill(rng, np.empty((m, self.d)))

    def draw(self, rng: np.random.Generator, rows: int, empty) -> np.ndarray:
        """theta + a fresh centered draw of `rows` rows, written into
        `empty((rows, d))`: the model's stream for `_mc.run`."""
        out = self._fill(rng, empty((rows, self.d)))
        out += self.theta
        return out

    def sample(self, n: int, seed: int) -> np.ndarray:
        return np.concatenate(draw_parts(n, seed, self.d, self.draw))

    # -- moments ----------------------------------------------------------
    def coordinate_moment(self, p: int) -> float | None:
        """sup over coordinates of E(X_i - theta_i)^p for even p <= 8."""
        raise NotImplementedError

    def moment_cap(self, p: int) -> float:
        value = self.coordinate_moment(p)
        if value is None:
            raise MomentUnavailableError(f"{self.family}: moment of order {p} unavailable")
        return value

    def cov(self) -> FixedWeights:
        """The covariance as weights: sigma2 Id, held as its diagonal, for the
        isotropic families; the others override it."""
        return FixedWeights(np.full(self.d, float(self.sigma2)))

    def moments(self) -> MomentSummary:
        cov = self.cov()
        M = cov.matrix  # a diagonal's largest eigenvalue is its largest entry
        kappa = float(M.max() if M.ndim == 1 else np.linalg.eigvalsh(M)[-1])
        try:
            c4, c8 = self.coordinate_moment(4), self.coordinate_moment(8)
        except OverflowError:
            raise ParameterError(f"{self.family}: a coordinate moment of order 4 or 8 "
                                 "overflows a double at this scale") from None
        return MomentSummary(mean=self.theta, cov=cov, trace_cov=cov.trace(), kappa=kappa,
                             c4=c4, c8=c8)

    # -- validity ---------------------------------------------------------
    def has_density(self) -> bool:
        return False

    def satisfies_conditional_mean_zero(self) -> bool:
        """Whether E[Y_i | Y_j, j != i] = 0 holds for the centered law."""
        return False

    def support_min_norm(self) -> float | None:
        """Lower bound on ||x|| over the support of X and its zero-bias laws."""
        return None

    def support_two_large_coords(self) -> bool | None:
        """Whether every support point has two coordinates bounded away from 0."""
        return None

    def validity(self, need: str) -> ValidityReport:
        if need == "kernel":
            return self._validity_kernel()
        if need == "zerobias":
            return self._validity_zerobias()
        raise ParameterError(f"unknown validity target {need!r}")

    def _validity_kernel(self) -> ValidityReport:
        reasons = []
        if not self.has_density():
            reasons.append("no Lebesgue density")
        if self.d < 5:
            reasons.append("d < 5")
        return ValidityReport(ok=not reasons, reasons=tuple(reasons))

    def _validity_zerobias(self) -> ValidityReport:
        if not self.satisfies_conditional_mean_zero():
            reason = "conditional-mean-zero condition not declared for this family"
            return ValidityReport(ok=False, reasons=(reason,))
        if self.has_density() and self.d >= 5:
            return ValidityReport(ok=True)
        # a support bounded away from 0, or with two coordinates bounded away from 0
        min_norm = self.support_min_norm()
        if (min_norm is not None and min_norm > 0) or self.support_two_large_coords():
            return ValidityReport(ok=True)
        reasons = []
        if not self.has_density():
            reasons.append("no density and support not separated from the origin")
        if self.d < 5:
            reasons.append("d < 5")
        return ValidityReport(ok=False, reasons=tuple(reasons))


# ---------------------------------------------------------------------------


class GaussianIso(NoiseModel):
    family = "gaussian_iso"

    def __init__(self, d: int, sigma2: float = 1.0, theta=None, scaling: str | None = None):
        super().__init__(d, theta)
        if sigma2 < 0:
            raise ParameterError("sigma2 must be nonnegative")
        if scaling == "pinsker":
            sigma2 = sigma2 / d
        elif scaling is not None:
            raise ParameterError(f"unknown scaling {scaling!r}")
        self.sigma2 = float(sigma2)
        self.scaling = scaling

    def _fill(self, rng, out):
        # the bits of rng.normal(0, sigma): 0 + sigma Z is sigma Z
        if self.sigma2 == 0.0:
            out[...] = 0.0
            return out
        rng.standard_normal(out=out)
        out *= math.sqrt(self.sigma2)
        return out

    def coordinate_moment(self, p):
        return _DOUBLE_FACT[p] * self.sigma2 ** (p // 2)

    def has_density(self):
        return self.sigma2 > 0.0

    def satisfies_conditional_mean_zero(self):
        return True


class StudentT(NoiseModel):
    """Gamma variance-mixture Student law; see the module docstring."""

    family = "student_t"

    def __init__(self, d: int, k: int, theta=None):
        super().__init__(d, theta)
        if k < 5:
            raise ParameterError("StudentT requires k >= 5")
        self.k = int(k)
        self.scale2 = self.k / (self.k - 2.0)  # Gamma-mixture scale squared
        self.sigma2 = self.scale2**2  # coordinate variance

    def _fill(self, rng, out):
        g = rng.gamma(self.k / 2.0, 2.0 / self.k, len(out))
        rng.standard_normal(out=out)
        out *= math.sqrt(self.scale2)
        out /= np.sqrt(g)[:, None]
        return out

    def coordinate_moment(self, p):
        if p == 0:
            return 1.0
        if self.k <= p:
            return None
        half = p // 2
        inv_gamma = 1.0
        for j in range(1, half + 1):
            inv_gamma *= self.k / (self.k - 2.0 * j)
        return _DOUBLE_FACT[p] * self.scale2**half * inv_gamma

    def has_density(self):
        return True

    def satisfies_conditional_mean_zero(self):
        return True


class SphereUniform(NoiseModel):
    """Y = sigma * sqrt(d) * U with U uniform on the unit sphere."""

    family = "sphere_uniform"

    def __init__(self, d: int, sigma: float = 1.0, theta=None):
        super().__init__(d, theta)
        if d < 2:
            raise ParameterError("sphere model needs d >= 2")
        if sigma <= 0:
            raise ParameterError("sigma must be positive")
        self.sigma = float(sigma)
        self.sigma2 = sigma**2
        self.radius = self.sigma * math.sqrt(self.d)

    def _fill(self, rng, out):
        rng.standard_normal(out=out)
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        out *= self.radius
        return out

    def coordinate_moment(self, p):
        if p == 0:
            return 1.0
        d = self.d
        denom = 1.0
        for j in range(p // 2):
            denom *= d + 2 * j
        return self.radius**p * _DOUBLE_FACT[p] / denom

    def satisfies_conditional_mean_zero(self):
        return True

    def support_min_norm(self):
        # the zero-bias support is the full ball of the same radius
        slack = float(np.linalg.norm(self.theta)) - self.radius
        return slack if slack > 0 else None

    def support_two_large_coords(self):
        return False


class BallUniform(NoiseModel):
    """Y = sigma * sqrt(d) * V with V uniform in the unit ball."""

    family = "ball_uniform"

    def __init__(self, d: int, sigma: float = 1.0, theta=None):
        super().__init__(d, theta)
        if sigma <= 0:
            raise ParameterError("sigma must be positive")
        self.sigma = float(sigma)
        self.radius = self.sigma * math.sqrt(self.d)
        self.sigma2 = self.sigma**2 * self.d / (self.d + 2.0)

    def _fill(self, rng, out):
        rng.standard_normal(out=out)
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        r = rng.uniform(0.0, 1.0, len(out)) ** (1.0 / self.d)
        out *= (self.radius * r)[:, None]
        return out

    def coordinate_moment(self, p):
        if p == 0:
            return 1.0
        d = self.d
        denom = 1.0
        for j in range(p // 2):
            denom *= d + 2 * j
        sphere_moment = _DOUBLE_FACT[p] / denom
        return self.radius**p * sphere_moment * d / (d + p)

    def has_density(self):
        return True

    def satisfies_conditional_mean_zero(self):
        return True

    def support_min_norm(self):
        slack = float(np.linalg.norm(self.theta)) - self.radius
        return slack if slack > 0 else None


class ProductIID(NoiseModel):
    """Independent coordinates, one shared symmetric 1-D law."""

    family = "product_iid"

    def __init__(self, d: int, law: Law1D, theta=None, scaling: str | None = None):
        super().__init__(d, theta)
        if scaling == "pinsker":
            law = law.scaled(1.0 / math.sqrt(d))
        elif scaling is not None:
            raise ParameterError(f"unknown scaling {scaling!r}")
        self.law = law
        self.sigma2 = law.variance
        self.scaling = scaling

    def _fill(self, rng, out):
        return self.law.sample(rng, out.shape, out=out)

    def draw(self, rng, rows, empty):
        return self.law.sample(rng, (rows, self.d), self.theta, out=empty((rows, self.d)))

    def coordinate_moment(self, p):
        if p == 0:
            return 1.0
        if p == 2:
            return self.sigma2
        if p == 4:
            return self.law.c4
        if p == 6:
            return self.law.c6
        if p == 8:
            return self.law.c8
        raise ParameterError(f"unsupported moment order {p}")

    def has_density(self):
        return True

    def satisfies_conditional_mean_zero(self):
        return True

    def support_two_large_coords(self):
        r = self.law.support_radius
        if r is None:
            return None
        clear = np.abs(self.theta) - r
        return bool(np.sum(clear > 0) >= 2)


class Elliptical(NoiseModel):
    """Density proportional to phi((x-theta)' Ups^-1 (x-theta) / 2).

    `dispersion` is the matrix Ups in the quadratic form; the covariance is
    (E[q]/d) * dispersion with E[q] computed by radial quadrature unless a
    closed form is supplied.  The normalizing constant is never needed.
    """

    family = "elliptical"

    def __init__(self, d, generator, dispersion, theta=None, *, name="elliptical",
                 second_moment=None):
        super().__init__(d, theta)
        disp = np.asarray(dispersion, dtype=float)
        if disp.shape != (d, d):
            raise ParameterError("dispersion must be d x d")
        if not np.allclose(disp, disp.T):
            raise ParameterError("dispersion must be symmetric")
        eig = np.linalg.eigvalsh(disp)
        if eig[0] <= 0:
            raise ParameterError("dispersion must be positive definite")
        self.generator = generator
        self.dispersion = disp
        self.name = name
        self._chol = np.linalg.cholesky(disp)
        self._eq = elliptical_second_moment(generator, d) if second_moment is None else second_moment
        self._radial_cdf = None
        self._radial_lock = threading.Lock()  # draw tasks on several threads build it once

    @classmethod
    def gaussian(cls, d: int, sigma2: float = 1.0, theta=None) -> "Elliptical":
        """Gaussian generator with its closed-form second moment (no quadrature)."""
        return cls(
            d,
            lambda t: math.exp(-t),
            sigma2 * np.eye(d),
            theta,
            name="elliptical-gaussian",
            second_moment=float(d),
        )

    @classmethod
    def student(cls, d: int, k: int, theta=None) -> "Elliptical":
        """Student generator with its closed-form second moment, matching StudentT."""
        if k < 5:
            raise ParameterError("need k >= 5")
        s2 = k / (k - 2.0)
        return cls(
            d,
            lambda t: (1.0 + 2.0 * t / k) ** (-(k + d) / 2.0),
            s2 * np.eye(d),
            theta,
            name="elliptical-student",
            second_moment=float(d) * s2,
        )

    def cov(self):
        return FixedWeights((self._eq / self.d) * self.dispersion)

    def coordinate_moment(self, p):
        if p == 2:
            return float(np.max(self.cov().diagonal()))
        return None

    def has_density(self):
        return True

    def satisfies_conditional_mean_zero(self):
        return bool(np.allclose(self.dispersion, np.diag(np.diag(self.dispersion))))

    def _radial_inverse_cdf(self):
        with self._radial_lock:
            if self._radial_cdf is None:
                # tabulate F(r) for r = ||z||, density prop to r^(d-1) phi(r^2/2);
                # extend the range until the local tail mass estimate is negligible
                def f(r):
                    return r ** (self.d - 1) * self.generator(r * r / 2.0)

                hi, peak = 1.0, 0.0
                while hi < 1e30:
                    peak = max(peak, f(hi))
                    if f(hi) * hi < 1e-14 * max(peak, 1e-300):
                        break
                    hi *= 2.0
                grid = np.linspace(0.0, hi, 1 << 15)
                pdf = grid ** (self.d - 1) * np.asarray([self.generator(t) for t in grid * grid / 2.0])
                cdf = np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))
                cdf = np.concatenate([[0.0], cdf])
                cdf /= cdf[-1]
                self._radial_cdf = (grid, cdf)
            return self._radial_cdf

    def _fill(self, rng, out):
        grid, cdf = self._radial_inverse_cdf()
        r = np.interp(rng.uniform(0.0, 1.0, len(out)), cdf, grid)
        g = rng.standard_normal(out.shape)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        g *= r[:, None]
        return np.matmul(g, self._chol.T, out=out)


class Mixture(NoiseModel):
    family = "mixture"

    def __init__(self, components, weights, theta=None):
        if not components:
            raise ParameterError("mixture needs at least one component")
        d = components[0].d
        super().__init__(d, theta)
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(components),) or np.any(w < 0):
            raise ParameterError("weights must be nonnegative, one per component")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError("mixture weights must sum to 1 within 1e-12")
        for c in components:
            if c.d != d:
                raise ParameterError("mixture components must share the dimension")
            if np.any(c.theta != 0.0):
                raise ParameterError("mixture components must be centered")
        self.components = tuple(components)
        self.weights = w

    def _fill(self, rng, out):
        idx = rng.choice(len(self.components), size=len(out), p=self.weights)
        for s, comp in enumerate(self.components):
            rows = np.flatnonzero(idx == s)
            if rows.size:
                out[rows] = comp._draw(rng, rows.size)
        return out

    def cov(self):
        # components are centered, so the law of total variance is a plain mix,
        # of diagonals unless some component's covariance is dense
        mats = [c.cov().matrix for c in self.components]
        if any(M.ndim == 2 for M in mats):
            mats = [_as_matrix(M) for M in mats]
        return FixedWeights(sum(w * M for w, M in zip(self.weights, mats)))

    def coordinate_moment(self, p):
        if p == 0:
            return 1.0
        vals = [c.coordinate_moment(p) for c in self.components]
        if any(v is None for v in vals):
            return None
        return float(np.dot(self.weights, vals))

    def has_density(self):
        return all(c.has_density() for c in self.components)

    def satisfies_conditional_mean_zero(self):
        return all(c.satisfies_conditional_mean_zero() for c in self.components)

    def support_min_norm(self):
        return None  # component supports are not tracked through the shift


def _isotropic_variance(outlier: NoiseModel) -> float:
    """sigma^2 of an outlier law whose covariance is sigma^2 Id, held as its diagonal."""
    diag = outlier.cov().matrix
    if diag.ndim != 1 or not np.allclose(diag, diag[0]):
        raise ParameterError("outlier must have isotropic covariance")
    return float(diag[0])


class AdditiveCorruption(NoiseModel):
    """Y = sqrt(1-eps) * Y0 + sqrt(eps) * Y1 with Gaussian Y0 and outlier Y1."""

    family = "corrupted_gaussian_additive"

    def __init__(self, eps: float, outlier: NoiseModel, theta=None):
        if not 0.0 <= eps <= 1.0:
            raise ParameterError("eps must lie in [0, 1]")
        super().__init__(outlier.d, theta)
        if np.any(outlier.theta != 0.0):
            raise ParameterError("outlier must be centered")
        self.eps = float(eps)
        self.outlier = outlier
        self.sigma2 = _isotropic_variance(outlier)

    def _fill(self, rng, out):
        # the bits of rng.normal(0, sigma), as in GaussianIso
        rng.standard_normal(out=out)
        out *= math.sqrt(self.sigma2)
        y1 = self.outlier._draw(rng, len(out))
        out *= math.sqrt(1.0 - self.eps)
        y1 *= math.sqrt(self.eps)
        out += y1
        return out

    def coordinate_moment(self, p):
        if p == 0:
            return 1.0
        a2, b2 = 1.0 - self.eps, self.eps
        try:
            mom_out = {q: self.outlier.moment_cap(q) for q in range(2, p + 1, 2)}
        except (MomentUnavailableError, ParameterError):
            return None
        mom_gauss = {q: _DOUBLE_FACT[q] * self.sigma2 ** (q // 2) for q in range(2, p + 1, 2)}
        mom_gauss[0] = 1.0
        mom_out[0] = 1.0
        total = 0.0
        for j in range(0, p + 1, 2):
            total += math.comb(p, j) * a2 ** ((p - j) / 2) * b2 ** (j / 2) * mom_gauss[p - j] * mom_out[j]
        return total

    def has_density(self):
        return self.eps < 1.0  # Gaussian convolution smooths the law

    def satisfies_conditional_mean_zero(self):
        return self.outlier.satisfies_conditional_mean_zero()


class MixingCorruption(Mixture):
    """With probability 1-eps a Gaussian draw, with probability eps the outlier."""

    family = "corrupted_gaussian_mixing"

    def __init__(self, eps: float, outlier: NoiseModel, theta=None):
        if not 0.0 <= eps <= 1.0:
            raise ParameterError("eps must lie in [0, 1]")
        s2 = _isotropic_variance(outlier)
        super().__init__([GaussianIso(outlier.d, s2), outlier], [1.0 - eps, eps], theta)
        self.eps = float(eps)
        self.outlier = outlier
        self.sigma2 = s2


class LinearTransform(NoiseModel):
    """X = theta + A Y for a centered base law Y."""

    family = "linear_transform"

    def __init__(self, A, base: NoiseModel, theta=None):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ParameterError("A must be square")
        if abs(np.linalg.det(A)) < 1e-300:
            raise ParameterError("A must be invertible")
        if np.any(base.theta != 0.0):
            raise ParameterError("base law must be centered")
        super().__init__(A.shape[0], theta)
        if base.d != self.d:
            raise ParameterError("A and the base law disagree on dimension")
        self.A = A
        self.base = base

    def _fill(self, rng, out):
        return np.matmul(self.base._draw(rng, len(out)), self.A.T, out=out)

    def cov(self):
        return self.base.cov().transformed(self.A)

    def coordinate_moment(self, p):
        if p == 2:
            return float(np.max(self.cov().diagonal()))
        if np.allclose(self.A, np.diag(np.diag(self.A))):
            base_m = self.base.coordinate_moment(p)
            if base_m is None:
                return None
            return float(np.max(np.abs(np.diag(self.A)) ** p)) * base_m
        return None

    def has_density(self):
        return self.base.has_density()

    def satisfies_conditional_mean_zero(self):
        return self.base.satisfies_conditional_mean_zero() and bool(
            np.allclose(self.A, np.diag(np.diag(self.A)))
        )

    def support_min_norm(self):
        return None  # transformed supports are not tracked analytically


class FourPointDegenerate(NoiseModel):
    """Uniform law on {(+-1, 0), (0, +-1)}: the zero-bias identity for the
    shrinkage field fails here, which validity checks must flag."""

    family = "four_point_degenerate"

    _POINTS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])

    def __init__(self, theta=None):
        super().__init__(2, theta)
        self.sigma2 = 0.5

    def _fill(self, rng, out):
        return np.take(self._POINTS, rng.integers(0, 4, len(out)), axis=0, out=out)

    def coordinate_moment(self, p):
        return 0.5

    def satisfies_conditional_mean_zero(self):
        return True

    def support_two_large_coords(self):
        return False

    def support_min_norm(self):
        # the zero-bias supports are segments through the origin
        return None
