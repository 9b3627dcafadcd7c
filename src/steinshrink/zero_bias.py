"""Multivariate zero-bias transforms: constructions, couplings, densities.

A coupling produces joint draws (X, X^{ij}) such that

    E <X - theta, f(X)> = sum_ij sigma_ij E[ d_j f_i (X^{ij}) ],

with the weights sigma_ij taken from the covariance of the centered law.
Whenever the source law admits an explicit coupling (coordinate replacement
for independent coordinates, the radial coupling on the sphere, the shared
Gamma-mixture coupling for the Student family, sums, mixtures and linear
images), the joint draw is exact.  A generic square-bias construction is
also provided for laws without a special structure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._mc import RiskReport, chunk_plan, report_from, run, substream
from .errors import ParameterError
from .laws1d import Gaussian1D, Law1D
from .noise_models import (
    GaussianIso,
    Mixture,
    NoiseModel,
    ProductIID,
    SphereUniform,
    StudentT,
)
from .quadrature import quad
from .testfns import FixedWeights, TestFn, _per_row


class JointChunk:
    """One chunk of joint draws: X plus its zero-bias companions.

    Companions come in one of three forms: shared (`star`, one array serves
    every index), coordinate replacement (`R`: X^i is X with x_i := R_i,
    so no X^i is ever built) or per index (`star_fn(i, j)`).
    """

    def __init__(self, X, theta, pairs, star=None, star_fn=None, R=None):
        self.X = X
        self.R = R  # replacement values, uncentered like X
        self._theta = theta
        self.pairs = pairs  # list of ((i, j), weight)
        self._star = star  # shared companion, when one serves every index
        self._star_fn = star_fn  # (i, j) -> centered companion draw

    @property
    def star(self):
        if self._star is None:
            raise ParameterError("this coupling has per-index companions")
        return self._theta + self._star

    @property
    def shared(self) -> bool:
        return self._star is not None

    def _centered_star(self, i: int, j: int) -> np.ndarray:
        if self.shared:
            return self._star
        if self.R is not None:
            return self.companion(i, j) - self._theta
        return self._star_fn(i, j)

    def companion(self, i: int, j: int) -> np.ndarray:
        """X^{ij}; one array serves every pair when the companion is shared."""
        if self.R is not None and not self.shared:
            out = self.X.copy()
            out[:, i] = self.R[:, i]
            return out
        return self._theta + self._centered_star(i, j)

    def iter_stars(self):
        for (i, j), w in self.pairs:
            yield i, j, w, self.companion(i, j)

    def weighted_partials(self, field, weights: FixedWeights) -> np.ndarray:
        """sum_ij w_ij d_j f_i(X^{ij}) rowwise, for a field with `guard`,
        `contract`, `contract_replaced` and `partial` (a TestFn or an
        estimator perturbation).

        A shared companion takes one closed-form contraction, and so does a
        replacement chunk, whose pairs are all (i, i); otherwise the sum runs
        over the coupling's index pairs with nonzero weight.
        """
        rows = self.X.shape[0]
        if self.shared:
            xs = self.star
            field.guard(xs)
            return field.contract(xs, weights)
        if self.R is not None:
            idx = [i for (i, _), _ in self.pairs]
            w = np.zeros(self.X.shape[1])
            w[idx] = np.diagonal(weights.matrix)[idx]
            return _per_row(field.contract_replaced(self.X, self.R, w), rows)
        vals = np.zeros(rows)
        for i, j, _, xij in self.iter_stars():
            w = weights.matrix[i, j]
            if w != 0.0:
                field.guard(xij)
                vals += w * field.partial(xij, i, j)
        return vals


class ZeroBiasCoupling:
    """Base class; subclasses implement `_centered(rng, rows)`."""

    construction = "abstract"
    same_for_all = False

    def __init__(self, base: NoiseModel, sigma_w: np.ndarray):
        self.base = base
        sigma_w = np.asarray(sigma_w, dtype=float)
        if sigma_w.shape != (base.d, base.d):
            raise ParameterError("weight matrix must be d x d")
        self.sigma = sigma_w
        rows, cols = np.nonzero(sigma_w)  # row-major, as a double loop over (i, j)
        self.pairs = list(zip(zip(rows.tolist(), cols.tolist()), sigma_w[rows, cols].tolist()))

    @property
    def d(self):
        return self.base.d

    @property
    def theta(self):
        return self.base.theta

    def index_law(self) -> np.ndarray:
        """P(I=i, J=j) = sigma_ij / sum sigma_ij; needs nonnegative weights."""
        if np.any(self.sigma < 0):
            raise ParameterError("index law requires nonnegative covariance entries")
        total = float(self.sigma.sum())
        if total <= 0:
            raise ParameterError("index law requires a positive total weight")
        return self.sigma / total

    def _centered(self, rng: np.random.Generator, rows: int) -> JointChunk:
        raise NotImplementedError

    def _chunk_dim(self) -> int:
        return 4 * self.d

    def joint_chunks(self, n: int, seed: int):
        for idx, rows in chunk_plan(n, self._chunk_dim()):
            rng = substream(seed, idx)
            yield self._centered(rng, rows)

    def pair_sampler(self, i: int, j: int, n: int, seed: int):
        """Paired draws (X, X^{ij}) for one index pair."""
        if self.sigma[i, j] == 0.0:
            raise ParameterError(f"sigma_{i}{j} = 0: the companion X^{{{i}{j}}} is undefined")
        xs, stars = [], []
        for chunk in self.joint_chunks(n, seed):
            xs.append(chunk.X)
            stars.append(chunk.companion(i, j))
        return np.concatenate(xs), np.concatenate(stars)


class IndependentReplaceCoupling(ZeroBiasCoupling):
    """Replace one coordinate of an independent-coordinate law by its 1-D
    zero-bias draw, keeping the others."""

    construction = "independent_replace"

    def __init__(self, model: NoiseModel):
        law = _coordinate_law(model)
        super().__init__(model, law.variance * np.eye(model.d))
        self.law = law

    def _centered(self, rng, rows):
        X = self.law.sample(rng, (rows, self.d))
        X += self.theta
        R = self.law.zb_sample(rng, (rows, self.d))
        R += self.theta
        return JointChunk(X, self.theta, self.pairs, R=R)


def _coordinate_law(model: NoiseModel) -> Law1D:
    if isinstance(model, ProductIID):
        return model.law
    if isinstance(model, GaussianIso):
        return Gaussian1D(math.sqrt(model.sigma2))
    raise ParameterError("independent-replace coupling needs independent coordinates")


class SphereCoupling(ZeroBiasCoupling):
    """X = theta + s sqrt(d) U on the sphere; every companion is the same
    ball draw theta + s sqrt(d) R U with R ~ d r^(d-1) on [0, 1]."""

    construction = "sphere_ball"
    same_for_all = True

    def __init__(self, model: SphereUniform):
        if not isinstance(model, SphereUniform):
            raise ParameterError("sphere coupling needs a SphereUniform model")
        super().__init__(model, model.sigma2 * np.eye(model.d))

    def _centered(self, rng, rows):
        g = rng.standard_normal((rows, self.d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        Y = self.base.radius * g
        r = rng.uniform(0.0, 1.0, rows) ** (1.0 / self.d)
        return JointChunk(self.theta + Y, self.theta, self.pairs, star=r[:, None] * Y)


class StudentGammaCoupling(ZeroBiasCoupling):
    """Shared-normal Gamma coupling for the Student family:
    X = theta + s N / sqrt(delta + eps), X^i = theta + s N / sqrt(delta),
    delta ~ Gamma(k/2 - 1, rate k/2), eps ~ Gamma(1, rate k/2)."""

    construction = "student_gamma"
    same_for_all = True

    def __init__(self, model: StudentT):
        if not isinstance(model, StudentT):
            raise ParameterError("student coupling needs a StudentT model")
        super().__init__(model, model.sigma2 * np.eye(model.d))
        self.k = model.k
        self.scale = math.sqrt(model.scale2)

    def _centered(self, rng, rows):
        k = self.k
        delta = rng.gamma(k / 2.0 - 1.0, 2.0 / k, rows)
        eps = rng.gamma(1.0, 2.0 / k, rows)
        N = rng.standard_normal((rows, self.d))
        Y = self.scale * N / np.sqrt(delta + eps)[:, None]
        Ystar = self.scale * N / np.sqrt(delta)[:, None]
        return JointChunk(self.theta + Y, self.theta, self.pairs, star=Ystar)


class ScaledCoupling(ZeroBiasCoupling):
    """Coupling of c * Y from a coupling of Y (weights scale by c^2)."""

    def __init__(self, inner: ZeroBiasCoupling, c: float):
        super().__init__(inner.base, c * c * inner.sigma)
        self.inner = inner
        self.c = float(c)
        self.construction = inner.construction
        self.same_for_all = inner.same_for_all

    def _centered(self, rng, rows):
        chunk = self.inner._centered(rng, rows)
        X = self.theta + (chunk.X - self.inner.theta) * self.c
        star = chunk._star * self.c if chunk.shared else None
        R = None if chunk.R is None else self.theta + (chunk.R - self.inner.theta) * self.c
        star_fn = None
        if star is None and R is None:

            def star_fn(i, j):
                return chunk._star_fn(i, j) * self.c

        return JointChunk(X, self.theta, self.pairs, star=star, star_fn=star_fn, R=R)


class GaussianFixedPointCoupling(ZeroBiasCoupling):
    """X^i = X exactly: the Gaussian is the fixed point of the transform, so
    one shared companion serves every index.  It is also a replacement
    companion with R = X, which sums and mixtures of replacements use."""

    construction = "gaussian_fixed_point"
    same_for_all = True

    def __init__(self, model: GaussianIso):
        super().__init__(model, model.sigma2 * np.eye(model.d))

    def _centered(self, rng, rows):
        Y = self.base._draw(rng, rows)
        X = self.theta + Y
        return JointChunk(X, self.theta, self.pairs, star=Y, R=X)


class SumCoupling(ZeroBiasCoupling):
    """Zero-bias of a sum of independent centered terms: one term, chosen
    with probability sigma_{j,i}^2 / sigma_i^2, is replaced by its
    zero-biased version; the others ride along.  When every term is a
    coordinate replacement, so is the sum: R_i = X_i - Y_pick,i + Z_pick,i."""

    construction = "sum"

    def __init__(self, base: NoiseModel, components: list[ZeroBiasCoupling]):
        if not components:
            raise ParameterError("sum coupling needs components")
        d = components[0].d
        diags = []
        for comp in components:
            if comp.d != d:
                raise ParameterError("sum components must share the dimension")
            if not np.allclose(comp.sigma, np.diag(np.diag(comp.sigma))):
                raise ParameterError("sum coupling needs diagonal component covariances")
            if np.any(comp.theta != 0.0):
                raise ParameterError("sum components must be centered")
            diags.append(np.diag(comp.sigma))
        total = np.sum(diags, axis=0)
        if np.any(total <= 0):
            raise ParameterError("zero total variance in some coordinate")
        super().__init__(base, np.diag(total))
        self.components = components
        self.pick_probs = np.stack(diags, axis=0) / total  # (ncomp, d)

    def _chunk_dim(self) -> int:
        return 4 * self.d * (len(self.components) + 1)

    def _centered(self, rng, rows):
        chunks = [comp._centered(rng, rows) for comp in self.components]
        Ys = [c.X - comp.theta for c, comp in zip(chunks, self.components)]
        total = sum(Ys)
        picks = {
            i: rng.choice(len(self.components), size=rows, p=self.pick_probs[:, i])
            for i in range(self.d)
        }
        if all(chunk.R is not None for chunk in chunks):
            R = total.copy()
            labels = np.stack([picks[i] for i in range(self.d)], axis=1)
            for jdx, (chunk, Yj) in enumerate(zip(chunks, Ys)):
                mask = labels == jdx
                R[mask] += chunk.R[mask] - Yj[mask]  # components are centered
            R += self.theta
            return JointChunk(self.theta + total, self.theta, self.pairs, R=R)

        def star(i, j):
            out = total.copy()
            for jdx, (chunk, Yj) in enumerate(zip(chunks, Ys)):
                sel = np.flatnonzero(picks[i] == jdx)
                if sel.size:
                    out[sel] += chunk._centered_star(i, i)[sel] - Yj[sel]
            return out

        return JointChunk(self.theta + total, self.theta, self.pairs, star_fn=star)


class MixtureCoupling(ZeroBiasCoupling):
    """Zero-bias of a mixture: companions are drawn from the variance-tilted
    mixing law; with constant component variances the tilt is the mixture
    itself and the pair shares the component pick, so a mixture of
    coordinate replacements is one too: R takes each row from its pick."""

    construction = "mixture"

    def __init__(self, base: NoiseModel, components: list[ZeroBiasCoupling], weights):
        if not components:
            raise ParameterError("mixture coupling needs components")
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError("mixture weights must be nonnegative and sum to 1")
        d = components[0].d
        diags = []
        for comp in components:
            if not np.allclose(comp.sigma, np.diag(np.diag(comp.sigma))):
                raise ParameterError("mixture coupling needs diagonal component covariances")
            if np.any(np.diag(comp.sigma) <= 0):
                raise ParameterError("mixture components need nonsingular covariances")
            diags.append(np.diag(comp.sigma))
        diags = np.stack(diags, axis=0)  # (ncomp, d)
        sigma_i2 = w @ diags
        super().__init__(base, np.diag(sigma_i2))
        self.components = components
        self.weights = w
        self.tilts = (w[:, None] * diags) / sigma_i2  # nu^i weights, (ncomp, d)
        self.equal_variance = bool(np.allclose(diags, diags[0]))

    def _chunk_dim(self) -> int:
        return 8 * self.d

    def _centered(self, rng, rows):
        ncomp = len(self.components)
        pick = rng.choice(ncomp, size=rows, p=self.weights)
        subchunks = [comp._centered(rng, rows) for comp in self.components]
        Y = np.empty((rows, self.d))
        for s, chunk in enumerate(subchunks):
            sel = np.flatnonzero(pick == s)
            if sel.size:
                Y[sel] = chunk.X[sel] - self.components[s].theta

        # nu^i = mu under equal variances: X^i shares the component pick of X
        tilted = None
        if not self.equal_variance:
            tilted = {
                i: rng.choice(ncomp, size=rows, p=self.tilts[:, i]) for i in range(self.d)
            }
        elif all(chunk.R is not None for chunk in subchunks):
            R = np.empty((rows, self.d))
            for s, chunk in enumerate(subchunks):
                sel = np.flatnonzero(pick == s)
                if sel.size:
                    R[sel] = chunk.R[sel] - self.components[s].theta
            R += self.theta
            return JointChunk(self.theta + Y, self.theta, self.pairs, R=R)

        def star(i, j):
            labels = pick if tilted is None else tilted[i]
            out = np.empty((rows, self.d))
            for s, chunk in enumerate(subchunks):
                sel = np.flatnonzero(labels == s)
                if sel.size:
                    out[sel] = chunk._centered_star(i, i)[sel]
            return out

        return JointChunk(self.theta + Y, self.theta, self.pairs, star_fn=star)


class LinearMapCoupling(ZeroBiasCoupling):
    """Zero-bias vectors of Y = A U by mixing images A U^{kl} with weights
    mu_ij(kl) = a_ik gamma_kl a_jl / sigma_ij.  Requires nonnegative
    sigma_ij and nonnegative products wherever sigma_ij > 0."""

    construction = "linear_map"

    def __init__(self, A, base_coupling: ZeroBiasCoupling, theta=None, base_model=None):
        A = np.asarray(A, dtype=float)
        gamma = base_coupling.sigma
        sigma = A @ gamma @ A.T
        d = A.shape[0]
        if np.any(sigma < -1e-12):
            raise ParameterError("linear-map coupling requires nonnegative sigma_ij")
        gdiag = np.diag(gamma)
        base_diag = np.allclose(gamma, np.diag(gdiag))
        if not (base_coupling.same_for_all or base_diag):
            raise ParameterError("base coupling must be shared-companion or diagonal")
        for i in range(d):
            for j in range(d):
                if sigma[i, j] > 1e-12:
                    prods = A[i, :] * gdiag * A[j, :] if base_diag else None
                    if prods is not None and np.any(prods < -1e-12):
                        k = int(np.argmin(prods))
                        raise ParameterError(
                            f"mixing weight a[{i},{k}] gamma[{k},{k}] a[{j},{k}] < 0 "
                            f"violates the construction hypotheses"
                        )
        model = base_model
        if model is None:
            raise ParameterError("linear-map coupling needs the transformed model")
        super().__init__(model, sigma)
        self.A = A
        self.base_coupling = base_coupling
        self._base_diag = base_diag
        self._gdiag = gdiag

    def _chunk_dim(self) -> int:
        return 8 * self.d

    def _centered(self, rng, rows):
        chunk = self.base_coupling._centered(rng, rows)
        U = chunk.X - self.base_coupling.theta
        Y = U @ self.A.T
        if self.base_coupling.same_for_all:
            Ustar = chunk._star
            return JointChunk(self.theta + Y, self.theta, self.pairs, star=Ustar @ self.A.T)

        kpicks = {}

        def star(i, j):
            if (i, j) not in kpicks:
                w = self.A[i, :] * self._gdiag * self.A[j, :]
                w = np.clip(w, 0.0, None)
                w = w / w.sum()
                kpicks[(i, j)] = rng.choice(self.d, size=rows, p=w)
            ks = kpicks[(i, j)]
            out = np.empty((rows, self.d))
            for k in np.unique(ks):
                sel = np.flatnonzero(ks == k)
                out[sel] = chunk._centered_star(k, k)[sel] @ self.A.T
            return out

        return JointChunk(self.theta + Y, self.theta, self.pairs, star_fn=star)


class FourPointCoupling(ZeroBiasCoupling):
    """The degenerate uniform law on the four axis points; companions are
    uniform segments through the origin, so shrinkage identities fail."""

    construction = "four_point"

    def __init__(self, model):
        super().__init__(model, 0.5 * np.eye(2))

    def _centered(self, rng, rows):
        Y = self.base._draw(rng, rows)
        U = rng.uniform(-1.0, 1.0, rows)

        def star(i, j):
            out = np.zeros((rows, 2))
            out[:, i] = U
            return out

        return JointChunk(self.theta + Y, self.theta, self.pairs, star_fn=star)


# ---------------------------------------------------------------------------
# public constructors


def couple_independent(model: NoiseModel) -> IndependentReplaceCoupling:
    return IndependentReplaceCoupling(model)


def couple_sphere(d: int, sigma: float, theta=None) -> SphereCoupling:
    return SphereCoupling(SphereUniform(d, sigma, theta))


def couple_student(k: int, d: int, theta=None) -> StudentGammaCoupling:
    return StudentGammaCoupling(StudentT(d, k, theta))


def couple_gaussian(model: GaussianIso) -> GaussianFixedPointCoupling:
    return GaussianFixedPointCoupling(model)


def zb_sum(base: NoiseModel, components: list[ZeroBiasCoupling]) -> SumCoupling:
    return SumCoupling(base, components)


def zb_mixture(base, components, weights) -> MixtureCoupling:
    return MixtureCoupling(base, components, weights)


def zb_linear(A, base_coupling, base_model) -> LinearMapCoupling:
    return LinearMapCoupling(A, base_coupling, base_model=base_model)


def coupling_for(model: NoiseModel) -> ZeroBiasCoupling:
    """The natural coupling for a model, when one is known."""
    if isinstance(model, StudentT):
        return StudentGammaCoupling(model)
    if isinstance(model, SphereUniform):
        return SphereCoupling(model)
    if isinstance(model, GaussianIso):
        return GaussianFixedPointCoupling(model)
    if isinstance(model, ProductIID):
        return IndependentReplaceCoupling(model)
    if isinstance(model, Mixture):
        comps = [coupling_for(c) for c in model.components]
        return MixtureCoupling(model, comps, model.weights)
    raise ParameterError(f"no canonical coupling for family {model.family}")


# ---------------------------------------------------------------------------
# densities and the square-bias construction


@dataclass(frozen=True)
class ZeroBiasDensity:
    """Density y -> p^i(y) of the i-th zero-bias vector."""

    i: int
    eval: Callable[[np.ndarray], float]


def zb1d(law_or_pdf, sigma2: float | None = None) -> Callable[[np.ndarray], np.ndarray]:
    """One-dimensional zero-bias density p*(y) = var^-1 tail(y)."""
    if isinstance(law_or_pdf, Law1D):
        return law_or_pdf.zb_pdf
    if sigma2 is None or sigma2 <= 0:
        raise ParameterError("generic zero-bias density needs the variance")
    pdf = law_or_pdf

    def upper(y):
        val, _ = quad(lambda u: u * pdf(u), y, np.inf, epsabs=1e-13, epsrel=1e-10, limit=400)
        return val

    def star_pdf(y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return np.array([max(upper(v), 0.0) / sigma2 for v in y])

    return star_pdf


def zb_density(model: NoiseModel, i: int) -> ZeroBiasDensity:
    """Density of X^i by the coordinate tail integral of the model density."""
    if not model.has_density():
        raise ParameterError("density unavailable for this family")
    if not model.satisfies_conditional_mean_zero():
        raise ParameterError("zero-bias density needs the conditional-mean-zero condition")
    sigma_i2 = float(model.cov()[i, i])

    if isinstance(model, ProductIID):
        law = model.law

        def eval_product(x):
            y = np.asarray(x, dtype=float) - model.theta
            others = np.delete(y, i)
            return float(law.zb_pdf(y[i]) * np.exp(np.sum(law.log_pdf(others))))

        return ZeroBiasDensity(i=i, eval=eval_product)

    def eval_generic(x):
        x = np.asarray(x, dtype=float)

        def integrand(u):
            point = x.copy()
            point[i] = model.theta[i] + u
            ld = model.log_density(point)
            return (u * math.exp(ld)) if ld is not None and np.isfinite(ld) else 0.0

        lo = x[i] - model.theta[i]
        val, _ = quad(integrand, lo, np.inf, epsabs=1e-13, epsrel=1e-9, limit=400)
        return max(val, 0.0) / sigma_i2

    return ZeroBiasDensity(i=i, eval=eval_generic)


def zb_construct(model: NoiseModel, i: int, n: int, seed: int, *, return_ess: bool = False):
    """Draws of X^i via the square-bias-and-scale construction.

    ProductIID models use a tabulated inverse CDF of the square-biased
    marginal (2^14 grid points, linear interpolation); laws without a
    product structure fall back to sampling-importance-resampling with a
    pool factor of 64, reporting the effective sample size.
    """
    if not model.satisfies_conditional_mean_zero():
        raise ParameterError("square-bias construction needs the conditional-mean-zero condition")
    sigma_i2 = float(model.cov()[i, i])
    if sigma_i2 <= 0:
        raise ParameterError("coordinate variance must be positive")

    out = []
    ess_total = 0.0
    nchunks = 0
    if isinstance(model, (ProductIID, GaussianIso)):
        law = _coordinate_law(model)
        grid, cdf = _square_bias_table(law)
        for idx, rows in chunk_plan(n, model.d):
            rng = substream(seed, idx)
            Y = law.sample(rng, (rows, model.d))
            w = np.interp(rng.uniform(0.0, 1.0, rows), cdf, grid)
            Y[:, i] = rng.uniform(0.0, 1.0, rows) * w
            out.append(model.theta + Y)
        ess = float(n)
    else:
        pool = 64
        for idx, rows in chunk_plan(n, model.d * 8):
            rng = substream(seed, idx)
            cand = model._draw(rng, rows * pool)
            w = cand[:, i] ** 2
            total = w.sum()
            if total <= 0:
                raise ParameterError("square-bias sampling failed: all weights vanish")
            p = w / total
            ess_total += 1.0 / np.sum(p * p) / pool
            nchunks += 1
            picked = cand[rng.choice(cand.shape[0], size=rows, p=p)]
            picked[:, i] *= rng.uniform(0.0, 1.0, rows)
            out.append(model.theta + picked)
        ess = ess_total / max(nchunks, 1) * n
    draws = np.concatenate(out)
    if return_ess:
        return draws, ess
    return draws


_SQ_TABLE_CACHE: dict = {}


def _square_bias_table(law: Law1D, grid_points: int = 1 << 14):
    key = (law.__class__.__name__, tuple(sorted(vars(law).items())), grid_points)
    if key in _SQ_TABLE_CACHE:
        return _SQ_TABLE_CACHE[key]
    r = law.support_radius
    if r is None:
        r = 40.0 * math.sqrt(law.variance)
    grid = np.linspace(-r, r, grid_points)
    pdf = grid**2 * law.pdf(grid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    # strictly increase for interpolation stability
    cdf = np.maximum.accumulate(cdf)
    _SQ_TABLE_CACHE[key] = (grid, cdf)
    return grid, cdf


# ---------------------------------------------------------------------------
# identity residuals


def zb_identity_residual(
    model: NoiseModel, coupling: ZeroBiasCoupling, test_fn: TestFn, n: int, seed: int
) -> RiskReport:
    """MC estimate of E<X-theta, f(X)> - sum_ij sigma_ij E d_j f_i(X^{ij})."""
    theta = model.theta
    weights = FixedWeights(coupling.sigma)

    def residual(chunk):
        X = chunk.X
        test_fn.guard(X)
        lhs = np.einsum("mi,mi->m", X - theta, test_fn.f(X))
        return lhs - chunk.weighted_partials(test_fn, weights)

    acc = run(coupling.joint_chunks(n, seed), {"residual": residual})["residual"]
    return report_from(acc, seed, label=f"zb-residual:{test_fn.name}")


def coordinate_sum_residual(
    coupling: ZeroBiasCoupling, f, fprime, n: int, seed: int
) -> RiskReport:
    """Residual of E[W f(W)] = sigma^2 E[f'(W^{IJ})] for W = sum of coords,
    with (I, J) drawn from the coupling's index law."""
    law = coupling.index_law()
    flat = law.ravel()
    nz = np.flatnonzero(flat > 0)
    probs = flat[nz] / flat[nz].sum()
    sigma2 = float(coupling.sigma.sum())
    d = coupling.d
    theta_sum = float(coupling.theta.sum())

    # chunks are numbered here, not by enumerate, whose reused result tuple
    # would keep the previous chunk alive while the next one is drawn
    chunk_index = itertools.count()

    def residual(chunk):
        cidx = next(chunk_index)
        W = chunk.X.sum(axis=1) - theta_sum
        vals = W * f(W)
        if chunk.shared:
            return vals - sigma2 * fprime(chunk.star.sum(axis=1) - theta_sum)
        rng = substream(seed ^ 0x5EED, cidx)
        picks = nz[rng.choice(nz.size, size=W.size, p=probs)]
        for flat_idx in np.unique(picks):
            i, j = divmod(int(flat_idx), d)
            sel = np.flatnonzero(picks == flat_idx)
            if chunk.R is not None:  # X^{ij} differs from X only in x_i
                Wij = W[sel] - chunk.X[sel, i] + chunk.R[sel, i]
            else:
                Wij = chunk.companion(i, j)[sel].sum(axis=1) - theta_sum
            vals[sel] -= sigma2 * fprime(Wij)
        return vals

    acc = run(coupling.joint_chunks(n, seed), {"residual": residual})["residual"]
    return report_from(acc, seed, label="zb-residual:coordinate-sum")
