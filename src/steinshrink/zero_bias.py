"""Multivariate zero-bias transforms: couplings and the square-bias construction.

A coupling produces joint draws (X, X^{ij}) such that

    E <X - theta, f(X)> = sum_ij sigma_ij E[ d_j f_i (X^{ij}) ],

with the weights sigma_ij taken from the covariance of the centered law.
Whenever the source law admits an explicit coupling (coordinate replacement
for independent coordinates, the radial coupling on the sphere, the shared
Gamma-mixture coupling for the Student family, sums, mixtures and linear
images), the joint draw is exact, and the right-hand side is a sum of
shared and coordinate-replacement terms contracted in closed form.  A
generic square-bias construction (`zb_construct`) draws X^i for laws
without a special structure.

A `JointChunk` carries X and those terms.  It is the one identity chunk of
the package: a coupling's draw (`_centered`) makes one per draw task of
`_mc.run`, and so does a Stein kernel's draw, as one shared term at X with
weights T(X - theta) (`SteinKernel.stream`), so `identity_residual` serves
the Stein and the zero-bias identities alike.  The couplings of the CLI's
models draw X with the model's own calls before the companions, so their
joint chunks over the model's chunk plan hold the model's draws of X, and
one pass scores a statistic of X beside B* (`risk_lab.guarded_pass`).
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from ._mc import RiskReport, draw_parts, in_blocks, report_from, run
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
from .testfns import DiagonalWeights, FixedWeights, TestFn, Weights, _per_row


class Shared(NamedTuple):
    """Every companion X^{ij} is P: the term is <W, grad f(P)>."""

    P: np.ndarray
    W: Weights


class Replaced(NamedTuple):
    """X^i is B with b_i := R_i: the term is sum_i w_i d_i f_i(X^i)."""

    B: np.ndarray
    R: np.ndarray
    w: np.ndarray


def _moved(term, move, weights):
    """The term with its points mapped by `move`, and new weights."""
    return type(term)(*map(move, term[:-1]), weights)


class _Lazy:
    """Terms made afresh on each pass, one at a time, so no chunk holds d of
    them: `make(*sources)` yields them from the arrays and joint chunks they
    are built of, and a row block's terms are made from the block's rows."""

    def __init__(self, make, *sources):
        self._make = make
        self._sources = sources

    def __iter__(self):
        return self._make(*self._sources)

    def rows(self, a: int, b: int) -> "_Lazy":
        return _Lazy(self._make, *(src.rows(a, b) if isinstance(src, JointChunk) else src[a:b]
                                   for src in self._sources))


class JointChunk:
    """One chunk of joint draws: X and the terms of its zero-bias sum."""

    def __init__(self, X, terms):
        self.X = X
        self.terms = terms

    def weighted_partials(self, field) -> np.ndarray:
        """sum_ij sigma_ij d_j f_i(X^{ij}) rowwise, for a field with `guard`,
        `contract` and `contract_replaced` (a TestFn or an estimator).

        A shared point is guarded unless it is X itself: every caller guards
        X once per chunk already."""
        total = None
        for term in self.terms:
            if isinstance(term, Shared):
                if term.P is not self.X:
                    field.guard(term.P)
                value = field.contract(*term)
            else:
                value = field.contract_replaced(*term)
            total = value if total is None else total + value
        return _per_row(total, self.X.shape[0])

    @property
    def shared_only(self) -> bool:
        """Whether every term is a shared term drawn with the chunk: a field
        contracts it from row sums of its point, with no `(rows, d)` array
        when the weights are diagonal."""
        return isinstance(self.terms, tuple) and all(isinstance(t, Shared) for t in self.terms)

    def rows(self, a: int, b: int) -> "JointChunk":
        """Rows a:b: X, every term's arrays and its per-row weights.  A shared
        point that is X stays X, so `weighted_partials` still skips its guard."""
        X = self.X[a:b]
        if isinstance(self.terms, _Lazy):
            return JointChunk(X, self.terms.rows(a, b))

        def cut(points):
            return X if points is self.X else points[a:b]

        return JointChunk(X, tuple(
            Shared(cut(term.P), term.W.rows(a, b)) if isinstance(term, Shared)
            else Replaced(cut(term.B), cut(term.R), term.w) for term in self.terms))

    def _single(self):
        terms = iter(self.terms)
        term = next(terms)
        if next(terms, None) is not None:
            raise ParameterError("this coupling averages its companions; none is drawn")
        return term

    def companion(self, i: int, j: int) -> np.ndarray:
        """X^{ij}, for a chunk with a single term."""
        term = self._single()
        if isinstance(term, Shared):
            return term.P
        out = term.B.copy()
        out[:, i] = term.R[:, i]
        return out


def _values(chunk) -> np.ndarray:
    """R of a one-term chunk, or its shared point (R = X: Gaussian)."""
    term = chunk._single()
    return term.R if isinstance(term, Replaced) else term.P


def _scaled(weights, a):
    """Term weights times a: a vector for a replacement term, else `Weights`."""
    return a * weights if isinstance(weights, np.ndarray) else weights.scaled(a)


def _variances(components, kind: str) -> np.ndarray:
    """(ncomp, d) coordinate variances of components with diagonal weights."""
    if any(comp.sigma.matrix.ndim != 1 for comp in components):
        raise ParameterError(f"{kind} coupling needs diagonal component covariances")
    return np.stack([comp.sigma.matrix for comp in components])


def _merged(pick, arrays) -> np.ndarray:
    """Row m of arrays[pick[m]]."""
    out = np.empty_like(arrays[0])
    for s, arr in enumerate(arrays):
        sel = np.flatnonzero(pick == s)
        if sel.size:
            out[sel] = arr[sel]
    return out


class ZeroBiasCoupling:
    """Base class.  `_centered(rng, rows, empty)` is a fresh joint chunk of
    `rows` rows (theta included) whose arrays it may take from `empty(shape)`:
    the coupling's stream for `_mc.run`, over chunks `width` doubles a row
    wide.  By default it draws X with the base model's own calls (`_fill`,
    then theta), so X has the bytes of `base.draw` on the same generator, and
    then the companions, by the hook `_companions(rng, Y, empty)`: the terms
    of a centered draw Y of the base law, their points shifted by theta, a
    point that is Y itself becoming X.  A coupling whose X is not its base
    law's draw overrides `_centered` and has no `_companions`.  `term_weights`
    are the weights of a chunk's terms, built once: by default sigma for one
    `Shared` term if `same_for_all`, else diag(sigma) for one `Replaced`.
    sigma is `FixedWeights`, held as its diagonal where it is diagonal."""

    construction = "abstract"
    same_for_all = False
    replaces = False  # X^i is X with x_i := R_i (see `_values`)

    def __init__(self, base: NoiseModel, sigma: FixedWeights):
        self.base = base
        if sigma.matrix.shape not in ((base.d,), (base.d, base.d)):
            raise ParameterError("weight matrix must be d x d, or its diagonal")
        self.sigma = sigma
        self.term_weights = (sigma if self.same_for_all else sigma.diagonal(),)

    @property
    def d(self):
        return self.base.d

    @property
    def theta(self):
        return self.base.theta

    @property
    def width(self) -> int:
        return 4 * self.d

    _companions = None

    @property
    def draws_base(self) -> bool:
        """Whether the chunks' X is `base.draw`'s, bit for bit, on the same
        generator: so by default, with `_companions`."""
        return self._companions is not None

    def _centered(self, rng, rows, empty):
        Y = self.base._fill(rng, empty((rows, self.d)))
        terms = self._companions(rng, Y, empty)
        Y += self.theta
        return JointChunk(Y, terms)

    def pair_sampler(self, i: int, j: int, n: int, seed: int):
        """Paired draws (X, X^{ij}) for one index pair."""
        M = self.sigma.matrix
        if (M[i, j] if M.ndim == 2 else M[i] * (i == j)) == 0.0:
            raise ParameterError(f"sigma_{i}{j} = 0: the companion X^{{{i}{j}}} is undefined")
        chunks = draw_parts(n, seed, self.d, self._centered, self.width)
        return (np.concatenate([chunk.X for chunk in chunks]),
                np.concatenate([chunk.companion(i, j) for chunk in chunks]))


class IndependentReplaceCoupling(ZeroBiasCoupling):
    """Replace one coordinate of an independent-coordinate law by its 1-D
    zero-bias draw, keeping the others."""

    construction = "independent_replace"
    replaces = True

    def __init__(self, model: NoiseModel):
        law = _coordinate_law(model)
        super().__init__(model, FixedWeights(np.full(model.d, law.variance)))
        self.law = law

    def _companions(self, rng, Y, empty):
        R = self.law.zb_sample(rng, Y.shape, self.theta, out=empty(Y.shape))
        return (Replaced(Y, R, self.term_weights[0]),)


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
        super().__init__(model, model.cov())

    def _companions(self, rng, Y, empty):
        r = rng.uniform(0.0, 1.0, len(Y)) ** (1.0 / self.d)
        P = np.multiply(r[:, None], Y, out=empty(Y.shape))
        P += self.theta
        return (Shared(P, self.term_weights[0]),)


class StudentGammaCoupling(ZeroBiasCoupling):
    """Shared-normal Gamma coupling for the Student family:
    X = theta + s N / sqrt(g), X^i = theta + s N / sqrt(g B),
    g ~ Gamma(k/2, rate k/2) and N drawn as `StudentT._fill` draws them,
    B = (1 - U)^(1 / (k/2 - 1)) ~ Beta(k/2 - 1, 1) for a uniform U.  By the
    Beta-Gamma algebra delta = g B ~ Gamma(k/2 - 1, rate k/2) and
    g (1 - B) ~ Gamma(1, rate k/2) are independent, so X^i is
    theta + s N / sqrt(delta) with X = theta + s N / sqrt(delta + eps)."""

    construction = "student_gamma"
    same_for_all = True

    def __init__(self, model: StudentT):
        if not isinstance(model, StudentT):
            raise ParameterError("student coupling needs a StudentT model")
        super().__init__(model, model.cov())
        self.k = model.k

    def _companions(self, rng, Y, empty):
        B = rng.random(len(Y))
        np.subtract(1.0, B, out=B)  # in (0, 1], so B > 0
        B **= 1.0 / (self.k / 2.0 - 1.0)
        P = np.divide(Y, np.sqrt(B)[:, None], out=empty(Y.shape))
        P += self.theta
        return (Shared(P, self.term_weights[0]),)


class ScaledCoupling(ZeroBiasCoupling):
    """Coupling of c * Y from a coupling of Y (weights scale by c^2)."""

    def __init__(self, inner: ZeroBiasCoupling, c: float):
        super().__init__(inner.base, inner.sigma.scaled(c * c))
        self.inner = inner
        self.c = float(c)
        self.construction = inner.construction
        self.same_for_all = inner.same_for_all
        self.replaces = inner.replaces
        self.term_weights = tuple(_scaled(w, c * c) for w in inner.term_weights)

    def _centered(self, rng, rows, empty):
        chunk = self.inner._centered(rng, rows, empty)

        def move(P):
            return self.theta + (P - self.inner.theta) * self.c

        def terms(inner):
            return (_moved(t, move, w) for t, w in zip(inner.terms, self.term_weights))

        return JointChunk(move(chunk.X), _Lazy(terms, chunk))


class GaussianFixedPointCoupling(ZeroBiasCoupling):
    """X^i = X exactly: the Gaussian is the fixed point of the transform, so
    one shared companion serves every index.  It is also a replacement
    companion with R = X, which sums and mixtures of replacements use."""

    construction = "gaussian_fixed_point"
    same_for_all = True
    replaces = True

    def __init__(self, model: GaussianIso):
        super().__init__(model, model.cov())

    def _companions(self, rng, Y, empty):
        return (Shared(Y, self.term_weights[0]),)  # X itself, once theta is added


class SumCoupling(ZeroBiasCoupling):
    """Zero-bias of a sum of independent centered terms: one term, chosen
    with probability sigma_{j,i}^2 / sigma_i^2, is replaced by its
    zero-biased version; the others ride along.  A sum of replacements is one:
    R_i = X_i - Y_pick,i + Z_pick,i; otherwise the pick is averaged out."""

    construction = "sum"

    def __init__(self, base: NoiseModel, components: list[ZeroBiasCoupling]):
        if not components:
            raise ParameterError("sum coupling needs components")
        d = components[0].d
        for comp in components:
            if comp.d != d:
                raise ParameterError("sum components must share the dimension")
            if np.any(comp.theta != 0.0):
                raise ParameterError("sum components must be centered")
        diags = _variances(components, "sum")
        total = np.sum(diags, axis=0)
        if np.any(total <= 0):
            raise ParameterError("zero total variance in some coordinate")
        super().__init__(base, FixedWeights(total))
        self.components = components
        self.pick_probs = diags / total  # (ncomp, d)
        self.replaces = all(comp.replaces for comp in components)
        if not self.replaces:
            self.term_weights = tuple(w for comp in components for w in comp.term_weights)

    @property
    def width(self) -> int:
        return 4 * self.d * (len(self.components) + 1)

    def _centered(self, rng, rows, empty):
        chunks = [comp._centered(rng, rows, empty) for comp in self.components]
        total = sum(chunk.X for chunk in chunks)  # components are centered
        X = self.theta + total
        if self.replaces:
            picks = [rng.choice(len(chunks), size=rows, p=p) for p in self.pick_probs.T]
            labels = np.stack(picks, axis=1)
            R = total.copy()
            for s, chunk in enumerate(chunks):
                mask = labels == s
                R[mask] += _values(chunk)[mask] - chunk.X[mask]
            R += self.theta
            return JointChunk(X, (Replaced(X, R, self.term_weights[0]),))

        def terms(X, *chunks):
            weights = iter(self.term_weights)
            for chunk in chunks:
                others = X - chunk.X
                for term in chunk.terms:
                    yield _moved(term, lambda P: P + others, next(weights))

        return JointChunk(X, _Lazy(terms, X, *chunks))


class MixtureCoupling(ZeroBiasCoupling):
    """Zero-bias of a mixture: companions are drawn from the variance-tilted
    mixing law; with constant component variances the tilt is the mixture
    itself and the pair shares the component pick, so a mixture of coordinate
    replacements (or shared companions) is one too, row by row from the pick,
    when every component draws its companions given its X (`_companions`).
    Then X is drawn with `Mixture._fill`'s calls, the pick and then each
    component's rows by its base law, so it has the bytes of the mixture
    model's draw, and the companions come after.  Otherwise the pick is
    averaged out: component s adds its terms times w_s, from a joint draw of
    its own on every row, which X picks its rows from."""

    construction = "mixture"

    def __init__(self, base: NoiseModel, components: list[ZeroBiasCoupling], weights):
        if not components:
            raise ParameterError("mixture coupling needs components")
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError("mixture weights must be nonnegative and sum to 1")
        diags = _variances(components, "mixture")
        if np.any(diags <= 0):
            raise ParameterError("mixture components need nonsingular covariances")
        sigma_i2 = w @ diags
        super().__init__(base, FixedWeights(sigma_i2))
        self.components = components
        self.weights = w
        self.equal_variance = bool(np.allclose(diags, diags[0]))
        shared_pick = self.equal_variance and all(c._companions is not None for c in components)
        self.replaces = shared_pick and all(comp.replaces for comp in components)
        self.same_for_all = (
            shared_pick and not self.replaces and all(c.same_for_all for c in components)
        )
        if self.same_for_all:
            self.term_weights = (self.sigma,)
        elif not self.replaces:
            self.term_weights = tuple(
                _scaled(cw, ws) for ws, comp in zip(w, components) for cw in comp.term_weights
            )

    @property
    def width(self) -> int:
        return 8 * self.d

    @property
    def draws_base(self) -> bool:
        """With a shared pick X is drawn as `Mixture._fill` draws a mixture of
        the components' bases with these weights: the base's draw if the
        base is that mixture."""
        base = self.base
        return ((self.replaces or self.same_for_all) and isinstance(base, Mixture)
                and len(base.components) == len(self.components)
                and all(m is c.base for m, c in zip(base.components, self.components))
                and np.array_equal(base.weights, self.weights))

    def _centered(self, rng, rows, empty):
        pick = rng.choice(len(self.components), size=rows, p=self.weights)
        if not (self.replaces or self.same_for_all):
            subchunks = [comp._centered(rng, rows, empty) for comp in self.components]
            X = self.theta + _merged(pick, [chunk.X for chunk in subchunks])
            return JointChunk(X, _Lazy(self._averaged, *subchunks))
        X, drawn = empty((rows, self.d)), []
        for s, comp in enumerate(self.components):
            sel = np.flatnonzero(pick == s)
            if sel.size:
                Y = comp.base._draw(rng, sel.size)
                X[sel] = Y
                drawn.append((sel, comp, Y))
        X += self.theta
        values = empty((rows, self.d))
        for sel, comp, Y in drawn:  # the components are centered
            values[sel] = _values(JointChunk(Y, comp._companions(rng, Y, np.empty)))
        values += self.theta
        w = self.term_weights[0]
        return JointChunk(X, (Replaced(X, values, w) if self.replaces else Shared(values, w),))

    def _averaged(self, *subchunks):
        weights = iter(self.term_weights)
        for chunk in subchunks:
            for term in chunk.terms:
                yield _moved(term, lambda P: P + self.theta, next(weights))


class LinearMapCoupling(ZeroBiasCoupling):
    """Zero-bias vectors of Y = A U from a coupling of U, with weights
    a_ik gamma_kl a_jl (nonnegative wherever sigma_ij > 0).  A shared
    companion U* maps to A U*; a replacement term, its index k averaged out,
    to one shared term per k at Y + (R_k - U_k) a_k, weighted gamma_k a_k a_k'."""

    construction = "linear_map"

    def __init__(self, A, base_coupling: ZeroBiasCoupling, base_model: NoiseModel):
        A = np.asarray(A, dtype=float)
        gdiag = base_coupling.sigma.matrix
        sigma = base_coupling.sigma.transformed(A)
        if np.any(sigma.matrix < -1e-12):
            raise ParameterError("linear-map coupling requires nonnegative sigma_ij")
        pairs = zip(*np.nonzero(sigma.matrix > 1e-12)) if gdiag.ndim == 1 else ()
        for i, j in pairs:
            prods = A[i, :] * gdiag * A[j, :]
            if np.any(prods < -1e-12):
                k = int(np.argmin(prods))
                raise ParameterError(
                    f"mixing weight a[{i},{k}] gamma[{k},{k}] a[{j},{k}] < 0 "
                    f"violates the construction hypotheses"
                )
        super().__init__(base_model, sigma)
        self.A = A
        self.base_coupling = base_coupling
        self.same_for_all = base_coupling.same_for_all
        self.term_weights = []
        for w in base_coupling.term_weights:
            if isinstance(w, np.ndarray):  # one rank-one term per replaced index k
                self.term_weights += [DiagonalWeights([[wk]], A[:, [k]]) for k, wk in enumerate(w)]
            else:
                self.term_weights.append(w.transformed(A))

    @property
    def width(self) -> int:
        return 8 * self.d

    def _centered(self, rng, rows, empty):
        chunk = self.base_coupling._centered(rng, rows, empty)

        def image(U):
            return self.theta + (U - self.base_coupling.theta) @ self.A.T

        def terms(chunk):
            weights = iter(self.term_weights)
            for term in chunk.terms:
                if isinstance(term, Shared):
                    yield Shared(image(term.P), next(weights))
                    continue
                Y, delta = image(term.B), term.R - term.B
                for k in range(self.d):
                    yield Shared(Y + delta[:, [k]] * self.A[:, k], next(weights))

        return JointChunk(image(chunk.X), _Lazy(terms, chunk))


class FourPointCoupling(ZeroBiasCoupling):
    """The degenerate uniform law on the four axis points; companions are
    uniform segments through the origin, so shrinkage identities fail."""

    construction = "four_point"

    def __init__(self, model):
        super().__init__(model, model.cov())

    def _companions(self, rng, Y, empty):
        U = rng.uniform(-1.0, 1.0, len(Y))
        B = np.broadcast_to(self.theta, Y.shape)
        return (Replaced(B, B + U[:, None], self.term_weights[0]),)


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
# the square-bias construction


def zb_construct(model: NoiseModel, i: int, n: int, seed: int, *, return_ess: bool = False):
    """Draws of X^i via the square-bias-and-scale construction.

    ProductIID and GaussianIso models draw coordinate i from the exact
    zero-bias sampler of their coordinate law (`Law1D.zb_sample`) and the
    other coordinates from the law itself; laws
    without a product structure fall back to sampling-importance-resampling
    with a pool factor of 64, reporting the effective sample size.
    """
    if not model.satisfies_conditional_mean_zero():
        raise ParameterError("square-bias construction needs the conditional-mean-zero condition")
    if model.cov().diagonal()[i] <= 0:
        raise ParameterError("coordinate variance must be positive")

    exact = isinstance(model, (ProductIID, GaussianIso))
    law = _coordinate_law(model) if exact else None
    pool = 64

    def part(rng, rows, empty):
        """`rows` draws and their fraction of effective samples."""
        if exact:
            Y = law.sample(rng, (rows, model.d))
            Y[:, i] = law.zb_sample(rng, rows)
            return model.theta + Y, 1.0
        cand = model._draw(rng, rows * pool)
        w = cand[:, i] ** 2
        total = w.sum()
        if total <= 0:
            raise ParameterError("square-bias sampling failed: all weights vanish")
        p = w / total
        picked = cand[rng.choice(cand.shape[0], size=rows, p=p)]
        picked[:, i] *= rng.uniform(0.0, 1.0, rows)
        return model.theta + picked, 1.0 / np.sum(p * p) / pool

    parts = draw_parts(n, seed, model.d, part, width=model.d if exact else 8 * model.d)
    draws = np.concatenate([draw for draw, _ in parts])
    if return_ess:  # each task's fraction weighted by its rows
        return draws, sum(len(draw) * ess for draw, ess in parts)
    return draws


# ---------------------------------------------------------------------------
# identity residuals


def identity_residual(n: int, seed: int, draw, width, theta, test_fns: list[TestFn],
                      kind: str) -> dict:
    """MC estimates of E<X-theta, f(X)> minus the mean of the weighted
    partials of the joint chunks `draw` makes (a coupling's `_centered`, a
    kernel's `stream`), the residual of the identity they carry (0 when it
    holds), for each test function from one pass; reports by function name,
    labelled `<kind>-residual:<name>`."""
    if len({fn.name for fn in test_fns}) < len(test_fns):
        raise ParameterError("test functions in one pass need distinct names")

    def residuals(chunk):
        X, out = chunk.X, {}
        for fn in test_fns:
            fn.guard(X)
            lhs = np.einsum("mi,mi->m", X - theta, fn.f(X))
            out[fn.name] = lhs - chunk.weighted_partials(fn)
        return out

    accs = run(n, seed, len(theta), draw, in_blocks(residuals), width)
    return {fn.name: report_from(accs[fn.name], seed, f"{kind}-residual:{fn.name}")
            for fn in test_fns}


def zb_identity_residual(
    model: NoiseModel, coupling: ZeroBiasCoupling, test_fn: TestFn, n: int, seed: int
) -> RiskReport:
    """MC estimate of E<X-theta, f(X)> - sum_ij sigma_ij E d_j f_i(X^{ij})."""
    reps = identity_residual(n, seed, coupling._centered, coupling.width, model.theta, [test_fn], "zb")
    return reps[test_fn.name]


def coordinate_sum_residual(
    coupling: ZeroBiasCoupling, f, fprime, n: int, seed: int
) -> RiskReport:
    """Residual of E[W f(W)] = sum_ij sigma_ij E[f'(W^{ij})] for W = sum of
    coords: the zero-bias identity of F_i(x) = f(W), whose d_j F_i are f'(W)."""
    theta_sum = float(coupling.theta.sum())

    def wsum(X):
        return X.sum(axis=1) - theta_sum

    def contract_replaced(B, R, w):
        Wi = R - B  # W(X^i) = W(B) - b_i + r_i
        Wi += wsum(B)[:, None]
        return np.einsum("mi,i->m", fprime(Wi), w)

    field = SimpleNamespace(
        guard=lambda X: None,
        contract=lambda X, W: fprime(wsum(X)) * W.quad(np.ones((1, X.shape[1]))),
        contract_replaced=contract_replaced,
    )

    def residual(chunk):
        W = wsum(chunk.X)
        return {"residual": W * f(W) - chunk.weighted_partials(field)}

    acc = run(n, seed, coupling.d, coupling._centered,
              in_blocks(residual, lambda chunk: not chunk.shared_only), coupling.width)["residual"]
    return report_from(acc, seed, label="zb-residual:coordinate-sum")
