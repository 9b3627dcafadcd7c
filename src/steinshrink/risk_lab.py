"""Monte Carlo risk engine plus the analytic bound calculators.

All paired comparisons (excess risk, SURE bias) use common random numbers;
standard errors come from streaming accumulation and acceptance thresholds
everywhere are 3 standard errors.  Bound inputs that are themselves bounds
(rather than estimates) are labelled as such by the callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._mc import Accumulator, RiskReport, in_blocks, report_from, run
from .errors import GuardAbort, ParameterError
from .estimation import EstimatorSpec, JamesStein, sure
from .noise_models import NoiseModel
from .stein_kernels import DiscrepancyStats
from .testfns import shrink_direction, sq_norms
from .zero_bias import GaussianFixedPointCoupling, ZeroBiasCoupling

_GUARD_RATE = 1e-4  # abort when more than 0.01% of draws hit the singularity


@dataclass
class BoundInputs:
    """Every constant a Section-3/4 bound can ask for; set what you have."""

    lam: float
    d: int
    trace_sigma: float | None = None
    kappa: float | None = None
    alpha_minus: float | None = None
    alpha_plus: float | None = None
    e_inv2: float | None = None  # E[1/||X||^2] or its Jensen lower bound
    e_d2_inv4: float | None = None  # E[d^2 ||X||^-4] or an upper bound on it
    discrepancy: DiscrepancyStats | None = None
    c4: float | None = None
    c8: float | None = None
    c_minus2: float | None = None
    c_minus4: float | None = None

    def __post_init__(self):
        if self.lam < 0:
            raise ParameterError("lambda must be nonnegative")
        if self.alpha_minus is not None and self.alpha_plus is not None:
            if self.alpha_minus > self.alpha_plus:
                raise ParameterError("alpha_minus must not exceed alpha_plus")
        for name in ("c4", "c8", "c_minus2", "c_minus4"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ParameterError(f"{name} must be positive when set")

    def require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise ParameterError(f"bound needs {name}")


# ---------------------------------------------------------------------------
# Monte Carlo estimates


def guarded_pass(model: NoiseModel, n: int, seed: int, stat,
                 estimator: EstimatorSpec | None = None,
                 coupling: ZeroBiasCoupling | None = None) -> dict:
    """One `_mc.run` pass over the model's n draws from `seed`: `stat(X, sq)`
    returns per-row values by name, with sq = ||x||^2 computed once per
    row; returns one accumulator per name.  With a coupling whose B* draws
    companions (`b_star_values`), X comes with them, by the coupling's joint
    chunks over the same chunks and substreams, which draw X with the
    model's own calls first: the same X, and each row also gets B*'s
    difference, named "b_star".  So the coupling must be one of the model's
    (`coupling.base is model`) that draws X by the model's calls
    (`draws_base`); any other raises ParameterError.  Aborts when more than
    _GUARD_RATE of the n draws sit at the estimator's singularity.  The
    tasks may run on several threads: each appends its own count, and the
    counts are summed after the pass."""
    if coupling is not None and not (coupling.base is model and coupling.draws_base):
        raise ParameterError("the coupling must draw the model's X: its base is the model "
                             "and it draws X by the model's calls")
    singular_counts = []
    b_star = None if coupling is None else b_star_values(coupling)

    def values(part):
        X = part if b_star is None else part.X
        sq = sq_norms(X)
        if estimator is not None:
            singular_counts.append(int(estimator.singular_rows(X, sq).sum()))
        out = stat(X, sq)
        if b_star is not None:
            out.update(b_star(part))
        return out

    accs = run(n, seed, model.d, model.draw if b_star is None else coupling._centered, values)
    singular = sum(singular_counts)
    if singular > _GUARD_RATE * n:
        raise GuardAbort(
            f"{singular} of {n} draws within 1e-12 of the shrinkage singularity",
            diagnostics={"singular": singular, "n": n, "estimator": estimator.kind},
        )
    return accs


def inverse_moment(sq: np.ndarray, d: int, m: int) -> np.ndarray:
    """(d / ||x||^2)^m per row from sq = ||x||^2; aborts on a draw at the origin."""
    if np.any(sq <= 0):
        raise GuardAbort("a draw landed exactly at the origin")
    return float(d) ** m * sq ** (-float(m))


def risk_statistic(estimator: EstimatorSpec, theta, excess: bool = False):
    """(per-row statistic of (X, sq), label) of the risk, or of the excess
    risk over the identity estimator; the James-Stein excess is labelled by
    lambda alone."""
    if not excess:
        return lambda X, sq: estimator.loss(X, theta, sq), f"risk:{estimator.kind}"
    kind = "" if estimator.kind == "james_stein" else f"{estimator.kind}:"
    return lambda X, sq: estimator.excess(X, theta, sq), f"excess:{kind}lam={estimator.lam:g}"


def _mean(model, n: int, seed: int, estimator, row_stat, label: str) -> RiskReport:
    """Mean of `row_stat(X, sq)` over the model's draws, by `guarded_pass`."""
    acc = guarded_pass(model, n, seed, lambda X, sq: {label: row_stat(X, sq)}, estimator)[label]
    return report_from(acc, seed, label=label)


def mc_risk(model: NoiseModel, estimator: EstimatorSpec, n: int, seed: int) -> RiskReport:
    """Mean squared error E||S(X) - theta||^2 with a singularity guard."""
    return _mean(model, n, seed, estimator, *risk_statistic(estimator, model.theta))


def mc_excess_risk(
    model: NoiseModel, estimator: EstimatorSpec | float, n: int, seed: int
) -> RiskReport:
    """Paired estimate of E||S(X) - theta||^2 - E||X - theta||^2; a number in
    place of the estimator is the James-Stein lambda."""
    if not isinstance(estimator, EstimatorSpec):
        estimator = JamesStein(estimator)
    return _mean(model, n, seed, estimator, *risk_statistic(estimator, model.theta, True))


def sure_pass(model: NoiseModel, estimator: EstimatorSpec, n: int, seed: int,
              coupling: ZeroBiasCoupling | None = None) -> dict:
    """The loss ("risk") and SURE minus the loss ("bias") per row, and with
    a coupling of the model B*'s difference ("b_star"), from one guarded
    pass (`guarded_pass`): common random numbers and one ||x||^2 per row."""
    cov = model.cov()

    def stat(X, sq):
        loss = estimator.loss(X, model.theta, sq)
        return {"risk": loss, "bias": sure(X, estimator, cov, sq) - loss}

    return guarded_pass(model, n, seed, stat, estimator, coupling)


def sure_bias(model: NoiseModel, estimator: EstimatorSpec, n: int, seed: int) -> RiskReport:
    """Common-random-number estimate of E[SURE(X)] - E||S(X) - theta||^2."""
    acc = sure_pass(model, estimator, n, seed)["bias"]
    return report_from(acc, seed, label=f"sure-bias:{estimator.kind}")


def mc_e_inv2(model: NoiseModel, n: int, seed: int) -> RiskReport:
    return _mean(model, n, seed, None, lambda X, sq: inverse_moment(sq, 1, 1), "E[1/||X||^2]")


def mc_inverse_moment(model: NoiseModel, m: int, n: int, seed: int) -> RiskReport:
    """E[(d / ||X||^2)^m]."""
    return _mean(model, n, seed, None, lambda X, sq: inverse_moment(sq, model.d, m),
                 f"E[(d/||X||^2)^{m}]")


# ---------------------------------------------------------------------------
# closed-form bounds


def bound_thm31(inputs: BoundInputs) -> float:
    """Risk bound for uniformly sandwiched kernels:
    Tr Sigma - lam * E[1/||X||^2] * (2 d alpha_- - 4 alpha_+ - lam)."""
    inputs.require("trace_sigma", "alpha_minus", "alpha_plus", "e_inv2")
    return inputs.trace_sigma - inputs.lam * inputs.e_inv2 * (
        2.0 * inputs.d * inputs.alpha_minus - 4.0 * inputs.alpha_plus - inputs.lam
    )


def improvement_window_nonempty(d: int, alpha_minus: float, alpha_plus: float) -> bool:
    return d >= 1 + math.floor(2.0 * alpha_plus / alpha_minus)


def b_lambda(inputs: BoundInputs) -> float:
    """(lam/d) sqrt(E d^2 ||X||^-4) (sqrt(Var Tr T) + 2 sqrt(E||T-Sigma||^2))."""
    inputs.require("e_d2_inv4", "discrepancy")
    return (
        inputs.lam
        / inputs.d
        * math.sqrt(max(inputs.e_d2_inv4, 0.0))
        * inputs.discrepancy.b_lambda_factor()
    )


def shrinkage_term(inputs: BoundInputs) -> float:
    """lam E[1/||X||^2] (lam - 2 (Tr Sigma - 2 kappa)), in the Theorem 3.3 and B* bounds."""
    inputs.require("trace_sigma", "kappa", "e_inv2")
    lam, trace_sigma = inputs.lam, inputs.trace_sigma
    return lam * inputs.e_inv2 * (lam - 2.0 * (trace_sigma - 2.0 * inputs.kappa))


def bound_thm33(inputs: BoundInputs) -> float:
    """Tr Sigma + lam E[1/||X||^2] (lam - 2 (Tr Sigma - 2 kappa)) + 2 B_lam."""
    return inputs.trace_sigma + shrinkage_term(inputs) + 2.0 * b_lambda(inputs)


def jensen_lower(theta, trace_sigma: float) -> float:
    """Certified lower bound 1/(||theta||^2 + Tr Sigma) on E[1/||X||^2]."""
    if trace_sigma <= 0:
        raise ParameterError("trace_sigma must be positive")
    theta = np.asarray(theta, dtype=float)
    return 1.0 / (float(np.dot(theta, theta)) + trace_sigma)


def b_star_values(coupling: ZeroBiasCoupling):
    """B*'s per-row statistic of the coupling's joint chunks: the difference
    sum_ij sigma_ij d_j g0_i(X^ij) - sum_ij sigma_ij d_j g0_i(X), named
    "b_star", a row block at a time where the terms build (rows, d) arrays
    (replacement and made-afresh terms; the Student and sphere shared terms
    read row sums).  None for the Gaussian coupling: its every companion is
    X, so each row's difference is exactly 0.0 and nothing need be drawn."""
    if isinstance(coupling, GaussianFixedPointCoupling):
        return None
    g0 = shrink_direction()

    def difference(chunk):
        g0.guard(chunk.X)
        return {"b_star": chunk.weighted_partials(g0)[0] - g0.contract(chunk.X, coupling.sigma)}

    return in_blocks(difference, lambda chunk: not chunk.shared_only)


def b_star_report(accs: dict, lam: float, n: int, seed: int) -> RiskReport:
    """B*_lam = lam |mean difference| from a pass's accumulated "b_star"
    (`b_star_values`), n exact zeros where the pass has none (the Gaussian
    coupling); the standard error is the delta-method image of the mean's."""
    if lam < 0:
        raise ParameterError("lambda must be nonnegative")
    rep = report_from(accs.get("b_star", Accumulator(n=int(n))), seed, label=f"b_star:lam={lam:g}")
    return RiskReport(
        mean=lam * abs(rep.mean), stderr=lam * rep.stderr, n=rep.n, seed=seed, label=rep.label
    )


def bound_b_star(coupling: ZeroBiasCoupling, lam: float, n: int, seed: int) -> RiskReport:
    """MC estimate of B*_lam = lam |sum_ij sigma_ij E[d_j g0_i(X^ij) - d_j g0_i(X)]|,
    with the weights sigma_ij of the coupling, from its own stream: n rows
    of `b_star_values` over the chunks of (n, d).  The CLI scores the same
    statistic on the same stream in the pass that draws X (`guarded_pass`)."""
    if n < 1:
        raise ParameterError("replicate count must be >= 1")
    if lam < 0:
        raise ParameterError("lambda must be nonnegative")
    values = b_star_values(coupling)
    accs = {} if values is None else run(n, seed, coupling.d, coupling._centered, values)
    return b_star_report(accs, lam, n, seed)


def bound_b_star_closed(inputs: BoundInputs, theta, cov_sum: float = 0.0) -> float:
    """Closed-form B* bound from coordinate moment caps:

    lam * cov_sum
      + (6 lam sqrt(C_-4) / d^2) (d (sigma^2 sqrt(C4) + sqrt(C8)/3)
                                   + ||theta||^2 (sigma^2 + C4)),

    with sigma^2 = trace_sigma / d and cov_sum the summed covariance term
    (zero for independent-coordinate models).
    """
    inputs.require("trace_sigma", "c4", "c8", "c_minus4")
    if inputs.d < 3:
        raise ParameterError("closed-form B* bound needs d >= 3")
    theta = np.asarray(theta, dtype=float)
    sigma2 = inputs.trace_sigma / inputs.d
    tn2 = float(np.dot(theta, theta))
    main = (
        6.0
        * inputs.lam
        * math.sqrt(inputs.c_minus4)
        / inputs.d**2
        * (
            inputs.d * (sigma2 * math.sqrt(inputs.c4) + math.sqrt(inputs.c8) / 3.0)
            + tn2 * (sigma2 + inputs.c4)
        )
    )
    return inputs.lam * cov_sum + main


def bound_b_star_mixture_refined(inputs: BoundInputs, theta) -> float:
    """Mixture refinement:
    (25 C_-2 lam / (8 d^2)) (d C4/3 + C4^(3/4) ||theta||_1 + 2 sigma^2 ||theta||_2^2 + d sigma^4)."""
    inputs.require("trace_sigma", "c4", "c_minus2")
    theta = np.asarray(theta, dtype=float)
    sigma2 = inputs.trace_sigma / inputs.d
    return (
        25.0
        * inputs.c_minus2
        * inputs.lam
        / (8.0 * inputs.d**2)
        * (
            inputs.d * inputs.c4 / 3.0
            + inputs.c4**0.75 * float(np.abs(theta).sum())
            + 2.0 * sigma2 * float(np.dot(theta, theta))
            + inputs.d * sigma2**2
        )
    )


def local_dependence_cov_bound(
    eta: int, c8: float, sigma2: float, theta_inf: float, d: int
) -> float:
    """Per-coordinate covariance term under dependency neighborhoods of size
    eta: 8 eta ((C8 + sigma^8)(C8 + ||theta||_inf^8))^(1/4) / (d - eta)^2."""
    if not 1 <= eta < d:
        raise ParameterError("need 1 <= eta < d")
    num = 8.0 * eta * ((c8 + sigma2**4) * (c8 + theta_inf**8)) ** 0.25
    return num / (d - eta) ** 2


def inverse_moment_bound(C: float, mu: float, q: float, m: int, d: int) -> dict:
    """Lemma-style inverse-moment cap: E[(d/S_d)^m] <= C (2/mu)^m, valid for
    d >= 2m/q given the negative-halfline MGF domination with (C, mu, q)."""
    if min(C, mu, q, m) <= 0:
        raise ParameterError("C, mu, q, m must all be positive")
    return {"bound": C * (2.0 / mu) ** m, "valid": d >= 2.0 * m / q}


def student_constants(d: int, k: int, lam: float) -> dict:
    """Closed-form Student quantities used by the risk and SURE bounds.

    All quantities are exact for the Gamma-mixture Student law sampled by
    StudentT; the two excess bounds are conservative bound values, not
    estimates.
    """
    if d < 6 or d % 2 != 0:
        raise ParameterError("these closed forms need even d >= 6")
    if k < 5:
        raise ParameterError("need k >= 5")
    var_tr = 2.0 * d**3 * k**4 / ((d + k - 2.0) * (k - 2.0) ** 4 * (k - 4.0))
    frob = var_tr / d
    e_d2_inv4 = d**2 * (k - 2.0) ** 2 * (k + 2.0) / ((d - 2.0) * (d - 4.0) * k**3)
    kernel_excess = 24.0 * lam * math.sqrt(
        2.0 * d**2 * (k + 2.0) / ((d - 2.0) * (d - 4.0) * (d + k - 2.0) * k * (k - 4.0))
    )
    zb_excess = 16.0 * lam * (d + k - 2.0) / ((d - 2.0) * k)
    return {
        "e_d2_inv4_bound": e_d2_inv4,
        "var_trace_T": var_tr,
        "e_frob_dev_sq": frob,
        "kernel_excess_bound": kernel_excess,
        "zero_bias_excess_bound": zb_excess,
    }


def pinsker_limit(sigma2: float, c2: float) -> float:
    """sigma^2 c^2 / (sigma^2 + c^2); zero when both vanish."""
    if sigma2 < 0 or c2 < 0:
        raise ParameterError("sigma2 and c2 must be nonnegative")
    if sigma2 + c2 == 0.0:
        return 0.0
    return sigma2 * c2 / (sigma2 + c2)


def adaptivity_bound_kernel(theta, sigma2: float, d: int, b_lam: float = 0.0) -> float:
    """d sigma_d^2 - (d-2)^2 sigma_d^4 / (||theta||^2 + d sigma_d^2) + 2 B_lam
    under the sigma_d^2 = sigma^2/d scaling."""
    theta = np.asarray(theta, dtype=float)
    sd2 = sigma2 / d
    tn2 = float(np.dot(theta, theta))
    return d * sd2 - (d - 2.0) ** 2 * sd2**2 / (tn2 + d * sd2) + 2.0 * b_lam


def adaptivity_bound_zero_bias(theta, sigma2: float, d: int, L: float) -> float:
    """sigma^2||theta||^2/(sigma^2+||theta||^2) + 4 sigma^4/(d (sigma^2+||theta||^2))
    + L lam (1/d + ||theta||_1/d^2 + ||theta||_2^2/d^3) with lam = (d-2) sigma^2/d."""
    theta = np.asarray(theta, dtype=float)
    tn2 = float(np.dot(theta, theta))
    first = sigma2 * tn2 / (sigma2 + tn2) + 4.0 * sigma2**2 / (d * (sigma2 + tn2))
    lam = (d - 2.0) * sigma2 / d
    second = L * lam * (1.0 / d + float(np.abs(theta).sum()) / d**2 + tn2 / d**3)
    return first + second
