"""Command-line experiment front end.

Subcommands: risk, identity-check, sure, adaptivity, sphere-demo,
student-demo.  Each takes, as flags or --config keys, only the options it
reads; any other is a usage error.  Every run writes CSV with a '#'-prefixed
metadata header carrying the artifact version, the command's fully resolved
options and the seed, so a rerun with the same seed is byte-identical.

Exit codes: 0 success; 2 usage error, bad parameters or an unavailable
moment; 3 numerical-guard abort, an evaluation outside the domain or a
statistic that overflows to a non-finite cell.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._mc import in_blocks, report_from, run
from .errors import EvaluationError, GuardAbort, MomentUnavailableError, ParameterError
from .estimation import JamesStein, lambda_grid, make_estimator, select_lambda
from .laws1d import Laplace1D, SmoothedRademacher1D, Uniform1D
from .noise_models import (
    AdditiveCorruption,
    BallUniform,
    FourPointDegenerate,
    GaussianIso,
    MixingCorruption,
    NoiseModel,
    ProductIID,
    SphereUniform,
    StudentT,
)
from .risk_lab import (
    BoundInputs,
    adaptivity_bound_kernel,
    b_star_report,
    bound_thm31,
    bound_thm33,
    guarded_pass,
    inverse_moment,
    mc_risk,
    pinsker_limit,
    risk_statistic,
    shrinkage_term,
    student_constants,
    sure_pass,
)
from .stein_kernels import (
    discrepancy_from,
    discrepancy_of,
    gaussian_kernel,
    product_kernel,
    student_kernel,
)
from .testfns import coordinate_quadratic, linear_map, shrink_direction
from .theta import MAX_DIM, parse_theta
from .zero_bias import FourPointCoupling, coupling_for, identity_residual


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, list):
        return ",".join(map(_fmt, value))
    return str(value)


class CsvWriter:
    def __init__(self, path, config: dict, seed: int):
        echo = {k: v for k, v in config.items() if k != "out"}  # not part of the experiment
        self.lines = [
            f"# steinshrink v{__version__}",
            "# config: " + " ".join(f"{k}={_fmt(v)}" for k, v in sorted(echo.items())),
            f"# seed={seed}",
        ]
        self.path = path

    def header(self, columns):
        self.columns = columns
        self.lines.append(",".join(columns))

    def row(self, values):
        """A data row; a cell that is not finite is refused, a blank (None) one kept."""
        for column, value in zip(self.columns, values):
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise EvaluationError(f"{column} is {float(value)!r}: the statistic overflows")
        self.lines.append(",".join(_fmt(v) for v in values))

    def comment(self, text):
        self.lines.append(f"# {text}")

    def finish(self):
        text = "\n".join(self.lines) + "\n"
        if self.path in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(self.path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# configuration handling


def _read_config_file(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _reps(text: str) -> int:
    value = int(text)
    if value < 2:  # a standard error needs two draws
        raise ValueError("expected an integer >= 2")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("expected a non-negative integer")
    return value


def _dims(text: str) -> list[int]:
    try:
        dims = [int(x) for x in text.split(",")]
    except ValueError:
        dims = []
    if not dims or min(dims) < 1:
        raise ValueError("expected comma-separated integers >= 1")
    if max(dims) > MAX_DIM:
        raise ValueError(f"dimension {max(dims)} is above the cap of 2^26 = {MAX_DIM}")
    return dims


_ON, _OFF = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _switch(text: str) -> bool:
    if text.lower() not in _ON + _OFF:
        raise ValueError("expected one of 1/true/yes/on or 0/false/no/off")
    return text.lower() in _ON


class _Option(NamedTuple):
    flag: str
    cast: Callable[[str], object]
    help: str | None = None


# Every option once, under its config key, which also keys `Args.flags`.  Flag
# text and config-file text go through the same cast; a switch takes no value.
_OPTIONS = {
    "model": _Option("--model", str),
    "d": _Option("--d", int),
    "k": _Option("--k", int),
    "sigma": _Option("--sigma", _finite),
    "eps": _Option("--eps", _finite),
    "theta": _Option("--theta", str, "file path, 'zero', or 'scaled:c'"),
    "lam": _Option("--lambda", _finite),
    "lambda_grid": _Option("--lambda-grid", str, "C:size"),
    "reps": _Option("--reps", _reps),
    "seed": _Option("--seed", _seed),
    "out": _Option("--out", str),
    "estimator": _Option("--estimator", str),
    "bounds": _Option("--bounds", _switch),
    "excess": _Option("--excess", _switch),
    "pinsker": _Option("--pinsker", _switch),
    "select_lambda": _Option("--select-lambda", _switch),
    "outlier": _Option("--outlier", str),
    "c": _Option("--c", _finite),
    "c_low": _Option("--c-low", _finite),
    "c_high": _Option("--c-high", _finite),
    "d_list": _Option("--d-list", _dims),
}

# The options `build_model` reads, and how many draws, from which seed, written where.
_MODEL = {"model": "gaussian", "d": 5, "k": 6, "sigma": 1.0, "eps": 0.1, "theta": "zero",
          "pinsker": False, "outlier": "student"}
_RUN = {"reps": 100000, "seed": 1, "out": "-"}

# The options each command reads, each with its default: the command's flags,
# its config keys and its `# config:` echo are these and no others.
_COMMAND_OPTIONS = {
    "risk": {**_MODEL, "lam": 0.0, "estimator": "james-stein", "excess": False,
             "bounds": False, **_RUN},
    "identity-check": {"model": "all", **_RUN, "reps": 200000},
    "sure": {**_MODEL, "lam": 0.0, "estimator": "james-stein", "select_lambda": False,
             "lambda_grid": "2:512", **_RUN},
    "adaptivity": {"model": "gaussian", "c": 1.0, "sigma": 1.0, "d_list": [100, 400, 1600],
                   **_RUN},
    "sphere-demo": {"c_low": 4.0, "c_high": 9.0, "sigma": 1.0, "d_list": [16, 65, 100, 200],
                    "seed": 1, "out": "-"},
    "student-demo": {"d": 6, "k": 6, "lam": None, **_RUN},  # lam None: d - 2
}


def _cast(command: str, key: str, text: str):
    if key not in _COMMAND_OPTIONS[command]:
        raise ParameterError(f"unknown config key {key!r} for {command}")
    option = _OPTIONS[key]
    try:
        return option.cast(text)
    except ValueError as exc:
        raise ParameterError(f"bad {option.flag} value {text!r}: {exc}") from None


class Args(NamedTuple):
    """A command line as `parse_args` reads it: the command (None for the
    program's help), its --config path, the text of each flag given by
    config key, and whether -h or --help was given."""

    command: str | None
    config: str | None = None
    flags: dict | None = None
    help: bool = False


_HELP = ("-h", "--help")


def parse_args(argv: list[str]) -> Args:
    """`argv` read against the option tables: COMMAND, then `--flag value`
    or `--flag=value` for each valued option of the command, a bare
    `--switch`, and `--config PATH`; -h or --help asks for help and ends the
    line.  Anything else is a usage error; a flag given twice keeps its last
    value."""
    if not argv:
        raise ParameterError(f"expected a command: {', '.join(_COMMAND_OPTIONS)}")
    if argv[0] in _HELP:
        return Args(None, help=True)
    command, rest = argv[0], iter(argv[1:])
    if command not in _COMMAND_OPTIONS:
        raise ParameterError(f"unknown command {command!r}; expected one of: "
                             f"{', '.join(_COMMAND_OPTIONS)}")
    keys = {_OPTIONS[key].flag: key for key in _COMMAND_OPTIONS[command]}
    texts = {}
    for token in rest:
        if token in _HELP:
            return Args(command, help=True)
        flag, given, text = token.partition("=")
        key = "config" if flag == "--config" else keys.get(flag)
        if key is None:
            known = any(option.flag == flag for option in _OPTIONS.values())
            raise ParameterError(f"{command} reads no {flag}" if known else
                                 f"unrecognized argument {token!r} for {command}")
        if key != "config" and _OPTIONS[key].cast is _switch:
            if given:
                raise ParameterError(f"{flag} is a switch and takes no value")
            text = "true"
        elif not given:
            text = next(rest, None)
            if text is None or text.startswith("--"):
                raise ParameterError(f"{flag} expects a value")
        texts[key] = text
    return Args(command, texts.pop("config", None), texts)


def _help(command: str | None) -> str:
    """The usage text of `command`, from its options' flags, help strings
    and defaults; the program's, naming every command, if None."""
    usage = (f"usage: steinshrink {command or 'COMMAND'} "
             "[--flag value | --flag=value | --switch]... [--config PATH]\n\n")
    if command is None:
        return (f"{usage}{__doc__}\ncommands: {', '.join(_COMMAND_OPTIONS)}\n"
                "'steinshrink COMMAND --help' lists the options of COMMAND.\n")
    rows = [("-h, --help", "show this help and exit"),
            ("--config PATH", "key=value configuration file; flags override its keys")]
    for key, default in _COMMAND_OPTIONS[command].items():
        option = _OPTIONS[key]
        switch = option.cast is _switch
        text = "a switch" if switch else option.help or ""
        if default is not None:
            text += f" (default {_fmt(default)})"
        rows.append((option.flag if switch else f"{option.flag} {key.upper()}", text.strip()))
    width = max(len(flag) for flag, _ in rows)
    return usage + "options:\n" + "".join(f"  {flag:<{width}}  {text}".rstrip() + "\n"
                                          for flag, text in rows)


def resolve_config(args: Args) -> dict:
    """The command's options: flags override config-file keys, which
    override the command's defaults."""
    cfg = dict(_COMMAND_OPTIONS[args.command])
    texts = list(_read_config_file(args.config).items()) if args.config else []
    texts += [(key, args.flags[key]) for key in cfg if key in args.flags]
    for key, text in texts:
        cfg[key] = _cast(args.command, key, text)
    given = {key for key, _ in texts}
    unread = []  # (options this run does not read, what the run is)
    if "select_lambda" in cfg:  # `sure`: one branch picks lambda per row on a grid
        unread.append(({"lam", "estimator"}, "sure --select-lambda") if cfg["select_lambda"]
                      else ({"lambda_grid"}, "sure without --select-lambda"))
    if "outlier" in cfg:  # the command builds its model by `build_model`
        keys = _unread_model_options(cfg)
        model = f"--model {cfg['model']}"
        if "outlier" not in keys:  # a corrupt model, whose outlier reads --k or not
            model += f" --outlier {cfg['outlier']}"
        unread.append((keys, f"{args.command} {model}"))
    for keys, what in unread:
        _refuse(given, keys, what)
        for key in keys:  # not echoed: they did not shape the run
            del cfg[key]
    cfg["command"] = args.command
    return cfg


def _unread_model_options(cfg: dict) -> set:
    """The options of `_MODEL` that `build_model` does not read for this model:
    --eps and --outlier but for the corrupt models, --k but for Student noise,
    a Student outlier included, --sigma for Student and four-point noise, a
    Student outlier included, and --pinsker but for Gaussian noise and the
    product laws."""
    model = cfg["model"]
    corrupt = model in ("corrupt-add", "corrupt-mix")
    student = model == "student" or (corrupt and cfg["outlier"] == "student")
    unread = (set() if corrupt else {"eps", "outlier"}) | (set() if student else {"k"})
    if student or model == "four-point":
        unread.add("sigma")
    if corrupt or model in ("student", "sphere", "ball", "four-point"):
        unread.add("pinsker")
    return unread


def _refuse(given: set, unread: set, what: str) -> None:
    """A usage error if an option of `unread` was given, as a flag or a config key."""
    if given & unread:
        raise ParameterError(f"{what} reads no "
                             + " or ".join(_OPTIONS[key].flag for key in sorted(given & unread)))


def build_model(cfg: dict) -> NoiseModel:
    """The noise model of `cfg`, which reads --sigma and --pinsker only for
    the laws that take them (`_unread_model_options`)."""
    d = cfg["d"]
    theta = parse_theta(cfg["theta"], d)
    name = cfg["model"]
    if name == "student":
        return StudentT(d, cfg["k"], theta)
    if name == "corrupt-add":
        return AdditiveCorruption(cfg["eps"], _outlier(cfg), theta)
    if name == "corrupt-mix":
        return MixingCorruption(cfg["eps"], _outlier(cfg), theta)
    if name == "four-point":
        if d != 2:
            raise ParameterError(f"the four-point model is two-dimensional; got --d {d}, pass --d 2")
        return FourPointDegenerate(theta)
    sigma, sigma2 = cfg["sigma"], _squared(cfg, "sigma")
    if name == "sphere":
        return SphereUniform(d, sigma, theta)
    if name == "ball":
        return BallUniform(d, sigma, theta)
    scaling = "pinsker" if cfg["pinsker"] else None
    if name == "gaussian":
        return GaussianIso(d, sigma2, theta, scaling=scaling)
    if name == "laplace":
        return ProductIID(d, Laplace1D(sigma / math.sqrt(2.0)), theta, scaling=scaling)
    if name == "uniform":
        return ProductIID(d, Uniform1D(sigma * math.sqrt(3.0)), theta, scaling=scaling)
    if name == "smoothed-rademacher":
        c = sigma * math.sqrt(0.99)
        return ProductIID(d, SmoothedRademacher1D(c, 0.1 * sigma), theta, scaling=scaling)
    raise ParameterError(f"unknown model {name!r}")


def _outlier(cfg: dict) -> NoiseModel:
    kind = cfg["outlier"]
    d = cfg["d"]
    if kind == "student":
        return StudentT(d, cfg["k"])
    sigma2 = _squared(cfg, "sigma")
    if kind == "laplace":
        return ProductIID(d, Laplace1D(cfg["sigma"] / math.sqrt(2.0)))
    if kind == "gaussian":
        return GaussianIso(d, sigma2)
    raise ParameterError(f"unknown outlier {kind!r}")


def model_kernel(model: NoiseModel):
    """The canonical Stein kernel for a model, or None."""
    if isinstance(model, GaussianIso):
        return gaussian_kernel(model.cov()) if model.sigma2 > 0 else None
    if isinstance(model, StudentT):
        return student_kernel(model.k, model.d)
    if isinstance(model, ProductIID):
        return product_kernel([model.law] * model.d)
    return None


def _zb_coupling(model: NoiseModel, kind: str):
    """(coupling, None) when the zero-bias bounds (`bound_zb`, `bias_bound`)
    apply to the estimator `kind` on this model, else (None, why not)."""
    if kind != "james_stein":
        return None, f"the bounds are for james_stein, not {kind}"
    try:
        coupling = coupling_for(model)
    except ParameterError as exc:
        return None, str(exc)
    report = model.validity("zerobias")
    return (coupling, None) if report.ok else (None, "; ".join(report.reasons))


def _squared(cfg: dict, key: str) -> float:
    """cfg[key] ** 2, for a noise scale, a norm or a lambda; a usage error
    where the square overflows, as it does from about 1.3e154 on, or where a
    nonzero value's square is below the smallest normal double, as it is
    below about 1.5e-154: a subnormal square loses its digits, and one that
    underflows to 0 would run the law of 0."""
    try:
        square = cfg[key] ** 2
    except OverflowError:
        raise ParameterError(f"{_OPTIONS[key].flag} {cfg[key]!r} is too large: "
                             "its square overflows") from None
    if square < sys.float_info.min and cfg[key] != 0.0:
        raise ParameterError(f"{_OPTIONS[key].flag} {cfg[key]!r} is too small: "
                             "its square is below the smallest normal double")
    return square


def _parse_grid(spec: str):
    try:
        c_str, size_str = str(spec).split(":", 1)
        return _finite(c_str), int(size_str)
    except ValueError:
        raise ParameterError(f"bad --lambda-grid value {spec!r}: expected C:size, "
                             f"C a finite number and size an integer") from None


# ---------------------------------------------------------------------------
# subcommands


_BOUND_COLUMNS = ["bound_thm31", "bound_thm33", "bound_zb"]


def _bound_basis(model: NoiseModel, est):
    """(kernel, coupling, why) for `risk --bounds`: the Stein kernel behind
    bound_thm33 and the coupling behind bound_zb, each None where its bound
    does not apply, and why each bound that does not apply is blank."""
    coupling, no_zb = _zb_coupling(model, est.kind)
    if est.kind != "james_stein":
        return None, None, dict.fromkeys(_BOUND_COLUMNS, no_zb)
    kernel = model_kernel(model)
    checks = {
        "bound_thm31": (isinstance(model, GaussianIso),
                        f"no kernel bounds alpha_-, alpha_+ for family {model.family}"),
        "bound_thm33": (kernel is not None, f"no canonical Stein kernel for family {model.family}"),
    }
    why = {}
    for column, (found, missing) in checks.items():
        if not found:
            why[column] = missing
        elif not (report := model.validity("kernel")).ok:
            why[column] = "; ".join(report.reasons)
    if no_zb is not None:
        why["bound_zb"] = no_zb
    kernel = None if "bound_thm33" in why else kernel
    return kernel, coupling, why


def cmd_risk(cfg: dict) -> CsvWriter:
    """The risk (or excess risk) and, with --bounds, the three bounds.  The
    risk and every bound input come from one pass over the draws of X that
    the risk alone makes: the kernel's discrepancy is scored on those rows,
    and B* on the coupling's companions of them (`guarded_pass`)."""
    model = build_model(cfg)
    lam = cfg["lam"]
    _squared(cfg, "lam")  # the loss takes lambda^2
    est = make_estimator(cfg["estimator"], lam)
    n, seed = cfg["reps"], cfg["seed"]
    w = CsvWriter(cfg["out"], cfg, seed)
    risk, label = risk_statistic(est, model.theta, cfg["excess"])
    kernel, coupling, why = _bound_basis(model, est) if cfg["bounds"] else (None, None, {})
    for column, reason in why.items():
        w.comment(f"{column}: not applicable: {reason}")
    bounds = cfg["bounds"] and len(why) < len(_BOUND_COLUMNS)
    discrepancy = None if kernel is None else discrepancy_of(kernel, model.theta)

    def stat(X, sq):
        values = {"risk": risk(X, sq)}
        if bounds:
            values.update(e_inv2=inverse_moment(sq, 1, 1), e_d2_inv4=inverse_moment(sq, model.d, 2))
        if discrepancy is not None:
            values.update(discrepancy(X))
        return values

    mom = model.moments() if bounds else None  # refused before anything is drawn
    accs = guarded_pass(model, n, seed, stat, est, coupling)
    rep = report_from(accs["risk"], seed, label)
    cells = dict.fromkeys(_BOUND_COLUMNS)
    if bounds:
        inputs = BoundInputs(lam=lam, d=model.d, trace_sigma=mom.trace_cov, kappa=mom.kappa,
                             e_inv2=accs["e_inv2"].mean)
        if "bound_thm31" not in why:
            inputs.alpha_minus = inputs.alpha_plus = model.sigma2
            cells["bound_thm31"] = bound_thm31(inputs)
        if kernel is not None:
            inputs.discrepancy = discrepancy_from(accs, seed)
            inputs.e_d2_inv4 = accs["e_d2_inv4"].mean
            if isinstance(model, StudentT) and model.d % 2 == 0 and model.d >= 6:
                inputs.e_d2_inv4 = student_constants(model.d, model.k, lam)["e_d2_inv4_bound"]
            cells["bound_thm33"] = bound_thm33(inputs)
        if coupling is not None:
            b_star = b_star_report(accs, lam, n, seed).mean
            cells["bound_zb"] = inputs.trace_sigma + shrinkage_term(inputs) + 2.0 * b_star
        if cfg["excess"]:
            cells = {k: None if b is None else b - mom.trace_cov for k, b in cells.items()}
    w.header(["label", "lambda", "mean", "stderr", "n", "seed", *_BOUND_COLUMNS])
    w.row([rep.label, lam, rep.mean, rep.stderr, rep.n, seed, *cells.values()])
    return w


def _identity_suite():
    """(model label, model, kind, kernel or coupling) rows to test."""
    d, k, sigma = 6, 6, 1.0
    laplace = ProductIID(d, Laplace1D(sigma / math.sqrt(2.0)))
    shifted_sphere = SphereUniform(d, sigma, parse_theta(f"scaled:{2*math.sqrt(d):.17g}", d))
    student = StudentT(d, k)
    four_point = FourPointDegenerate()
    kernels = [("gaussian", GaussianIso(d, sigma**2)), ("student", student), ("product-laplace", laplace)]
    couplings = [("student", student), ("sphere-shifted", shifted_sphere),
                 ("product-laplace", laplace), ("corrupt-mix", MixingCorruption(0.2, laplace))]
    return (
        [(label, model, "kernel", model_kernel(model)) for label, model in kernels]
        + [(label, model, "zerobias", coupling_for(model)) for label, model in couplings]
        + [("four-point", four_point, "zerobias", FourPointCoupling(four_point))]
    )


def cmd_identity_check(cfg: dict) -> CsvWriter:
    """One pass per suite row (model, construction) feeds all its test functions."""
    n, seed = cfg["reps"], cfg["seed"]
    suite = _identity_suite()
    rows = [row for row in suite if cfg["model"] == "all" or row[0].startswith(cfg["model"])]
    if not rows:
        labels = ", ".join(dict.fromkeys(row[0] for row in suite))
        raise ParameterError(f"identity-check --model {cfg['model']!r} names no suite row; "
                             f"expected all or one of: {labels}")
    w = CsvWriter(cfg["out"], cfg, seed)
    w.header(["model", "construction", "test_fn", "mean", "stderr", "n", "seed", "pass"])
    for label, model, kind, obj in rows:
        rng = np.random.default_rng(20240517)
        fams = [linear_map(rng.normal(size=(model.d, model.d))), coordinate_quadratic(0)]
        fams.append(shrink_direction())
        valid = model.validity(kind).ok
        draw = obj.stream(model) if kind == "kernel" else obj._centered
        reps = identity_residual(n, seed, draw, model.theta,
                                 [fn for fn in fams if valid or not fn.needs_origin_guard],
                                 "stein" if kind == "kernel" else "zb")
        for fn in fams:
            if fn.name not in reps:
                w.row([label, obj.construction, fn.name, None, None, n, seed, "invalid-by-validity-check"])
                continue
            rep = reps[fn.name]
            ok = abs(rep.mean) < 3.0 * rep.stderr
            w.row([label, obj.construction, fn.name, rep.mean, rep.stderr, rep.n, seed, ok])
    return w


_SURE_COLUMNS = ["model", "estimator", "lambda", "sure_mean", "risk_mean", "bias", "bias_bound"]


def cmd_sure(cfg: dict) -> CsvWriter:
    model = build_model(cfg)
    n, seed = cfg["reps"], cfg["seed"]
    w = CsvWriter(cfg["out"], cfg, seed)
    if cfg["select_lambda"]:
        grid = lambda_grid(model.d, *_parse_grid(cfg["lambda_grid"]))
        sigma2 = model.cov().diagonal()[0]

        def selected(X):
            lam_hat, value = select_lambda(X, sigma2, grid, "soft-threshold")
            # the soft threshold sgn(x) (|x| - lam)_+ is x - clip(x, -lam, lam), bit
            # for bit but in the sign of a zero; clip is max, then min, here in place
            lam = lam_hat[:, None]
            dev = np.maximum(X, -lam)
            np.minimum(dev, lam, out=dev)
            np.subtract(X, dev, out=dev)
            dev -= model.theta
            return {"lambda": lam_hat, "sure": value, "risk": np.einsum("ij,ij->i", dev, dev)}

        # a row block at a time: `selected` builds several (rows, d) and (rows, G)
        # arrays and makes a few numpy calls per row, so its blocks are cut on the
        # wider of the two and hold at least `_mc._JOINT_BLOCK_ROWS` rows
        accs = run(n, seed, model.d, model.draw, in_blocks(selected, width=grid.size))
        lam_hat, sure_val, risk = (acc.mean for acc in accs.values())
        estimator = "soft-threshold:lambda-hat"
        w.comment(f"bias_bound: not applicable: {_zb_coupling(model, 'soft_threshold')[1]}")
        w.header(_SURE_COLUMNS)
        w.row([model.family, estimator, lam_hat, sure_val, risk, sure_val - risk, None])
        return w
    lam = cfg["lam"]
    _squared(cfg, "lam")  # the loss takes lambda^2
    est = make_estimator(cfg["estimator"], lam)
    coupling, why = _zb_coupling(model, est.kind)
    accs = sure_pass(model, est, n, seed, coupling)
    risk, bias = accs["risk"].mean, accs["bias"].mean
    bound = None
    if coupling is None:
        w.comment(f"bias_bound: not applicable: {why}")
    else:
        bound = 2.0 * b_star_report(accs, lam, n, seed).mean
    w.header(_SURE_COLUMNS)
    w.row([model.family, est.kind, lam, risk + bias, risk, bias, bound])
    return w


def cmd_adaptivity(cfg: dict) -> CsvWriter:
    n, seed = cfg["reps"], cfg["seed"]
    c = cfg["c"]
    sigma2 = _squared(cfg, "sigma")
    limit = pinsker_limit(sigma2, _squared(cfg, "c"))
    if min(cfg["d_list"]) < 2:
        raise ParameterError(f"--d-list entry {min(cfg['d_list'])} is below 2: "
                             "lambda = (d - 2) sigma^2 / d is negative at d = 1")
    thetas = [(d, parse_theta(f"scaled:{c:.17g}", d)) for d in cfg["d_list"]]  # before any draw
    w = CsvWriter(cfg["out"], cfg, seed)
    w.header(["d", "risk_mean", "stderr", "pinsker_limit", "thm45_bound"])
    for d, theta in thetas:
        if cfg["model"] == "gaussian":
            model = GaussianIso(d, sigma2, theta, scaling="pinsker")
        elif cfg["model"] == "laplace":
            model = ProductIID(
                d, Laplace1D(math.sqrt(sigma2 / 2.0)), theta, scaling="pinsker"
            )
        else:
            raise ParameterError("adaptivity sweep supports gaussian and laplace models")
        lam = (d - 2) * sigma2 / d
        rep = mc_risk(model, JamesStein(lam), n, seed)
        bound = adaptivity_bound_kernel(theta, sigma2, d, b_lam=0.0)
        w.row([d, rep.mean, rep.stderr, limit, bound])
    return w


def cmd_sphere_demo(cfg: dict) -> CsvWriter:
    c_low, c_high, sigma2 = cfg["c_low"], cfg["c_high"], _squared(cfg, "sigma")
    if c_low <= 1:
        raise ParameterError("the lower norm ratio must exceed 1")
    try:
        low = (math.sqrt(c_low) - 1.0) ** 3
    except OverflowError:
        raise ParameterError(f"--c-low {c_low!r} is too large: "
                             "(sqrt(c_low) - 1)^3 overflows") from None
    if low == 0.0:
        raise ParameterError(f"--c-low {c_low!r} is too close to 1: sqrt(c_low) rounds to 1")
    if c_high < c_low:
        raise ParameterError(f"--c-high {c_high!r} is below --c-low {c_low!r}: "
                             "the norm range is empty")
    crossing = 4.0 * (math.sqrt(c_high) + 1.0) ** 2 / low
    if not math.isfinite(crossing):
        raise ParameterError(f"--c-high {c_high!r} is too large: the crossing "
                             "4 (sqrt(c_high) + 1)^2 / (sqrt(c_low) - 1)^3 overflows")
    w = CsvWriter(cfg["out"], cfg, cfg["seed"])
    w.comment(f"certified improvement for d > {crossing:.17g}")
    w.header(["d", "gain_term", "two_b_star_closed", "improves"])
    for d in cfg["d_list"]:
        gain = -sigma2 * (d - 2.0) ** 2 / ((math.sqrt(c_high) + 1.0) ** 2 * d)
        two_bstar = 4.0 * sigma2 * (d - 2.0) ** 2 / (low * d**2)
        w.row([d, gain, two_bstar, gain + two_bstar < 0.0])
    return w


def cmd_student_demo(cfg: dict) -> CsvWriter:
    n, seed = cfg["reps"], cfg["seed"]
    d, k = cfg["d"], cfg["k"]
    model = StudentT(d, k)
    lam = cfg["lam"] if cfg["lam"] is not None else float(d - 2)
    consts = student_constants(d, k, lam)
    # one pass: the kernel's discrepancy and B* on the same draws of X
    discrepancy = discrepancy_of(student_kernel(k, d), model.theta)
    accs = guarded_pass(model, n, seed, lambda X, sq: discrepancy(X), coupling=coupling_for(model))
    disc = discrepancy_from(accs, seed)
    bstar = b_star_report(accs, lam, n, seed)
    w = CsvWriter(cfg["out"], {**cfg, "lam": lam}, seed)
    w.header(
        [
            "d",
            "k",
            "lambda",
            "var_trace_closed",
            "var_trace_mc",
            "frob_dev_closed",
            "frob_dev_mc",
            "e_d2_inv4_bound",
            "kernel_excess_bound",
            "zb_excess_bound",
            "b_star_mc",
            "b_star_stderr",
            "var_trace_mc_stderr",
            "frob_dev_mc_stderr",
        ]
    )
    w.row(
        [
            d,
            k,
            lam,
            consts["var_trace_T"],
            disc.var_trace_T,
            consts["e_frob_dev_sq"],
            disc.e_frob_dev_sq,
            consts["e_d2_inv4_bound"],
            consts["kernel_excess_bound"],
            consts["zero_bias_excess_bound"],
            bstar.mean,
            bstar.stderr,
            disc.var_trace_T_stderr,
            disc.e_frob_dev_sq_stderr,
        ]
    )
    return w


_COMMANDS = {
    "risk": cmd_risk,
    "identity-check": cmd_identity_check,
    "sure": cmd_sure,
    "adaptivity": cmd_adaptivity,
    "sphere-demo": cmd_sphere_demo,
    "student-demo": cmd_student_demo,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
        if args.help:
            sys.stdout.write(_help(args.command))
            return 0
        cfg = resolve_config(args)
        # a statistic that overflows reaches a cell and is refused there
        # (`CsvWriter.row`), so numpy's warnings on the way add only lines
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            writer = _COMMANDS[args.command](cfg)
        writer.finish()
    except (ParameterError, MomentUnavailableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GuardAbort as exc:
        print(f"numerical guard: {exc} {exc.diagnostics}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
