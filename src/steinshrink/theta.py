"""Parsing of location-vector specifications.

Accepted forms wherever a theta is expected:
  "zero"        -> the zero vector
  "scaled:c"    -> theta_i = c / sqrt(d), so that ||theta||^2 = c^2
  anything else -> path to a plain-text file, one decimal per line

A theta must be finite, with a finite ||theta||^2, and its dimension at most
`MAX_DIM`; anything else is refused before a draw is made.
"""

from __future__ import annotations

import math

import numpy as np

from ._mc import _CHUNK_BUDGET
from .errors import ParameterError

# The largest dimension: theta alone is 8 chunk budgets, 2^26 doubles or
# 512 MiB.  A larger d is refused before theta is allocated.  The cap is tied
# to the engine's chunk budget, not to the host's memory, so whether a
# command runs does not depend on the machine.
MAX_DIM = 8 * _CHUNK_BUDGET


def parse_theta(spec, d: int) -> np.ndarray:
    if d < 1:
        raise ParameterError("dimension must be >= 1")
    if d > MAX_DIM:
        raise ParameterError(f"dimension {d} is above the cap of 2^26 = {MAX_DIM}")
    if spec is None:
        return np.zeros(d)
    if isinstance(spec, (list, tuple, np.ndarray)):
        theta = np.asarray(spec, dtype=float)
        if theta.shape != (d,):
            raise ParameterError(f"theta has shape {theta.shape}, expected ({d},)")
    elif isinstance(spec, str):
        theta = _from_text(spec.strip(), d)
    else:
        raise ParameterError(f"cannot interpret theta spec {spec!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        norm_sq = np.dot(theta, theta)
    if not math.isfinite(norm_sq):
        raise ParameterError("theta has a non-finite entry or an ||theta||^2 that overflows")
    return theta


def _from_text(text: str, d: int) -> np.ndarray:
    if text == "zero":
        return np.zeros(d)
    if text.startswith("scaled:"):
        try:
            c = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ParameterError(f"bad scaled theta spec {text!r}") from exc
        return np.full(d, c / np.sqrt(d))
    try:
        with open(text, "r", encoding="utf-8") as fh:
            values = [float(line) for line in fh if line.strip()]
    except OSError as exc:
        raise ParameterError(f"cannot read theta file {text!r}: {exc}") from exc
    except ValueError as exc:
        raise ParameterError(f"theta file {text!r}: {exc}") from None
    theta = np.asarray(values, dtype=float)
    if theta.shape != (d,):
        raise ParameterError(f"theta file {text!r} has {theta.size} entries, expected {d}")
    return theta
