"""Parsing of location-vector specifications.

Accepted forms wherever a theta is expected:
  "zero"        -> the zero vector
  "scaled:c"    -> theta_i = c / sqrt(d), so that ||theta||^2 = c^2
  anything else -> path to a plain-text file, one decimal per line
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def parse_theta(spec, d: int) -> np.ndarray:
    if d < 1:
        raise ParameterError("dimension must be >= 1")
    if spec is None:
        return np.zeros(d)
    if isinstance(spec, (list, tuple, np.ndarray)):
        theta = np.asarray(spec, dtype=float)
        if theta.shape != (d,):
            raise ParameterError(f"theta has shape {theta.shape}, expected ({d},)")
        return theta
    if not isinstance(spec, str):
        raise ParameterError(f"cannot interpret theta spec {spec!r}")
    text = spec.strip()
    if text == "zero":
        return np.zeros(d)
    if text.startswith("scaled:"):
        try:
            c = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ParameterError(f"bad scaled theta spec {spec!r}") from exc
        return np.full(d, c / np.sqrt(d))
    try:
        with open(text, "r", encoding="utf-8") as fh:
            values = [float(line) for line in fh if line.strip()]
    except OSError as exc:
        raise ParameterError(f"cannot read theta file {text!r}: {exc}") from exc
    theta = np.asarray(values, dtype=float)
    if theta.shape != (d,):
        raise ParameterError(f"theta file {text!r} has {theta.size} entries, expected {d}")
    return theta
