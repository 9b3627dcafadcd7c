"""Monte Carlo plumbing: substream seeding, chunking, streaming moments.

Replicate randomness is derived from (seed, chunk index) through numpy's
SeedSequence spawn keys, so a run sharded across workers and a serial run
produce bit-identical draws as long as the chunk partition is the same.
The partition depends only on (n, d), never on worker count.

`run` is the one streaming engine: every Monte Carlo estimate in the
package is a mean of per-row statistics accumulated over one chunk stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# numpy 2 loads numpy.random lazily (with `secrets` and about 20 modules);
# load it with the package, so that cost is not paid inside the first draw
import numpy.random  # noqa: F401

from .errors import ParameterError

# Rows per chunk are capped so a chunk of d-vectors stays around 64 MB.
_MAX_CHUNK_ROWS = 1 << 16
_CHUNK_BUDGET = 1 << 23  # total doubles per chunk


def chunk_rows(d: int) -> int:
    """Deterministic chunk height for dimension d."""
    return max(1, min(_MAX_CHUNK_ROWS, _CHUNK_BUDGET // max(int(d), 1)))


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for chunk `index` of the stream identified by `seed`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),)))


def chunk_plan(n: int, d: int):
    """Yield (chunk_index, rows) pairs partitioning n replicates."""
    if n < 1:
        raise ParameterError("replicate count must be >= 1")
    rows = chunk_rows(d)
    full, rem = divmod(int(n), rows)
    for i in range(full):
        yield i, rows
    if rem:
        yield full, rem


@dataclass
class Accumulator:
    """Streaming central moments up to order four (Pebay update rules).

    Fourth moments are carried so that a standard error can be attached to
    variance estimates, not just means.
    """

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0

    def add(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float).ravel()
        nb = values.size
        if nb == 0:
            return
        mb = float(values.mean())
        d0 = values - mb
        m2b = float(np.dot(d0, d0))
        d2 = d0 * d0
        m3b = float(np.dot(d2, d0))
        m4b = float(np.dot(d2, d2))
        self._merge(nb, mb, m2b, m3b, m4b)

    def merge(self, other: "Accumulator") -> None:
        self._merge(other.n, other.mean, other.m2, other.m3, other.m4)

    def _merge(self, nb: int, mb: float, m2b: float, m3b: float, m4b: float) -> None:
        na = self.n
        if na == 0:
            self.n, self.mean, self.m2, self.m3, self.m4 = nb, mb, m2b, m3b, m4b
            return
        n = na + nb
        delta = mb - self.mean
        d_n = delta / n
        m2 = self.m2 + m2b + delta * d_n * na * nb
        m3 = (
            self.m3
            + m3b
            + delta * d_n * d_n * na * nb * (na - nb)
            + 3.0 * d_n * (na * m2b - nb * self.m2)
        )
        m4 = (
            self.m4
            + m4b
            + delta * (d_n**3) * na * nb * (na * na - na * nb + nb * nb)
            + 6.0 * d_n * d_n * (na * na * m2b + nb * nb * self.m2)
            + 4.0 * d_n * (na * m3b - nb * self.m3)
        )
        self.n, self.mean, self.m2, self.m3, self.m4 = n, self.mean + nb * d_n, m2, m3, m4

    @property
    def variance(self) -> float:
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stderr(self) -> float:
        return math.sqrt(self.variance / self.n) if self.n > 1 else 0.0

    def variance_stderr(self) -> float:
        """Standard error of the sample variance (no normality assumption)."""
        if self.n < 2:
            return 0.0
        n = self.n
        m4 = self.m4 / n
        v = self.variance
        inner = m4 - (n - 3) / (n - 1) * v * v
        return math.sqrt(max(inner, 0.0) / n)


@dataclass
class RiskReport:
    """Monte Carlo estimate of a scalar: mean, standard error, provenance."""

    mean: float
    stderr: float
    n: int
    seed: int
    label: str = ""

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def run(chunks, stats: dict) -> dict:
    """One pass over `chunks`: each `stats[name](chunk)` returns one value per
    row, accumulated under `name`.  Returns the accumulators by name.

    All statistics see the same chunk, so paired estimates share their
    random numbers and the stream is drawn once.  One chunk is live at a
    time: the loop lets go of it before the next one is drawn.
    """
    accs = {name: Accumulator() for name in stats}
    for chunk in chunks:
        for name, stat in stats.items():
            accs[name].add(stat(chunk))
        del chunk
    return accs


def report_from(acc: Accumulator, seed: int, label: str = "") -> RiskReport:
    return RiskReport(mean=acc.mean, stderr=acc.stderr, n=acc.n, seed=seed, label=label)
