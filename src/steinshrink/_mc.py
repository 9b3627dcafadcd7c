"""Monte Carlo plumbing: substream seeding, chunking, streaming moments.

Replicate randomness is derived from (seed, chunk index) through numpy's
SeedSequence spawn keys, so a run sharded across workers and a serial run
produce bit-identical draws as long as the chunk partition is the same.
The partition depends only on (n, d), never on worker count.

`run` is the one streaming engine: every Monte Carlo estimate in the
package is a mean of per-row statistics accumulated over one chunk stream.
It evaluates the statistics of a plain (rows, d) array chunk in row tasks
on all usable cores, with a task layout fixed by (rows, d), and joins the
tasks' rows before one accumulator update per chunk, so its bytes do not
depend on the core count.  `JointChunk` streams are evaluated whole.

`draw_rows` draws one chunk of fixed-width variates (one 64-bit generator
output each: the Laplace and uniform inversions of `laws1d`) on all usable
cores, by jumping copies of the chunk's PCG64 substream ahead to each task
of rows.  Each thread writes its variates in place into the chunk, one
sub-block at a time, with one sub-block of scratch.  Its bytes, its end
state and its live memory (one chunk) do not depend on the core count.
Every other draw is made serially on the calling thread.

Both take their tasks in turn on threads started by `_in_turn`.
"""

from __future__ import annotations

import _thread
import itertools
import math
import os
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


# Variates per `fill` call inside `draw_rows`: the sub-block and each
# thread's scratch (256 KB each) stay in cache through the fill's passes and
# the shift, and the scratch adds little to the peak RSS.  Each numpy call
# takes the GIL back, so fewer, larger calls also mean fewer waits for it.
_SUB_BLOCK = 1 << 15
# Variates per task of a split draw.  The threads take tasks in turn, so a
# core slowed by other work takes fewer of them and the draw ends about when
# the last task does, not when the slowest core's fixed share does.
_TASK = 1 << 17
# Fewest variates a thread is started for: smaller draws stay on the calling
# thread and pay no thread start-up.
_MIN_SPLIT = 1 << 18
# Doubles of a chunk per row task of `run`: a task's per-row temporaries stay
# a few MB, and a full chunk of `_CHUNK_BUDGET` doubles makes 32 tasks.
_ROW_TASK = 1 << 18
# Bit generators whose `advance(k)` skips exactly k 64-bit outputs.
_JUMPABLE = (np.random.PCG64, np.random.PCG64DXSM)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(rows: int, d: int) -> int:
    """Threads a (rows, d) fixed-width draw is made on."""
    return max(1, min(_usable_cores(), rows, rows * d // _MIN_SPLIT))


def _fill_rows(g: np.random.Generator, fill, out: np.ndarray, shift, scratch) -> None:
    """`fill` into `out` (+ shift), one sub-block of len(scratch) rows at a time."""
    step = len(scratch)
    for r in range(0, len(out), step):
        block = out[r : r + step]
        fill(g, block.reshape(-1), scratch[: len(block)].reshape(-1))
        if shift is not None:
            block += shift


def draw_rows(rng: np.random.Generator, rows: int, d: int, fill, shift=None) -> np.ndarray:
    """A (rows, d) array of variates (+ `shift`) drawn by `fill` on all
    usable cores, with the bytes and the end state of `rng` of one serial
    `fill` over the whole array.

    `fill(g, out, scratch)` writes variates from `g` in place into the flat
    array `out`, and may overwrite the flat array `scratch` of the same
    length; it should take one 64-bit output of `g` per variate.  The rows
    are cut into tasks of about `_TASK` variates, and task k is drawn from a
    copy of `rng` advanced past the variates of tasks 0..k-1 (PCG64 jumps
    ahead in O(log n)).  The result is kept only if every task ended where
    the next one started; otherwise (a variate took a second output, as a
    Gaussian may) the draw is made again as one task, from `rng` itself.
    """
    threads = _workers(rows, d) if isinstance(rng.bit_generator, _JUMPABLE) else 1
    tasks = 1 if threads == 1 else min(rows, max(threads, -(-rows * d // _TASK)))
    out = _draw_tasks(rng, rows, d, fill, shift, threads, tasks)
    if out is None:
        out = _draw_tasks(rng, rows, d, fill, shift, 1, 1)
    return out


def _draw_tasks(rng, rows, d, fill, shift, threads, tasks):
    """`draw_rows` cut into `tasks` row ranges on `threads` threads, or None
    if a task did not end where the next one began.

    One task is drawn from `rng` itself; several are drawn from copies, one
    per thread, and `rng` then takes the last task's end state.  An
    exception in any task is raised here, and no array is returned.
    """
    out = np.empty((rows, d))
    cuts = [rows * k // tasks for k in range(tasks + 1)]
    step = max(1, min(rows, _SUB_BLOCK // max(d, 1)))
    start = rng.bit_generator.state if tasks > 1 else None
    begins, ends = [None] * tasks, [None] * tasks

    def worker():
        g = rng if tasks == 1 else np.random.Generator(type(rng.bit_generator)(0))
        scratch = np.empty((step, d))

        def draw(k):
            if tasks > 1:
                g.bit_generator.state = start
                g.bit_generator.advance(cuts[k] * d)
                begins[k] = g.bit_generator.state["state"]
            _fill_rows(g, fill, out[cuts[k] : cuts[k + 1]], shift, scratch)
            ends[k] = g.bit_generator.state["state"]

        return draw

    _in_turn(tasks, threads, worker)
    if tasks == 1:
        return out
    if any(ends[k] != begins[k + 1] for k in range(tasks - 1)):
        return None
    rng.bit_generator.state = {**start, "state": ends[-1]}
    return out


def _in_turn(tasks: int, threads: int, worker) -> None:
    """Tasks 0..tasks-1 on `threads` threads: each thread calls `worker()`
    once and then the function it returns on each task index it takes.

    Thread j starts with task j and then takes the lowest task not yet
    taken, so a core slowed by other work takes fewer tasks.  The calling
    thread is thread 0 and joins the others, so no thread outlives the call.
    After a task raises, no thread takes a new task, and the exception of
    the lowest failed task is raised here: every lower task was taken before
    it and is run, so that is the exception a serial loop would meet first.
    """
    threads = min(threads, tasks)
    claim = itertools.count(threads).__next__
    errors = []

    def work(k, done=None):
        try:
            do = worker()
            while k < tasks:
                do(k)
                k = tasks if errors else claim()
        except BaseException as exc:  # raised again on the calling thread
            errors.append((k, exc))
        finally:
            if done is not None:
                done.release()

    # `threading.Thread.start` would wait until the new thread runs, which
    # on an idle core is a wake-up of uncertain length; with `_thread` the
    # calling thread starts on its own task at once
    dones = []
    try:
        for j in range(1, threads):
            done = _thread.allocate_lock()
            done.acquire()
            _thread.start_new_thread(work, (j, done))
            dones.append(done)
        work(0)
    finally:
        for done in dones:
            done.acquire()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]


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
        # numpy's pairwise sums, not BLAS dot products: BLAS splits a long
        # dot across its threads, which changes the last bits with the core
        # count and leaves a BLAS thread spinning on a core for about 0.1 s
        d2 = d0 * d0
        m2b = float(d2.sum())
        m3b = float((d2 * d0).sum())
        m4b = float((d2 * d2).sum())
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


def run(chunks, values) -> dict:
    """One pass over `chunks`: `values(chunk)` returns per-row values by
    name, each accumulated under its name.  Returns the accumulators by name.

    All statistics see the same chunk, so paired estimates share their
    random numbers and the stream is drawn once.  One chunk is live at a
    time: the loop lets go of it before the next one is drawn.  A plain
    (rows, d) array chunk is evaluated in row tasks on all usable cores
    (`_row_values`), so `values` must give each row a value that depends on
    that row alone, bit for bit, and must not change shared state.
    """
    accs = {}
    for chunk in chunks:
        for name, rows in _row_values(chunk, values).items():
            accs.setdefault(name, Accumulator()).add(rows)
        del chunk
    return accs


def _row_cuts(rows: int, d: int) -> list[int]:
    """Row bounds of the tasks of a (rows, d) chunk: about `_ROW_TASK`
    doubles each, a layout fixed by (rows, d) alone."""
    tasks = max(1, min(rows, rows * d // _ROW_TASK))
    return [rows * k // tasks for k in range(tasks + 1)]


def _row_values(chunk, values) -> dict:
    """`values(chunk)`, evaluated on the row tasks of a plain array chunk by
    the calling thread and up to `_usable_cores() - 1` more, each name's
    task outputs joined in row order.  Other chunks (a `JointChunk`) and
    chunks of one task are evaluated whole on the calling thread.

    When every row's value depends on its row alone, the joined arrays are
    bit-identical to `values(chunk)`, whatever the core count.
    """
    if not isinstance(chunk, np.ndarray) or chunk.ndim != 2:
        return values(chunk)
    cuts = _row_cuts(*chunk.shape)
    tasks = len(cuts) - 1
    if tasks == 1:
        return values(chunk)
    parts = [None] * tasks

    def evaluate(k):
        parts[k] = values(chunk[cuts[k] : cuts[k + 1]])

    _in_turn(tasks, _usable_cores(), lambda: evaluate)
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def report_from(acc: Accumulator, seed: int, label: str = "") -> RiskReport:
    return RiskReport(mean=acc.mean, stderr=acc.stderr, n=acc.n, seed=seed, label=label)
