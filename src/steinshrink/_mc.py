"""Monte Carlo plumbing: substream seeding, chunking, streaming moments.

`run` is the one streaming engine: every Monte Carlo estimate in the
package is a mean of per-row statistics over one seeded stream, whether
its rows are plain draws X or joint draws (X, X^i) of a zero-bias coupling
or a Stein kernel (`zero_bias.JointChunk`).  A stream is a `draw(rng, rows,
empty)` over a chunk partition fixed by (n, width).  Each chunk's rows are
cut into draw tasks of about `_DRAW_TASK` doubles, a layout fixed by (rows,
d), and task k draws from its own substream, spawn key (chunk index, k),
task 0 from the chunk's own: a chunk of one task draws what a serial draw
of the chunk would.  `_DRAW_TASK` is part of the stream's definition, not
a tuning constant.  `draw_parts` draws the same parts for the callers that
keep the draws.

The tasks run in turn on threads started by `_in_turn`.  A statistic that
builds several `(rows, d)` temporaries per row is wrapped by `in_blocks`,
which evaluates it one row block of `_BLOCK` doubles (for a joint chunk or
a statistic of many numpy calls, at least `_JOINT_BLOCK_ROWS` rows) at a
time, so its temporaries stay near cache and no task-sized one is made.
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


def substream(seed: int, index: int, task: int = 0) -> np.random.Generator:
    """Generator for draw task `task` of chunk `index` of the stream `seed`:
    spawn key (index,) for task 0, the chunk's own substream, and
    (index, task) for the others."""
    key = (int(index),) if task == 0 else (int(index), int(task))
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


# Doubles of a chunk per draw task: task k of chunk i is drawn from its own
# stream, `substream(seed, i, k)`, so this constant defines the random
# stream (changing it changes the bytes), and it is not a tuning constant.
# A task is about 2 MB, and a full chunk of `_CHUNK_BUDGET` doubles makes 32.
_DRAW_TASK = 1 << 18
# Draw tasks per thread: a draw of up to 4 tasks (2^20 doubles) stays on the
# calling thread, and each further thread comes with up to 4 more tasks.  A
# thread saved nothing on so few 2-7 ms tasks while another process held its
# core, so it made wall times swing (README, "Determinism and concurrency").
_DRAW_TASKS_PER_THREAD = 4


# Doubles per `(rows, d)` array of a row block of `in_blocks`, 128 KB, chosen
# by measurement: with 2^15 the `sure --select-lambda` op at d = 1024 took
# about 25,000 minor page faults against 1,300, as malloc gave each larger
# block fresh pages.  A row-local statistic's values do not depend on it, so
# it is a tuning constant; see `_block_cuts` for BLAS products.
_BLOCK = 1 << 14
# Rows of a block are a multiple of this when a block holds two such groups,
# and else of 4 when it holds 8 rows: a BLAS matrix-vector product takes its
# rows in groups of 4, and aligned blocks keep each row in the group it has
# in the whole part.
_BLOCK_ALIGN = 16
# Least rows of a block, so past `_BLOCK` doubles at d > 256.  The blocked
# statistics (identity residuals, B*, Tr T and ||T - Sigma||^2, a binary
# search per row for the select-lambda grid) make many numpy calls for little
# work per element, and on two threads short blocks serialise on the GIL;
# README, "The Monte Carlo engine", has the timings.
_JOINT_BLOCK_ROWS = 64


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def draw_tasks(seed: int, index: int, rows: int, d: int, draw) -> list:
    """`draw(rng, a, b)` for rows a:b of each draw task of chunk `index`, a
    (rows, d) chunk of the stream `seed`, in row order.  The layout is fixed
    by (rows, d) (`_draw_cuts`) and task k draws from `substream(seed, index,
    k)`, on one of up to `_usable_cores()` threads, one per
    `_DRAW_TASKS_PER_THREAD` tasks or fewer, so no draw depends on the cores."""
    cuts = _draw_cuts(rows, d)
    parts = [None] * (len(cuts) - 1)

    def task(k):
        parts[k] = draw(substream(seed, index, k), cuts[k], cuts[k + 1])

    _in_turn(len(parts), min(_usable_cores(), -(-len(parts) // _DRAW_TASKS_PER_THREAD)), task)
    return parts


def _in_turn(tasks: int, threads: int, do) -> None:
    """`do(k)` for the tasks k = 0..tasks-1, on `threads` threads.

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


def run(n: int, seed: int, d: int, draw, values, width: int | None = None) -> dict:
    """One pass over n rows of the stream `seed`: the accumulators, by name,
    of the per-row values `values(part)` of every draw task's part.

    The chunks are `chunk_plan(n, width)` (width d if None), each cut into
    the draw tasks of (rows, d).  Task k of chunk i draws its part, an array
    or a `JointChunk`, by `draw(substream(seed, i, k), rows, empty)` and
    evaluates `values` on it at once; `empty(shape)` hands out the buffers
    of a finished task, so a pass holds one task's rows per thread, never a
    chunk, and a statistic wrapped by `in_blocks` adds one row block of its
    temporaries.  A value that shares memory with such a buffer is copied before
    the buffer is handed out again.  The tasks' values are joined in row
    order, with one accumulator update per chunk in chunk order, so nothing
    depends on the core count.  All statistics see the same part, so paired
    estimates share their random numbers.  `values` must give each row a
    value that depends on that row alone, bit for bit, and must not change
    shared state.
    """
    accs = {}
    free = []  # the buffers of finished tasks, one list per task

    def task(rng, a, b):
        try:
            reuse = free.pop()
        except IndexError:  # every task's buffers are in use
            reuse = []
        taken = []

        def empty(shape):
            size = math.prod(shape)
            buf = reuse.pop(0) if reuse else None
            if buf is None or buf.size < size:
                del buf  # let go of it before its larger successor is made
                # room for one more row: a chunk's tasks differ by a row at most
                buf = np.empty(size + size // shape[0])
            taken.append(buf)
            return buf[:size].reshape(shape)

        part = values(draw(rng, b - a, empty))
        # a value that is a view of a buffer must not see the next task's draw
        part = {name: v.copy() if any(np.may_share_memory(v, buf) for buf in taken) else v
                for name, v in part.items()}
        free.append(taken)
        return part

    for idx, rows in chunk_plan(n, width or d):
        parts = draw_tasks(seed, idx, rows, d, task)
        for name in parts[0]:
            accs.setdefault(name, Accumulator()).add(np.concatenate([part[name] for part in parts]))
    return accs


def in_blocks(values, cut=None, width=0):
    """`values` evaluated on consecutive row blocks of a part, its per-row
    values joined in row order: the same values, bit for bit, for a
    row-local statistic, with temporaries of one block instead of one draw
    task.  A part is an array, sliced as `part[a:b]`, or a joint chunk,
    sliced by `part.rows(a, b)`; the blocks are `_block_cuts` of a part
    max(d, `width`) wide, so a statistic with temporaries wider than a row
    (the select-lambda grid's (rows, G) arrays) names their width, and of
    at least `_JOINT_BLOCK_ROWS` rows.  A part for which `cut(part)` is
    false is evaluated whole: blocks of a statistic that builds no
    `(rows, d)` array on it would only add calls."""

    def blocked(part):
        plain = isinstance(part, np.ndarray)
        rows, d = (part if plain else part.X).shape
        cuts = _block_cuts(rows, max(d, width), _JOINT_BLOCK_ROWS)
        if len(cuts) == 2 or (cut is not None and not cut(part)):
            return values(part)
        blocks = [values(part[a:b] if plain else part.rows(a, b)) for a, b in zip(cuts, cuts[1:])]
        return {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}

    return blocked


def _block_cuts(rows: int, d: int, least: int = 1) -> list[int]:
    """Row bounds of the blocks of a (rows, d) part: `_BLOCK // d` rows each,
    or `least` if more, rounded down to a multiple of `_BLOCK_ALIGN` rows
    where a block holds two of them and of 4 rows where it holds 8, but the
    last two, which share what is left.  So no block exceeds `_BLOCK`
    doubles or `least` rows, and none is shorter than about half a block
    unless the part is: a BLAS product of a few rows takes another kernel,
    whose last bits differ from those of the same rows in a taller product."""
    step = max(least, _BLOCK // d)
    align = _BLOCK_ALIGN if step >= 2 * _BLOCK_ALIGN else 4 if step >= 8 else 1
    step -= step % align
    if rows <= step:
        return [0, rows]
    cuts = list(range(0, rows - step, step))
    left = rows - cuts[-1]  # the last two blocks' rows: step < left <= 2 step
    # the first of the two is aligned, near half of `left`, and leaves at most a step
    half = max(left // 2 - left // 2 % align, -(-(left - step) // align) * align)
    return cuts + [cuts[-1] + half, rows]


def draw_parts(n: int, seed: int, d: int, draw, width: int | None = None) -> list:
    """Every draw task's part of n rows of the stream `seed`, in row order,
    each `draw(rng, rows, np.empty)` in memory of its own: the draws of
    `run`, for callers that keep them."""
    return [part for idx, rows in chunk_plan(n, width or d)
            for part in draw_tasks(seed, idx, rows, d, lambda rng, a, b: draw(rng, b - a, np.empty))]


def _draw_cuts(rows: int, d: int) -> list[int]:
    """Row bounds of the draw tasks of a (rows, d) chunk, about `_DRAW_TASK`
    doubles each: a layout fixed by (rows, d) alone."""
    tasks = max(1, min(rows, rows * d // _DRAW_TASK))
    return [rows * k // tasks for k in range(tasks + 1)]


def report_from(acc: Accumulator, seed: int, label: str = "") -> RiskReport:
    return RiskReport(mean=acc.mean, stderr=acc.stderr, n=acc.n, seed=seed, label=label)
