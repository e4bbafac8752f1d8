"""Seeded Monte Carlo estimation of expected efficiency and revenue.

A column is its name: `eff_ema`, `eff_rma`, `rev_ema` or `rev_rma` is the
efficiency or revenue of the t-item second-price rule at reserve 0 (EMA,
the efficiency-maximizing auction) or at the monopoly reserve (RMA, the
reserve-price auction). An estimator declares one row of columns per
comparison, `{name: width}`, each reading the first `width` values of a
trial's draw, and `_estimates`, the one scan, reduces each row to the
first and second cross moments of its columns. A row's columns share each
trial's draw, so EMA(k) against RMA(k+extra) sees the first k of the same
k+extra values, and a difference inherits the positive correlation of
these common random numbers.

Each estimator returns one `{name: Estimate}` per row, in the CSV's words:
each column's mean and any difference or ratio of two columns the row
declares, a ratio with a delta-method standard error. `_estimates` checks
each input where the scan reads it, so a front end checks only its own
`extra`.

Both mechanisms read one value stack per width: the t highest values,
highest first, then the (t+1)-th, which only sets the price and is kept
only when one of a row's columns reads revenue. Every `quantile` is
nondecreasing (a `ValueDistribution` contract), so it maps the order
statistics of the uniforms onto those of the values: `_select` keeps each
row's top uniforms in registers, updated in place, through one
compare-exchange pass over the columns, and maps them through `quantile`
into a stack at every width the row declares. `_second_price` turns a
stack into per-trial efficiency, and revenue when asked, under one rule,
once per distinct `(width, reserve)` of a row. It adds the winners
highest first, as the per-bid reference `auctions.ema`/`auctions.rma` do;
at reserve 0 every value clears, so EMA columns skip the winner masks.

Reproducibility contract: trials are partitioned into fixed batches of
16384; batch b draws its uniforms from a Philox counter-based stream at
counter b << 192 under the run's seed. The stream is one flat run of
doubles, and a row of widest width n reads its first trials*n as a
(trials, n) matrix, exactly what drawing that shape alone gives; so one
draw per batch at the widest width feeds every row of an experiment. The
seed is an integer in [0, 2**64), the Philox key. Every trial's draws are
therefore a pure function of (seed, trial index, width), and partial sums
are merged per row in batch order, so results are bitwise identical for
any worker count and for any set of rows run together. The MECH_EFF_THREADS
environment variable, the only thread control, is read on every call and
caps the thread pool; absent, the pool has one thread per CPU in the
process's affinity mask, at most 8. One pool per cap lives as long as the
process (a forked child drops the ones it inherits, whose threads it does
not have), and a cap of 1 runs the batches inline, in order, on the
calling thread. Each thread that runs batches keeps a workspace of two
64-byte-aligned buffers, each grown to the largest size asked of it and
then reused: the batch's draw, and the row buffer, which each row in turn
fills with `_select`'s transposed copy, spare row and register stack, and
then `_second_price`'s rows and the matrix of its columns. So a warm
batch's only large allocations are what `quantile` returns, and no row
temporary goes back to the allocator to be fetched again.

The bytes are fixed per numpy build, SIMD dispatch and BLAS kernel: the
`Exponential` and `GFamily` quantiles use numpy's SIMD `log`/`exp`. Each
batch's column sums run in trial order through `einsum`, bit for bit
`sum(axis=0)` on a row of two or more columns, so only the BLAS kernel of
its cross-moment product (picked for the CPU, or by `OPENBLAS_CORETYPE`)
sets the standard errors' last digits.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .distributions import ValueDistribution

BATCH_TRIALS = 1 << 14

# name: (statistic, 0 efficiency or 1 revenue; priced at the monopoly reserve)
_COLUMNS = {"eff_ema": (0, False), "eff_rma": (0, True), "rev_ema": (1, False), "rev_rma": (1, True)}

_POOLS = {}  # one ThreadPoolExecutor per thread cap
_WORKSPACE = threading.local()


def _forget_inherited():
    # an inherited executor has no live threads in the child: a map on it hangs
    _POOLS.clear()
    vars(_WORKSPACE).clear()


if hasattr(os, "register_at_fork"):  # POSIX only; without fork nothing is inherited
    os.register_at_fork(after_in_child=_forget_inherited)


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate with its standard error: a column's mean, a
    declared difference's mean or a declared ratio of two columns' means."""

    value: float
    std_err: float


def _resolve_threads():
    env = os.environ.get("MECH_EFF_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            threads = 0
        if threads < 1:
            raise ValueError(f"MECH_EFF_THREADS must be a positive integer, got {env!r}")
        return threads
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


def _pool(threads):
    # imported here, so that a process that runs inline never loads the pool
    from concurrent.futures import ThreadPoolExecutor

    pool = _POOLS.get(threads)
    if pool is None:  # a racing caller's spare executor never starts a thread
        pool = _POOLS.setdefault(threads, ThreadPoolExecutor(max_workers=threads))
    return pool


def _workspace(name, size):
    """This thread's buffer `name` as `size` float64s, 64-byte aligned; it
    grows to the largest size asked and is then reused."""
    buffers = vars(_WORKSPACE)
    buffer = buffers.get(name)
    if buffer is None or buffer.size < size:
        raw = np.empty(size + 7)
        skip = -raw.ctypes.data % 64 // raw.itemsize
        buffer = buffers[name] = raw[skip : skip + size]
    return buffer[:size]


def _batch_uniforms(seed: int, batch_index: int, size, out=None):
    """Batch `batch_index`'s uniforms, of shape `size`; written into `out`,
    of that shape, when given, with the same bits."""
    bitgen = np.random.Philox(key=seed, counter=batch_index << 192)
    return np.random.Generator(bitgen).random(size, out=out)


def _estimates(dist, t, rows, n_trials, seed, diffs=(), ratios=()):
    """One `{name: Estimate}` per row of named columns, in order: the scan.

    Each row maps column names to widths; `_COLUMNS` gives each name its
    statistic and reserve, 0 or `dist.reserve`, read only for an RMA column.
    A batch draws once, at the widest width; each row selects once, at its
    distinct widths, prices each distinct `(width, reserve)` once and
    reduces to column sums and cross products, added into the first
    batch's in batch order. Each name gets its column's mean; each declared
    difference `(name, a, b)` the mean of a minus b per trial, its standard
    error from the per-trial differences, so the shared draws cancel; each
    declared ratio `(name, a, b)` a's mean over b's.

    Every input is checked here, where the scan reads it: at least one
    row, t >= 1, two or more columns per row (the einsum column sums match
    `sum(axis=0)` bit for bit only there), every name one of the four
    columns, every width >= 1, a seed in [0, 2**64) and n_trials >= 2, the
    fewest that give a variance estimate. So is the value scale: a column
    or difference with a nonzero sum needs a finite mean square of at least
    the smallest normal float, and a ratio a finite variance, or the
    squares lost their bits and a standard error would read 0.
    """
    if not rows:
        raise ValueError("need at least one row")
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    if any(len(row) < 2 for row in rows):
        raise ValueError("every row needs at least two columns")
    if any(name not in _COLUMNS for row in rows for name in row):
        raise ValueError(f"every column must be one of {', '.join(_COLUMNS)}")
    if any(width < 1 for row in rows for width in row.values()):
        raise ValueError("every width must be at least 1")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if n_trials < 2:
        raise ValueError(f"n_trials must be at least 2 for a variance estimate, got {n_trials}")
    n_batches = -(-n_trials // BATCH_TRIALS)
    widest = max(width for row in rows for width in row.values())
    reserve = dist.reserve if any(_COLUMNS[name][1] for row in rows for name in row) else 0.0
    reserve_and_stat = {name: (reserve if rma else 0.0, stat) for name, (stat, rma) in _COLUMNS.items()}
    declared = [[(width, *reserve_and_stat[name]) for name, width in row.items()] for row in rows]

    def buffer_rows(row):
        # the row buffer's size in rows of a batch's trials: `_select`'s copy
        # of the widest width, spare row and registers, or after it the
        # statistics and `_second_price`'s rows
        revenue = any(stat for _, _, stat in row)
        return max(max(w for w, _, _ in row) + 1 + t, len(row) + 2) + revenue

    def columns(flat, trials, row, buffer):
        # a frame of its own: the selections are freed on return, before the
        # moments are taken
        widths = {w for w, _, _ in row}
        n = max(widths)
        revenue = any(stat for _, _, stat in row)
        stacks = _select(flat[: trials * n].reshape(trials, n), t + revenue, dist.quantile, widths, buffer)
        # `_select` is done with the buffer: the statistics take it over
        stats = buffer[: len(row) * trials].reshape(trials, len(row))
        out = buffer[len(row) * trials : (len(row) + 2 + revenue) * trials].reshape(2 + revenue, trials)
        for w, r in dict.fromkeys((w, r) for w, r, _ in row):  # distinct, in declared order
            priced = _second_price(stacks[w], t, r, revenue, out)
            for i, column in enumerate(row):
                if column[:2] == (w, r):  # computed contiguously, then copied into its column
                    stats[:, i] = priced[column[2]]
        return stats

    def one(b):
        trials = min(BATCH_TRIALS, n_trials - b * BATCH_TRIALS)
        size = trials * widest
        flat = _batch_uniforms(seed, b, size, out=_workspace("draw", size))
        # one buffer for every row, at the largest, so it grows at most once a call
        buffer = _workspace("row", max(map(buffer_rows, declared)) * trials)
        out = []
        for row in declared:
            stats = columns(flat, trials, row, buffer)
            # stats.sum(axis=0)'s trial-order sum, without its row-at-a-time loop;
            # a square past float64's range is refused by name in `_estimate`
            with np.errstate(over="ignore"):
                out.append((np.einsum("ij->j", stats), stats.T @ stats))
        return out

    threads = _resolve_threads()
    parts = (map if threads == 1 else _pool(threads).map)(one, range(n_batches))
    sums = next(parts)
    for part in parts:  # fixed batch order keeps the reduction deterministic
        for (s1, s2), (p1, p2) in zip(sums, part):
            s1 += p1
            s2 += p2
    results = []
    for row, (s1, s2) in zip(rows, sums):
        index = {name: i for i, name in enumerate(row)}
        result = {name: _estimate(s1[i], s2[i, i], n_trials, name) for name, i in index.items()}
        for name, a, b in diffs:
            i, j = index[a], index[b]  # s2[i, j] is s2[j, i]: `stats.T @ stats` is symmetric
            result[name] = _estimate(s1[i] - s1[j], s2[i, i] + s2[j, j] - 2.0 * s2[i, j], n_trials, name)
        for name, a, b in ratios:
            result[name] = _ratio(s1, s2, n_trials, index[a], index[b], name)
        results.append(result)
    return tuple(results)


def _estimate(s1_i, s2_ii, n, name) -> Estimate:
    # Python floats: a square past float64's range reads inf or nan, no warning
    mean, square = float(s1_i) / n, float(s2_ii) / n
    var = (float(s2_ii) - n * mean * mean) / (n - 1)
    if not math.isfinite(var) or (s1_i != 0.0 and square < np.finfo(float).smallest_normal):
        raise ValueError(f"{name}'s mean square {square:.3g} is past float64's normal range; rescale")
    return Estimate(value=mean, std_err=math.sqrt(max(0.0, var) / n))


def _cov(s1, s2, n, i, j) -> float:
    return float((s2[i, j] - s1[i] * s1[j] / n) / (n - 1))


def _ratio(s1, s2, n, num, den, name) -> Estimate:
    """Column num's mean over column den's, with the delta-method standard
    error from their coupled covariance. A zero numerator gives 0; a zero
    denominator raises ValueError, since the ratio is then undefined."""
    means = s1 / n
    if means[den] == 0.0:
        raise ValueError(f"{name} is undefined: its denominator's mean over {n} trials is 0")
    ratio = means[num] / means[den]
    v_num = _cov(s1, s2, n, num, num)
    v_den = _cov(s1, s2, n, den, den)
    c_nd = _cov(s1, s2, n, num, den)
    var_ratio = (v_num + ratio * ratio * v_den - 2.0 * ratio * c_nd) / (means[den] * means[den] * n)
    if not math.isfinite(var_ratio):
        raise ValueError(f"{name}'s variance {var_ratio} is not finite in float64; rescale")
    return Estimate(value=float(ratio), std_err=math.sqrt(max(0.0, var_ratio)))


def _select(u, depth, quantile, widths, buffer):
    """Per prefix `u[:, :w]` of the uniforms, its value stack: each row's
    min(depth, w) highest values, highest first, stacked as rows, so value
    i of every trial is the contiguous row `values[i]`.

    `widths` are distinct; the result maps each to its stack. One pass over
    the columns keeps each row's top `depth` uniforms in registers, highest
    first, by compare-exchange with `np.maximum` and `np.minimum` (Knuth,
    TAOCP vol. 3, 5.3.4), which select exactly the values a sort would: d
    registers take 2d-1 calls per column, and the top registers hold the
    same bits at any depth. `quantile` is nondecreasing, so it maps the
    registers onto the values' top `depth`, and only those rows are mapped.

    A call allocates nothing but what `quantile` returns. It works in
    `buffer`, a float64 array of at least n + 1 + depth rows of `len(u)`
    for the n columns of `u`: `_estimates` passes this thread's row buffer,
    which it then hands to the row's statistics. The pass walks a
    transposed copy of `u` there, so `u` is never written. Each
    compare-exchange writes the larger value into a spare row, which then
    trades places with the register it replaces, and the smaller back into
    the incoming column's own row; a new register is that row. At each
    width the registers are stacked after the spare row, and `quantile`
    maps that stack to the width's values. A `quantile` may return its
    input, and then the width gets a copy: no stack aliases `buffer`, which
    the next width and the buffer's next user overwrite.
    """
    trials, n = u.shape
    regs, stacks = [], {}
    columns = buffer[: n * trials].reshape(n, trials)
    spare = buffer[n * trials : (n + 1) * trials]
    np.copyto(columns, u.T)
    for j, x in enumerate(columns, 1):
        for i, reg in enumerate(regs):
            if i == depth - 1:  # the last register only keeps the larger
                np.maximum(reg, x, out=reg)
                break
            np.maximum(reg, x, out=spare)
            np.minimum(reg, x, out=x)
            regs[i], spare = spare, reg
        else:  # fewer columns seen than registers: x is the lowest so far
            regs.append(x)
        if j in widths:
            stack = buffer[(n + 1) * trials : (n + 1 + len(regs)) * trials].reshape(len(regs), trials)
            values = quantile(np.stack(regs, out=stack))
            stacks[j] = values.copy() if np.may_share_memory(values, buffer) else values
    return stacks


def _second_price(values, t, reserve, revenue, out):
    """Per-trial efficiency, and revenue if `revenue`, when the top t bidders
    of a value stack at or above the reserve (0 for EMA) win and pay
    max(reserve, runner-up). The winners are `values[:t]`; the runner-up is
    `values[t]`, or 0 when the stack has t rows or fewer, and is read only
    for revenue, which is None otherwise. The results are rows of `out`, a
    float64 array of 2 + `revenue` rows as long as the stack's: efficiency
    in row 0, revenue in row 1, which until then holds each masked product,
    and the winner count in row 2. A one-winner EMA result is instead a view
    of its input row, the one place its values already are.

    The winners are added row by row, highest first, in `auctions`' order
    for every t; numpy's sum over the rows would add 8 or more terms
    pairwise. Each winner's mask multiplies its value: a `quantile` value
    is finite and at least +0.0, so `value * cleared` is
    `np.where(cleared, value, 0.0)` bit for bit. At reserve 0 (EMA) that
    premise makes every winner clear, so the masks are skipped: efficiency
    is the plain highest-first sum and revenue the runner-up times the
    winner count, the same bits as the masked form. Every operation writes
    into `out` what a fresh array would hold, bit for bit."""
    eff, rev = out[0], out[1]
    winners = iter(values[:t])
    value = next(winners)
    if reserve == 0.0:
        won = min(t, len(values))
        eff = value if won == 1 else np.add(value, next(winners), out=eff)
        for value in winners:
            eff += value
    else:
        cleared = value >= reserve
        np.multiply(value, cleared, out=eff)
        if revenue:
            won = out[2]
            np.copyto(won, cleared)
        for value in winners:
            cleared = value >= reserve
            eff += np.multiply(value, cleared, out=rev)
            if revenue:
                won += cleared
    if not revenue:
        return eff, None
    if len(values) > t:
        runner_up = values[t]
    else:  # no runner-up bids: it counts as 0
        runner_up = rev
        runner_up.fill(0.0)
    if reserve == 0.0:
        return eff, runner_up if won == 1 else np.multiply(runner_up, float(won), out=rev)
    np.maximum(reserve, runner_up, out=rev)
    return eff, np.multiply(won, rev, out=rev)


def estimate_mechanism(
    dist: ValueDistribution,
    n_bidders: int,
    t: int,
    mechanism: str,
    n_trials: int,
    seed: int,
) -> dict[str, Estimate]:
    """Mean efficiency and revenue of one mechanism, "ema" or "rma", over
    i.i.d. value draws, as `eff_<mechanism>` and `rev_<mechanism>`."""
    row = {f"eff_{mechanism}": n_bidders, f"rev_{mechanism}": n_bidders}
    return _estimates(dist, t, [row], n_trials, seed)[0]


def paired_compare(
    dist: ValueDistribution,
    pairs: Sequence[tuple[int, int]],
    t: int,
    n_trials: int,
    seed: int,
) -> tuple[dict[str, Estimate], ...]:
    """Couple EMA(t) on the first k draws with RMA(t) on all k+extra.

    One row per (k, extra) pair, in order, all from one scan of the draws:
    the efficiency marginals `eff_ema` and `eff_rma`, and `diff`, which
    estimates Eff(RMA(k+extra)) - Eff(EMA(k)) on common draws.
    """
    if any(extra < 0 for _, extra in pairs):
        raise ValueError("extra must be at least 0")
    rows = [{"eff_ema": k, "eff_rma": k + extra} for k, extra in pairs]
    return _estimates(dist, t, rows, n_trials, seed, diffs=[("diff", "eff_rma", "eff_ema")])


def revenue_compare_bk(
    dist: ValueDistribution,
    ks: Sequence[int],
    n_trials: int,
    seed: int,
) -> tuple[dict[str, Estimate], ...]:
    """Rev(EMA(k+1)) against Rev(RMA(k)) on common draws.

    One row per k, in order, all from one scan of the draws: the revenue
    marginals `rev_ema` (k+1 bidders) and `rev_rma` (k bidders), and
    `diff` = rev_ema - rev_rma. One extra bidder for the
    efficiency-maximizing auction is expected to recover at least the
    reserve-price auction's revenue for regular value distributions.
    """
    rows = [{"rev_ema": k + 1, "rev_rma": k} for k in ks]
    return _estimates(dist, 1, rows, n_trials, seed, diffs=[("diff", "rev_ema", "rev_rma")])


def efficiency_ratio(
    dist: ValueDistribution,
    ks: Sequence[int],
    n_trials: int,
    seed: int,
) -> tuple[dict[str, Estimate], ...]:
    """Eff(RMA(k))/Eff(EMA(k)) and Rev(EMA(k))/Rev(RMA(k)) at equal k.

    One row per k, in order, all from one scan of the draws: the marginals
    `eff_ema`, `eff_rma`, `rev_ema` and `rev_rma`, and `eff_ratio` =
    eff_rma/eff_ema and `rev_ratio` = rev_ema/rev_rma. Both mechanisms see
    the same k draws per trial. The efficiency ratio is at least
    1 - (1-1/e)^k for nondecreasing-hazard distributions; the revenue ratio
    is at least 1 - (1-1/e)^(k-1).
    """
    rows = [{"eff_ema": k, "eff_rma": k, "rev_ema": k, "rev_rma": k} for k in ks]
    ratios = [("eff_ratio", "eff_rma", "eff_ema"), ("rev_ratio", "rev_ema", "rev_rma")]
    return _estimates(dist, 1, rows, n_trials, seed, ratios=ratios)
