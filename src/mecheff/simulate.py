"""Seeded Monte Carlo estimation of expected efficiency and revenue.

Every estimate reads declared columns `(width, reserve, stat)`: the
t-item second-price rule at `reserve` (0 for the efficiency-maximizing
auction, the monopoly reserve for the reserve-price auction) on the first
`width` values of a trial's draw, `stat` 0 for efficiency and 1 for
revenue. An estimator declares one row of columns per comparison, and
`_moment_scan` reduces each row to the first and second cross moments of
its columns. A row's columns share each trial's draw, so EMA(k) against
RMA(k+extra) sees the first k of the same k+extra values, and the
difference estimator inherits the positive correlation of these common
random numbers.

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
64-byte-aligned buffers, the batch's draw and `_select`'s transposed copy,
grown to the largest batch it has seen and then reused, so a batch
allocates neither.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import ValueDistribution, reserve_price

BATCH_TRIALS = 1 << 14

_MECHANISMS = ("ema", "rma")

_POOLS: dict[int, ThreadPoolExecutor] = {}  # one per thread cap
_WORKSPACE = threading.local()


def _forget_inherited():
    # an inherited executor has no live threads in the child: a map on it hangs
    _POOLS.clear()
    vars(_WORKSPACE).clear()


if hasattr(os, "register_at_fork"):  # POSIX only; without fork nothing is inherited
    os.register_at_fork(after_in_child=_forget_inherited)


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_err: float


@dataclass(frozen=True)
class MechanismEstimate:
    """Efficiency and revenue estimates from one mechanism run."""

    efficiency: Estimate
    revenue: Estimate


@dataclass(frozen=True)
class PairedEstimate:
    """Difference of two coupled estimates plus both marginals.

    `ema` and `rma` hold the marginal of each mechanism; whether that is
    efficiency or revenue, and which way the difference runs, is stated
    by the function that returns the estimate.
    """

    diff_mean: float
    diff_std_err: float
    ema: Estimate
    rma: Estimate


@dataclass(frozen=True)
class RatioEstimate:
    """Efficiency and revenue ratios of the two mechanisms at equal k.

    eff_ratio = Eff(RMA(k))/Eff(EMA(k)); rev_ratio = Rev(EMA(k))/Rev(RMA(k)).
    Standard errors are delta-method values using the coupled covariance.
    """

    eff_ratio: float
    eff_ratio_std_err: float
    rev_ratio: float
    rev_ratio_std_err: float


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


def _moment_scan(dist, t, rows, n_trials, seed):
    """First and second cross moments of each row's declared columns.

    Each row is a sequence of columns `(width, reserve, stat)`: the t-item
    second-price rule at `reserve` on the first `width` values of the
    trial's draw, `stat` 0 for efficiency and 1 for revenue. Each batch
    draws its uniforms once, at the widest width of any row; each row
    selects once, at its distinct widths, and prices each distinct
    `(width, reserve)` once. A row's stacks have depth t+1, and so hold
    the (t+1)-th value that sets the price, when one of its columns reads
    revenue, and depth t otherwise. Returns one (sum vector, cross-product
    matrix) per row, in order, with the columns in their declared order. A
    row needs two or more columns: the column sums match `sum(axis=0)` bit
    for bit only there.
    """
    if any(len(row) < 2 for row in rows):
        raise ValueError("every row needs at least two columns")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    n_batches = -(-n_trials // BATCH_TRIALS)
    widest = max(width for row in rows for width, _, _ in row)

    def columns(flat, trials, row):
        # a frame of its own: the selections and the unused statistics are
        # freed on return, before the columns are stacked
        widths = {w for w, _, _ in row}
        n = max(widths)
        revenue = any(stat for _, _, stat in row)
        stacks = _select(flat[: trials * n].reshape(trials, n), t + revenue, dist.quantile, widths)
        rules = dict.fromkeys((w, r) for w, r, _ in row)  # distinct, in declared order
        priced = {(w, r): _second_price(stacks[w], t, r, revenue) for w, r in rules}
        return [priced[w, r][stat] for w, r, stat in row]

    def one(b):
        trials = min(BATCH_TRIALS, n_trials - b * BATCH_TRIALS)
        size = trials * widest
        flat = _batch_uniforms(seed, b, size, out=_workspace("draw", size))
        out = []
        for row in rows:
            stats = np.column_stack(columns(flat, trials, row))
            # stats.sum(axis=0)'s trial-order sum, without its row-at-a-time loop
            out.append((np.einsum("ij->j", stats), stats.T @ stats))
        return out

    threads = _resolve_threads()
    if threads == 1:
        parts = [one(b) for b in range(n_batches)]
    else:
        parts = list(_pool(threads).map(one, range(n_batches)))

    moments = [(s1.copy(), s2.copy()) for s1, s2 in parts[0]]
    for part in parts[1:]:  # fixed batch order keeps the reduction deterministic
        for (s1, s2), (p1, p2) in zip(moments, part):
            s1 += p1
            s2 += p2
    return moments


def _estimate(s1_i, s2_ii, n) -> Estimate:
    mean = s1_i / n
    var = (s2_ii - n * mean * mean) / (n - 1) if n > 1 else 0.0
    return Estimate(mean=float(mean), std_err=math.sqrt(max(0.0, var) / n))


def _cov(s1, s2, n, i, j) -> float:
    if n < 2:
        return 0.0
    return float((s2[i, j] - s1[i] * s1[j] / n) / (n - 1))


def _paired(s1, s2, n, a) -> PairedEstimate:
    """Paired estimate of column a minus column 1-a; column 0 is EMA's, 1 RMA's."""
    b = 1 - a
    diff = _estimate(s1[a] - s1[b], s2[a, a] + s2[b, b] - 2.0 * s2[0, 1], n)
    return PairedEstimate(
        diff_mean=diff.mean,
        diff_std_err=diff.std_err,
        ema=_estimate(s1[0], s2[0, 0], n),
        rma=_estimate(s1[1], s2[1, 1], n),
    )


def _select(u, depth, quantile, widths):
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

    The pass allocates nothing per column. It walks a transposed copy of
    `u` kept in this thread's workspace, so `u` is never written and a call
    allocates only one spare row and its stacks. Each compare-exchange
    writes the larger value into the spare row, which then trades places
    with the register it replaces, and the smaller back into the incoming
    column's own row; a new register is that row. Each width gets a fresh
    stack, since `quantile` may return its input, and no stack aliases the
    workspace, which the thread's next call overwrites.
    """
    regs, stacks = [], {}
    spare = np.empty(len(u))
    columns = _workspace("columns", u.size).reshape(u.shape[::-1])
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
            stacks[j] = np.asarray(quantile(np.stack(regs)))
    return stacks


def _second_price(values, t, reserve, revenue):
    """Per-trial efficiency, and revenue if `revenue`, when the top t bidders
    of a value stack at or above the reserve (0 for EMA) win and pay
    max(reserve, runner-up). The winners are `values[:t]`; the runner-up is
    `values[t]`, or 0 when the stack has t rows or fewer, and is read only
    for revenue, which is None otherwise.

    The winners are added row by row, highest first, in `auctions`' order
    for every t; numpy's sum over the rows would add 8 or more terms
    pairwise. Each winner's mask multiplies its value: a `quantile` value
    is finite and at least +0.0, so `value * cleared` is
    `np.where(cleared, value, 0.0)` bit for bit. At reserve 0 (EMA) that
    premise makes every winner clear, so the masks are skipped: efficiency
    is the plain highest-first sum and revenue the runner-up times the
    winner count, the same bits as the masked form. A one-row result may be
    a view of the input."""
    winners = iter(values[:t])
    value = next(winners)
    if reserve == 0.0:
        won = min(t, len(values))
        eff = value if won == 1 else value + next(winners)
        for value in winners:
            eff += value
    else:
        cleared = value >= reserve
        eff = value * cleared
        won = cleared.astype(float) if revenue else None
        for value in winners:
            cleared = value >= reserve
            eff += value * cleared
            if revenue:
                won += cleared
    if not revenue:
        return eff, None
    runner_up = values[t] if len(values) > t else np.zeros(values.shape[1])
    if reserve == 0.0:
        return eff, runner_up if won == 1 else runner_up * float(won)
    return eff, won * np.maximum(reserve, runner_up)


def estimate_mechanism(
    dist: ValueDistribution,
    n_bidders: int,
    t: int,
    mechanism: str,
    n_trials: int,
    seed: int,
) -> MechanismEstimate:
    """Mean efficiency and revenue of one mechanism over i.i.d. value draws."""
    if n_bidders < 1 or t < 1:
        raise ValueError("n_bidders and t must be at least 1")
    mech = mechanism.lower()
    if mech not in _MECHANISMS:
        raise ValueError(f"mechanism must be one of {_MECHANISMS}, got {mechanism!r}")
    reserve = reserve_price(dist) if mech == "rma" else 0.0
    row = ((n_bidders, reserve, 0), (n_bidders, reserve, 1))
    [(s1, s2)] = _moment_scan(dist, t, [row], n_trials, seed)
    return MechanismEstimate(
        efficiency=_estimate(s1[0], s2[0, 0], n_trials),
        revenue=_estimate(s1[1], s2[1, 1], n_trials),
    )


def paired_compare(
    dist: ValueDistribution,
    pairs: Sequence[tuple[int, int]],
    t: int,
    n_trials: int,
    seed: int,
) -> tuple[PairedEstimate, ...]:
    """Couple EMA(t) on the first k draws with RMA(t) on all k+extra.

    One estimate per (k, extra) pair, in order, all from one scan of the
    draws. diff_mean estimates Eff(RMA(k+extra)) - Eff(EMA(k)) on common
    draws; its standard error uses the per-trial differences directly, so
    the shared randomness cancels instead of inflating the noise. `ema` and
    `rma` hold the two efficiency marginals.
    """
    if not pairs or t < 1 or any(k < 1 or extra < 0 for k, extra in pairs):
        raise ValueError("need k >= 1, extra >= 0, t >= 1")
    r = reserve_price(dist)
    rows = [((k, 0.0, 0), (k + extra, r, 0)) for k, extra in pairs]
    moments = _moment_scan(dist, t, rows, n_trials, seed)
    return tuple(_paired(s1, s2, n_trials, a=1) for s1, s2 in moments)


def revenue_compare_bk(
    dist: ValueDistribution,
    ks: Sequence[int],
    n_trials: int,
    seed: int,
) -> tuple[PairedEstimate, ...]:
    """Paired estimate of Rev(EMA(k+1)) - Rev(RMA(k)) on common draws.

    One estimate per k, in order, all from one scan of the draws. One extra
    bidder for the efficiency-maximizing auction is expected to recover at
    least the reserve-price auction's revenue for regular value
    distributions. `ema` and `rma` hold the two revenue marginals.
    """
    if not ks or any(k < 1 for k in ks):
        raise ValueError("k must be at least 1")
    r = reserve_price(dist)
    rows = [((k + 1, 0.0, 1), (k, r, 1)) for k in ks]
    moments = _moment_scan(dist, 1, rows, n_trials, seed)
    return tuple(_paired(s1, s2, n_trials, a=0) for s1, s2 in moments)


def efficiency_ratio(
    dist: ValueDistribution,
    ks: Sequence[int],
    n_trials: int,
    seed: int,
) -> tuple[RatioEstimate, ...]:
    """Eff(RMA(k))/Eff(EMA(k)) and Rev(EMA(k))/Rev(RMA(k)) at equal k.

    One estimate per k, in order, all from one scan of the draws. Both
    mechanisms see the same k draws per trial. The efficiency ratio is at
    least 1 - (1-1/e)^k for nondecreasing-hazard distributions; the revenue
    ratio is at least 1 - (1-1/e)^(k-1).
    """
    if not ks or any(k < 1 for k in ks):
        raise ValueError("k must be at least 1")
    r = reserve_price(dist)
    rows = [((k, 0.0, 0), (k, r, 0), (k, 0.0, 1), (k, r, 1)) for k in ks]
    moments = _moment_scan(dist, 1, rows, n_trials, seed)
    return tuple(_ratio(s1, s2, n_trials) for s1, s2 in moments)


def _ratio(s1, s2, n) -> RatioEstimate:
    """Ratio estimate from the moments of (eff EMA, eff RMA, rev EMA, rev RMA)."""
    means = s1 / n

    def ratio_with_err(num, den):
        ratio = means[num] / means[den]
        v_num = _cov(s1, s2, n, num, num)
        v_den = _cov(s1, s2, n, den, den)
        c_nd = _cov(s1, s2, n, num, den)
        var_ratio = (v_num + ratio * ratio * v_den - 2.0 * ratio * c_nd) / (
            means[den] * means[den] * n
        )
        return float(ratio), math.sqrt(max(0.0, var_ratio))

    eff_ratio, eff_err = ratio_with_err(1, 0)
    rev_ratio, rev_err = ratio_with_err(2, 3)
    return RatioEstimate(
        eff_ratio=eff_ratio,
        eff_ratio_std_err=eff_err,
        rev_ratio=rev_ratio,
        rev_ratio_std_err=rev_err,
    )
