"""Seeded Monte Carlo estimation of expected efficiency and revenue.

Comparisons couple the two mechanisms on common random numbers: each trial
draws k+extra values, the efficiency-maximizing auction sees the first k
and the reserve-price auction sees them all, so the difference estimator
inherits the positive correlation of the shared draws.

Both mechanisms read the same two order statistics of a value matrix: the
t highest values and the (t+1)-th highest. Every `quantile` is
nondecreasing (a `ValueDistribution` contract), so it maps the order
statistics of the uniforms onto those of the values: `_select` takes them
with one partition of the uniform matrix and sends only those t+1 columns
through `quantile`. `_ema_stats`/`_rma_stats` turn that pair into per-trial
efficiency and revenue; `auctions.ema`/`auctions.rma` are the per-bid
reference the tests hold them to.

Reproducibility contract: trials are partitioned into fixed batches of
16384; batch b draws its uniforms from a Philox counter-based stream at
counter b << 192 under the run's seed. The stream is one flat run of
doubles, and a width-n config reads its first rows*n as a (rows, n)
matrix, exactly what drawing that shape alone gives; so one draw per batch
at the widest width feeds every row of an experiment. Every trial's draws
are therefore a pure function of (seed, trial index, width), and partial
sums are merged per config in batch order, so results are bitwise
identical for any worker count and for any set of rows run together. The
MECH_EFF_THREADS environment variable, the only thread control, caps the
thread pool; absent, the pool has one thread per CPU in the process's
affinity mask, at most 8.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import ValueDistribution, reserve_price

BATCH_TRIALS = 1 << 14

_MECHANISMS = ("ema", "rma")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error and seed provenance."""

    mean: float
    std_err: float
    n: int
    seed: int


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
    n: int
    seed: int


def _resolve_threads():
    env = os.environ.get("MECH_EFF_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"MECH_EFF_THREADS must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


def _batch_uniforms(seed: int, batch_index: int, size):
    bitgen = np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF, counter=batch_index << 192)
    return np.random.Generator(bitgen).random(size)


def _moment_scan(configs, n_trials, seed):
    """First and second cross moments of the per-trial statistics, per config.

    configs is a sequence of (n_cols, stat_fn); stat_fn maps a (rows, n_cols)
    uniform matrix to a tuple of per-trial stat arrays. Each batch draws its
    uniforms once, at the widest config. Returns one (sum vector,
    cross-product matrix) per config, in order.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    n_batches = -(-n_trials // BATCH_TRIALS)
    width = max(n_cols for n_cols, _ in configs)

    def one(b):
        rows = min(BATCH_TRIALS, n_trials - b * BATCH_TRIALS)
        flat = _batch_uniforms(seed, b, rows * width)
        out = []
        for n_cols, stat_fn in configs:
            stats = np.column_stack(stat_fn(flat[: rows * n_cols].reshape(rows, n_cols)))
            out.append((stats.sum(axis=0), stats.T @ stats))
        return out

    workers = _resolve_threads()
    if workers > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, range(n_batches)))
    else:
        parts = [one(b) for b in range(n_batches)]

    moments = [(s1.copy(), s2.copy()) for s1, s2 in parts[0]]
    for part in parts[1:]:  # fixed batch order keeps the reduction deterministic
        for (s1, s2), (p1, p2) in zip(moments, part):
            s1 += p1
            s2 += p2
    return moments


def _estimate(s1_i, s2_ii, n, seed) -> Estimate:
    mean = s1_i / n
    var = (s2_ii - n * mean * mean) / (n - 1) if n > 1 else 0.0
    return Estimate(mean=float(mean), std_err=math.sqrt(max(0.0, var) / n), n=n, seed=seed)


def _cov(s1, s2, n, i, j) -> float:
    if n < 2:
        return 0.0
    return float((s2[i, j] - s1[i] * s1[j] / n) / (n - 1))


def _paired(s1, s2, n, seed, a) -> PairedEstimate:
    """Paired estimate of stat a minus stat 1-a; stat 0 is EMA's, stat 1 RMA's."""
    b = 1 - a
    diff_mean = (s1[a] - s1[b]) / n
    sum_d2 = s2[a, a] + s2[b, b] - 2.0 * s2[0, 1]
    var_d = (sum_d2 - n * diff_mean * diff_mean) / (n - 1) if n > 1 else 0.0
    return PairedEstimate(
        diff_mean=float(diff_mean),
        diff_std_err=math.sqrt(max(0.0, var_d) / n),
        ema=_estimate(s1[0], s2[0, 0], n, seed),
        rma=_estimate(s1[1], s2[1, 1], n, seed),
    )


def _select(u, t, quantile):
    """The t highest values per row and the (t+1)-th highest (0 if n <= t).

    `u` holds the uniforms. `quantile` is nondecreasing, so it maps the
    uniforms' top t+1 onto the values' top t+1, and only those columns are
    mapped. The top t come in the partition's column order, which fixes the
    rounding of their sum when t >= 3.
    """
    n = u.shape[1]
    if n <= t:
        return np.asarray(quantile(u)), np.zeros(u.shape[0])
    part = np.partition(u, n - t - 1, axis=1)
    values = np.asarray(quantile(part[:, n - t - 1 :]))
    return values[:, 1:], values[:, 0]


def _ema_stats(top, runner_up):
    # every top bidder wins and pays the runner-up
    return top.sum(axis=1), top.shape[1] * runner_up


def _rma_stats(top, runner_up, reserve):
    # top bidders at or above the reserve win and pay max(reserve, runner-up)
    cleared = top >= reserve
    eff = np.where(cleared, top, 0.0).sum(axis=1)
    return eff, cleared.sum(axis=1) * np.maximum(reserve, runner_up)


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
    if mech == "rma":
        r = reserve_price(dist)

        def stat_fn(u):
            return _rma_stats(*_select(u, t, dist.quantile), r)

    else:

        def stat_fn(u):
            return _ema_stats(*_select(u, t, dist.quantile))

    [(s1, s2)] = _moment_scan([(n_bidders, stat_fn)], n_trials, seed)
    return MechanismEstimate(
        efficiency=_estimate(s1[0], s2[0, 0], n_trials, seed),
        revenue=_estimate(s1[1], s2[1, 1], n_trials, seed),
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

    def config(k, extra):
        def stat_fn(u):
            eff_e, _ = _ema_stats(*_select(u[:, :k], t, dist.quantile))
            eff_r, _ = _rma_stats(*_select(u, t, dist.quantile), r)
            return eff_e, eff_r

        return k + extra, stat_fn

    moments = _moment_scan([config(k, extra) for k, extra in pairs], n_trials, seed)
    return tuple(_paired(s1, s2, n_trials, seed, a=1) for s1, s2 in moments)


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

    def config(k):
        def stat_fn(u):
            _, rev_e = _ema_stats(*_select(u, 1, dist.quantile))
            _, rev_r = _rma_stats(*_select(u[:, :k], 1, dist.quantile), r)
            return rev_e, rev_r

        return k + 1, stat_fn

    moments = _moment_scan([config(k) for k in ks], n_trials, seed)
    return tuple(_paired(s1, s2, n_trials, seed, a=0) for s1, s2 in moments)


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

    def stat_fn(u):
        top, runner_up = _select(u, 1, dist.quantile)
        eff_e, rev_e = _ema_stats(top, runner_up)
        eff_r, rev_r = _rma_stats(top, runner_up, r)
        return eff_e, eff_r, rev_e, rev_r

    moments = _moment_scan([(k, stat_fn) for k in ks], n_trials, seed)
    return tuple(_ratio(s1, s2, n_trials, seed) for s1, s2 in moments)


def _ratio(s1, s2, n, seed) -> RatioEstimate:
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
        n=n,
        seed=seed,
    )
