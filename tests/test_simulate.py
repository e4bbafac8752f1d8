import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecheff import auctions, simulate
from mecheff.analysis import ALPHA, lower_bound_m, upper_bound_m
from mecheff.distributions import Exponential, GFamily, PFamily, Uniform
from mecheff.errors import NoRoot
from mecheff.simulate import (
    _ema_stats,
    _rma_stats,
    _select,
    efficiency_ratio,
    estimate_mechanism,
    paired_compare,
    revenue_compare_bk,
)


def harmonic(n):
    return sum(1.0 / i for i in range(1, n + 1))


def test_estimate_deterministic():
    a = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 1, seed=5)
    b = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 1, seed=5)
    assert a == b
    c = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 1, seed=6)
    assert c != a


def test_worker_count_independence(monkeypatch):
    kwargs = dict(k=3, extra=2, t=1, n_trials=80_000, seed=77)
    monkeypatch.setenv("MECH_EFF_THREADS", "1")
    a = paired_compare(Exponential(1.0), **kwargs)
    monkeypatch.setenv("MECH_EFF_THREADS", "4")
    b = paired_compare(Exponential(1.0), **kwargs)
    assert a == b  # bitwise identical, not just close


def test_ema_mean_matches_order_statistics():
    # E[max of n] = n/(n+1) for uniform, H_n for exponential
    est = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 400_000, seed=11)
    assert abs(est.efficiency.mean - 2.0 / 3.0) < 4.0 * est.efficiency.std_err
    est = estimate_mechanism(Exponential(1.0), 3, 1, "ema", 400_000, seed=12)
    assert abs(est.efficiency.mean - harmonic(3)) < 4.0 * est.efficiency.std_err


def test_ema_revenue_matches_second_order_statistic():
    # E[2nd of 2 uniforms] = 1/3
    est = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 400_000, seed=13)
    assert abs(est.revenue.mean - 1.0 / 3.0) < 4.0 * est.revenue.std_err


def test_rma_single_bidder_efficiency():
    # E[v; v >= 1] = 2/e for the unit exponential; below the EMA value 1
    est_r = estimate_mechanism(Exponential(1.0), 1, 1, "rma", 400_000, seed=14)
    est_e = estimate_mechanism(Exponential(1.0), 1, 1, "ema", 400_000, seed=14)
    assert abs(est_r.efficiency.mean - 2.0 / math.e) < 4.0 * est_r.efficiency.std_err
    assert est_r.efficiency.mean <= est_e.efficiency.mean
    # the single bidder pays the reserve when clearing it: revenue = r(1-F(r)) = 1/e
    assert abs(est_r.revenue.mean - 1.0 / math.e) < 4.0 * est_r.revenue.std_err


def test_estimate_std_err_shrinks():
    small = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 10_000, seed=3)
    big = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 640_000, seed=3)
    assert big.efficiency.std_err < small.efficiency.std_err / 4.0


def test_mechanism_name_validation():
    with pytest.raises(ValueError):
        estimate_mechanism(Uniform(hi=1.0), 2, 1, "vcg", 10, seed=0)
    with pytest.raises(ValueError):
        estimate_mechanism(Uniform(hi=1.0), 0, 1, "ema", 10, seed=0)


def test_estimate_fields():
    est = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 1000, seed=21)
    assert est.efficiency.n == 1000 and est.efficiency.seed == 21
    assert est.efficiency.std_err >= 0.0


def test_paired_compare_nothing_excluded():
    # all mass above the reserve: both mechanisms sell to the same bidder
    g = GFamily(phi=0.0, r=1.0, eps=1e-6)
    pc = paired_compare(g, 4, 0, 1, 50_000, seed=8)
    assert pc.diff_mean == 0.0
    assert pc.diff_std_err == 0.0


def test_paired_estimate_orientation():
    pc = paired_compare(Exponential(1.0), 2, 2, 1, 50_000, seed=9)
    assert pc.diff_mean == pytest.approx(pc.rma.mean - pc.ema.mean, rel=1e-12, abs=1e-15)


def test_paired_compare_insufficient_extras_strictly_worse():
    # the extremal family with too few extras loses at 3 sigma
    g = GFamily(phi=ALPHA, r=1.0, eps=1e-6)
    k = 5
    pc = paired_compare(g, k, lower_bound_m(k), 1, 1_000_000, seed=101)
    assert pc.diff_mean < 0.0
    assert abs(pc.diff_mean) > 3.0 * pc.diff_std_err


def test_paired_compare_sufficient_extras_recover():
    for dist in (Exponential(1.0), Uniform(hi=1.0)):
        k = 5
        pc = paired_compare(dist, k, upper_bound_m(k), 1, 200_000, seed=102)
        assert pc.diff_mean >= -3.0 * pc.diff_std_err


def test_crn_reduces_difference_noise():
    # with shared draws dominating, the paired error beats both marginals
    for dist, k, extra in [
        (Exponential(1.0), 5, 2),
        (Uniform(hi=1.0), 3, 2),
        (GFamily(phi=ALPHA, r=1.0, eps=1e-6), 3, 1),
    ]:
        pc = paired_compare(dist, k, extra, 1, 100_000, seed=55)
        assert pc.diff_std_err <= max(pc.ema.std_err, pc.rma.std_err)


def test_revenue_compare_bk_uniform_exact_values():
    # Rev(EMA(2)) = E[min of 2] = 1/3; Rev(RMA(1)) = 0.5*P(v >= 0.5) = 1/4
    pc = revenue_compare_bk(Uniform(hi=1.0), 1, 500_000, seed=31)
    assert abs(pc.ema.mean - 1.0 / 3.0) < 4.0 * pc.ema.std_err
    assert abs(pc.rma.mean - 1.0 / 4.0) < 4.0 * pc.rma.std_err
    assert abs(pc.diff_mean - 1.0 / 12.0) < 4.0 * pc.diff_std_err


def test_revenue_compare_bk_exponential_sign():
    pc = revenue_compare_bk(Exponential(1.0), 3, 300_000, seed=32)
    assert pc.diff_mean >= -3.0 * pc.diff_std_err


def test_revenue_compare_bk_deterministic():
    a = revenue_compare_bk(Uniform(hi=1.0), 2, 10_000, seed=33)
    b = revenue_compare_bk(Uniform(hi=1.0), 2, 10_000, seed=33)
    assert a == b


def test_efficiency_ratio_exponential():
    est = efficiency_ratio(Exponential(1.0), 1, 300_000, seed=41)
    # true efficiency ratio is (2/e)/1
    assert abs(est.eff_ratio - 2.0 / math.e) < 4.0 * est.eff_ratio_std_err
    assert est.eff_ratio >= 1.0 - ALPHA - 3.0 * est.eff_ratio_std_err
    # a single bidder yields no second price: revenue ratio 0 vs floor 0
    assert est.rev_ratio == 0.0


def test_efficiency_ratio_g_family():
    est = efficiency_ratio(GFamily(phi=ALPHA, r=1.0, eps=1e-6), 3, 300_000, seed=42)
    assert est.eff_ratio >= 1.0 - ALPHA**3 - 3.0 * est.eff_ratio_std_err


def test_efficiency_ratio_large_k_approaches_one():
    est = efficiency_ratio(Exponential(1.0), 30, 100_000, seed=43)
    assert est.eff_ratio > 0.999
    assert est.rev_ratio > 0.999


def test_no_root_propagates():
    from test_distributions import SubUnitHazard

    with pytest.raises(NoRoot):
        estimate_mechanism(SubUnitHazard(), 2, 1, "rma", 10, seed=0)
    with pytest.raises(NoRoot):
        paired_compare(SubUnitHazard(), 2, 1, 1, 10, seed=0)


def test_multi_item_paired_compare():
    # t = 2 items, enough extras: reserve auction keeps up
    k = 8
    m = upper_bound_m(k)
    pc = paired_compare(Exponential(1.0), k, 2 * m, 2, 200_000, seed=61)
    assert pc.diff_mean >= -3.0 * pc.diff_std_err


@st.composite
def tie_heavy_batch(draw):
    """(values, t, reserve): rows of n bids on a 0.1 grid, or P-family draws
    whose atom at the reserve carries a third to a half of the mass."""
    n, t, rows = draw(st.integers(1, 9)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        grid = st.lists(st.integers(0, 20), min_size=n, max_size=n)
        values = np.array(draw(st.lists(grid, min_size=rows, max_size=rows))) / 10.0
        return values, t, draw(st.integers(1, 20)) / 10.0
    dist = PFamily(eps=draw(st.sampled_from([0.5, 1.0])), r=1.0)
    unit = st.floats(0.0, 1.0, exclude_max=True)
    u = draw(st.lists(st.lists(unit, min_size=n, max_size=n), min_size=rows, max_size=rows))
    return dist.quantile(np.array(u)), t, dist.r


@given(tie_heavy_batch())
@settings(max_examples=300, deadline=None)
def test_batched_stats_match_per_bid_auctions(batch):
    values, t, reserve = batch
    top, runner_up = _select(values, t)
    eff_e, rev_e = _ema_stats(top, runner_up)
    eff_r, rev_r = _rma_stats(top, runner_up, reserve)

    def same(batched, scalar):
        # up to two summands add in any order exactly; longer sums may not
        return batched == scalar if t <= 2 else batched == pytest.approx(scalar, rel=1e-12)

    for i, bids in enumerate(values.tolist()):
        e, r = auctions.ema(bids, t), auctions.rma(bids, t, reserve)
        assert same(eff_e[i], e.efficiency) and rev_e[i] == e.revenue
        assert same(eff_r[i], r.efficiency) and rev_r[i] == r.revenue


def test_default_threads_follow_affinity(monkeypatch):
    monkeypatch.delenv("MECH_EFF_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert simulate._resolve_threads() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)), raising=False)
    assert simulate._resolve_threads() == 8
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert simulate._resolve_threads() == 5
    monkeypatch.setenv("MECH_EFF_THREADS", "2")
    assert simulate._resolve_threads() == 2
