import hashlib
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_features__

from mecheff import auctions, simulate
from mecheff.analysis import ALPHA, lower_bound_m, upper_bound_m
from mecheff.distributions import (
    FAMILIES,
    Exponential,
    GFamily,
    PFamily,
    Uniform,
    reserve_price,
)
from mecheff.errors import NoRoot
from mecheff.simulate import (
    BATCH_TRIALS,
    _batch_uniforms,
    _second_price,
    _select,
    efficiency_ratio,
    estimate_mechanism,
    paired_compare,
    revenue_compare_bk,
)
from test_distributions import FAMILY_DRAWS, branch_ulps


def harmonic(n):
    return sum(1.0 / i for i in range(1, n + 1))


def test_estimate_deterministic():
    a = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 2, seed=5)
    b = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 2, seed=5)
    assert a == b
    c = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 2, seed=6)
    assert c != a


def test_worker_count_independence(monkeypatch):
    kwargs = dict(pairs=[(3, 2)], t=1, n_trials=80_000, seed=77)
    monkeypatch.setenv("MECH_EFF_THREADS", "1")
    a = paired_compare(Exponential(1.0), **kwargs)
    monkeypatch.setenv("MECH_EFF_THREADS", "4")
    b = paired_compare(Exponential(1.0), **kwargs)
    assert a == b  # bitwise identical, not just close


def test_ema_mean_matches_order_statistics():
    # E[max of n] = n/(n+1) for uniform, H_n for exponential
    est = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 400_000, seed=11)["eff_ema"]
    assert abs(est.value - 2.0 / 3.0) < 4.0 * est.std_err
    est = estimate_mechanism(Exponential(1.0), 3, 1, "ema", 400_000, seed=12)["eff_ema"]
    assert abs(est.value - harmonic(3)) < 4.0 * est.std_err


def test_ema_revenue_matches_second_order_statistic():
    # E[2nd of 2 uniforms] = 1/3
    est = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 400_000, seed=13)["rev_ema"]
    assert abs(est.value - 1.0 / 3.0) < 4.0 * est.std_err


def test_rma_single_bidder_efficiency():
    # E[v; v >= 1] = 2/e for the unit exponential; below the EMA value 1
    est_r = estimate_mechanism(Exponential(1.0), 1, 1, "rma", 400_000, seed=14)
    est_e = estimate_mechanism(Exponential(1.0), 1, 1, "ema", 400_000, seed=14)
    assert abs(est_r["eff_rma"].value - 2.0 / math.e) < 4.0 * est_r["eff_rma"].std_err
    assert est_r["eff_rma"].value <= est_e["eff_ema"].value
    # the single bidder pays the reserve when clearing it: revenue = r(1-F(r)) = 1/e
    assert abs(est_r["rev_rma"].value - 1.0 / math.e) < 4.0 * est_r["rev_rma"].std_err


def test_estimate_std_err_shrinks():
    small = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 10_000, seed=3)
    big = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 640_000, seed=3)
    assert big["eff_ema"].std_err < small["eff_ema"].std_err / 4.0


def test_mechanism_name_validation():
    with pytest.raises(ValueError):
        estimate_mechanism(Uniform(hi=1.0), 2, 1, "vcg", 10, seed=0)
    with pytest.raises(ValueError):
        estimate_mechanism(Uniform(hi=1.0), 0, 1, "ema", 10, seed=0)


# per front end, calls with t = 0, a width of 0 (k = 0), no rows or a
# mechanism that names no column, "EMA" too: its case is not folded
SCAN_REFUSALS = {
    "estimate_mechanism": [
        lambda u: estimate_mechanism(u, 2, 0, "ema", 10, seed=0),
        lambda u: estimate_mechanism(u, 0, 1, "ema", 10, seed=0),
        lambda u: estimate_mechanism(u, 2, 1, "vcg", 10, seed=0),
        lambda u: estimate_mechanism(u, 2, 1, "EMA", 10, seed=0),
    ],
    "paired_compare": [
        lambda u: paired_compare(u, [(2, 1)], 0, 10, seed=0),
        lambda u: paired_compare(u, [(0, 1)], 1, 10, seed=0),
        lambda u: paired_compare(u, [], 1, 10, seed=0),
    ],
    "revenue_compare_bk": [
        lambda u: revenue_compare_bk(u, [0], 10, seed=0),
        lambda u: revenue_compare_bk(u, [], 10, seed=0),
    ],
    "efficiency_ratio": [
        lambda u: efficiency_ratio(u, [0], 10, seed=0),
        lambda u: efficiency_ratio(u, [], 10, seed=0),
    ],
}


@pytest.mark.parametrize("front_end", SCAN_REFUSALS)
def test_scan_inputs_are_checked_by_the_scan(front_end):
    # t, the widths, the row count and the column names are refused where
    # the scan reads them
    for call in SCAN_REFUSALS[front_end]:
        with pytest.raises(ValueError) as excinfo:
            call(Uniform(hi=1.0))
        assert excinfo.traceback[-1].name == "_estimates"


def test_front_ends_check_their_own_arguments():
    # only paired_compare can judge its extra bidders
    with pytest.raises(ValueError) as excinfo:
        paired_compare(Uniform(hi=1.0), [(5, -1)], 1, 10, seed=0)
    assert excinfo.traceback[-1].name == "paired_compare"


@pytest.mark.parametrize("name", ["eff_vcg", "diff", "EFF_EMA", "eff"])
def test_scan_refuses_unknown_column_names(name):
    # a column is one of the four names; anything else is refused by the scan
    with pytest.raises(ValueError, match="eff_ema, eff_rma, rev_ema, rev_rma") as excinfo:
        simulate._estimates(Uniform(hi=1.0), 1, [{"eff_ema": 2, name: 2}], 10, seed=0)
    assert excinfo.traceback[-1].name == "_estimates"


def test_estimate_fields():
    est = estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 1000, seed=21)
    assert est.keys() == {"eff_ema", "rev_ema"}
    assert est["eff_ema"].std_err >= 0.0


def test_seed_range_both_ends():
    # the seed is the 64-bit Philox key: no seed outside [0, 2**64) aliases one inside
    for seed in (0, 2**64 - 1):
        estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 10, seed=seed)
    for seed in (-1, 2**64, 2**65 - 1):
        with pytest.raises(ValueError, match="seed"):
            estimate_mechanism(Uniform(hi=1.0), 2, 1, "ema", 10, seed=seed)


@pytest.mark.parametrize(
    "dist",
    [Uniform(hi=1.0), Exponential(1.0), GFamily(phi=ALPHA, r=1.0), PFamily(eps=0.5, r=1.0)],
    ids=lambda dist: type(dist).__name__,
)
@pytest.mark.parametrize("t", [1, 2, 3])
def test_declared_column_is_one_estimate_in_every_estimator(dist, t):
    # the same (width, reserve, stat) column, bit for bit, whichever estimator
    # declares it; two batches, the second short
    n, k = BATCH_TRIALS + 77, 4
    alone = {}
    for mech in ("ema", "rma"):
        alone.update(estimate_mechanism(dist, k, t, mech, n, seed=31))
    (pc,) = paired_compare(dist, [(k, 0)], t, n, seed=31)
    assert pc["eff_ema"] == alone["eff_ema"]
    assert pc["eff_rma"] == alone["eff_rma"]
    (bk,) = revenue_compare_bk(dist, [k], n, seed=31)
    assert bk["rev_ema"] == estimate_mechanism(dist, k + 1, 1, "ema", n, seed=31)["rev_ema"]
    if t == 1:  # the ratio's four marginals are the single mechanisms' columns
        (ratio,) = efficiency_ratio(dist, [k], n, seed=31)
        for name in ("eff_ema", "eff_rma", "rev_ema", "rev_rma"):
            assert ratio[name] == alone[name]


def test_paired_compare_nothing_excluded():
    # all mass above the reserve: both mechanisms sell to the same bidder
    g = GFamily(phi=0.0, r=1.0, eps=1e-6)
    (pc,) = paired_compare(g, [(4, 0)], 1, 50_000, seed=8)
    assert pc["diff"].value == 0.0
    assert pc["diff"].std_err == 0.0


def test_paired_estimate_orientation():
    # each declared difference runs the way its name says, whichever estimator
    (pc,) = paired_compare(Exponential(1.0), [(2, 2)], 1, 50_000, seed=9)
    expected = pc["eff_rma"].value - pc["eff_ema"].value
    assert pc["diff"].value == pytest.approx(expected, rel=1e-12, abs=1e-15)
    (bk,) = revenue_compare_bk(Exponential(1.0), [2], 50_000, seed=9)
    expected = bk["rev_ema"].value - bk["rev_rma"].value
    assert bk["diff"].value == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_paired_compare_insufficient_extras_strictly_worse():
    # the extremal family with too few extras loses at 3 sigma
    g = GFamily(phi=ALPHA, r=1.0, eps=1e-6)
    k = 5
    (pc,) = paired_compare(g, [(k, lower_bound_m(k))], 1, 1_000_000, seed=101)
    assert pc["diff"].value < 0.0
    assert abs(pc["diff"].value) > 3.0 * pc["diff"].std_err


def test_paired_compare_sufficient_extras_recover():
    for dist in (Exponential(1.0), Uniform(hi=1.0)):
        k = 5
        (pc,) = paired_compare(dist, [(k, upper_bound_m(k))], 1, 200_000, seed=102)
        assert pc["diff"].value >= -3.0 * pc["diff"].std_err


def test_crn_reduces_difference_noise():
    # with shared draws dominating, the paired error beats both marginals
    for dist, k, extra in [
        (Exponential(1.0), 5, 2),
        (Uniform(hi=1.0), 3, 2),
        (GFamily(phi=ALPHA, r=1.0, eps=1e-6), 3, 1),
    ]:
        (pc,) = paired_compare(dist, [(k, extra)], 1, 100_000, seed=55)
        assert pc["diff"].std_err <= max(pc["eff_ema"].std_err, pc["eff_rma"].std_err)


def test_revenue_compare_bk_uniform_exact_values():
    # Rev(EMA(2)) = E[min of 2] = 1/3; Rev(RMA(1)) = 0.5*P(v >= 0.5) = 1/4
    (pc,) = revenue_compare_bk(Uniform(hi=1.0), [1], 500_000, seed=31)
    assert abs(pc["rev_ema"].value - 1.0 / 3.0) < 4.0 * pc["rev_ema"].std_err
    assert abs(pc["rev_rma"].value - 1.0 / 4.0) < 4.0 * pc["rev_rma"].std_err
    assert abs(pc["diff"].value - 1.0 / 12.0) < 4.0 * pc["diff"].std_err


def test_revenue_compare_bk_exponential_sign():
    (pc,) = revenue_compare_bk(Exponential(1.0), [3], 300_000, seed=32)
    assert pc["diff"].value >= -3.0 * pc["diff"].std_err


def test_revenue_compare_bk_deterministic():
    a = revenue_compare_bk(Uniform(hi=1.0), [2], 10_000, seed=33)
    b = revenue_compare_bk(Uniform(hi=1.0), [2], 10_000, seed=33)
    assert a == b


def test_efficiency_ratio_exponential():
    (est,) = efficiency_ratio(Exponential(1.0), [1], 300_000, seed=41)
    eff = est["eff_ratio"]
    # true efficiency ratio is (2/e)/1
    assert abs(eff.value - 2.0 / math.e) < 4.0 * eff.std_err
    assert eff.value >= 1.0 - ALPHA - 3.0 * eff.std_err
    # a single bidder yields no second price: revenue ratio 0 vs floor 0
    assert est["rev_ratio"].value == 0.0


def test_efficiency_ratio_g_family():
    (est,) = efficiency_ratio(GFamily(phi=ALPHA, r=1.0, eps=1e-6), [3], 300_000, seed=42)
    assert est["eff_ratio"].value >= 1.0 - ALPHA**3 - 3.0 * est["eff_ratio"].std_err


def test_efficiency_ratio_large_k_approaches_one():
    (est,) = efficiency_ratio(Exponential(1.0), [30], 100_000, seed=43)
    assert est["eff_ratio"].value > 0.999
    assert est["rev_ratio"].value > 0.999


def test_no_root_propagates():
    from test_distributions import SubUnitHazard

    with pytest.raises(NoRoot):
        estimate_mechanism(SubUnitHazard(), 2, 1, "rma", 10, seed=0)
    with pytest.raises(NoRoot):
        paired_compare(SubUnitHazard(), [(2, 1)], 1, 10, seed=0)


def test_reserve_is_read_only_for_rma_columns():
    # EMA prices at 0, so an EMA-only call runs where the reserve has no
    # root and an RMA call raises NoRoot (test_no_root_propagates)
    from test_distributions import SubUnitHazard

    est = estimate_mechanism(SubUnitHazard(), 2, 1, "ema", 10, seed=0)
    assert est.keys() == {"eff_ema", "rev_ema"}


def test_multi_item_paired_compare():
    # t = 2 items, enough extras: reserve auction keeps up
    k = 8
    m = upper_bound_m(k)
    (pc,) = paired_compare(Exponential(1.0), [(k, 2 * m)], 2, 200_000, seed=61)
    assert pc["diff"].value >= -3.0 * pc["diff"].std_err


@st.composite
def tie_heavy_batch(draw):
    """(values, t, reserve): rows of n bids on a 0.1 grid, or P-family draws
    whose atom at the reserve carries a third to a half of the mass."""
    n, t, rows = draw(st.integers(1, 40)), draw(st.integers(1, 12)), draw(st.integers(1, 6))
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
    # the bids are their own quantile
    [stack] = _select(values, t + 1, lambda v: v, {values.shape[1]}).values()
    eff_e, rev_e = _second_price(stack, t, 0.0, True)
    eff_r, rev_r = _second_price(stack, t, reserve, True)
    for i, bids in enumerate(values.tolist()):
        e, r = auctions.ema(bids, t), auctions.rma(bids, t, reserve)
        assert eff_e[i] == e.efficiency and rev_e[i] == e.revenue
        assert eff_r[i] == r.efficiency and rev_r[i] == r.revenue


def second_price_where(values, t, reserve):
    """`_second_price` with each winner added through np.where."""
    columns = iter(values[:t])
    value = next(columns)
    cleared = value >= reserve
    eff = np.where(cleared, value, 0.0)
    won = cleared.astype(float)
    for value in columns:
        cleared = value >= reserve
        eff += np.where(cleared, value, 0.0)
        won += cleared
    runner_up = values[t] if len(values) > t else np.zeros(values.shape[1])
    return eff, won * np.maximum(reserve, runner_up)


@st.composite
def priced_block(draw):
    """(values, t, reserve): the stack `_select` returns at depth t+1 and a
    prefix width w in 1..t+2, t in 1..12, laid out as it returns it: the
    min(w, t+1) highest values of each trial as rows, highest first. Zeros,
    ties and values equal to the reserve are common."""
    t, rows = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    n = min(draw(st.integers(1, t + 2)), t + 1)
    reserve = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 10.0))
    entry = st.sampled_from([0.0, 0.5, 1.0, reserve]) | st.floats(0.0, 10.0)
    values = np.array(draw(st.lists(entry, min_size=rows * n, max_size=rows * n)))
    desc = np.ascontiguousarray(np.sort(values.reshape(rows, n), axis=1)[:, ::-1].T)
    return desc, t, reserve


@given(priced_block())
@settings(max_examples=300, deadline=None)
def test_second_price_mask_multiply_matches_where(block):
    # a value times its winner mask is np.where(mask, value, 0.0), bit for
    # bit, for the finite values >= +0.0 every quantile returns; at reserve
    # 0 (EMA) every value clears and the masks are skipped
    values, t, reserve = block
    for r in (reserve, 0.0):
        for ours, ref in zip(_second_price(values, t, r, True), second_price_where(values, t, r)):
            assert ours.tobytes() == ref.tobytes()
            assert not np.signbit(ours).any()  # no -0.0


@given(priced_block())
@settings(max_examples=300, deadline=None)
def test_second_price_without_runner_up_is_the_full_rules_efficiency(block):
    # a row that reads no revenue passes a stack without the runner-up; its
    # efficiency is the full rule's, bit for bit, with and without a reserve
    values, t, reserve = block
    for r in (0.0, 1.0, reserve):
        eff, rev = _second_price(values[:t], t, r, False)
        assert rev is None
        assert eff.tobytes() == _second_price(values, t, r, True)[0].tobytes()


@pytest.mark.parametrize("c", range(2, 9))
def test_column_sums_einsum_equal_sum(c):
    # `_estimates` sums each batch's columns with einsum; from two columns
    # on it adds in sum(axis=0)'s trial order, so the bits agree
    rng = np.random.default_rng(c)
    for n in (1, 2, 3, 7, 100, BATCH_TRIALS - 1, BATCH_TRIALS):
        stats = rng.exponential(size=(n, c)) * 10.0 ** rng.integers(-8, 9, size=(n, c))
        stats[rng.random((n, c)) < 0.2] = 0.0
        repeats = rng.random((n, c)) < 0.2
        stats[repeats] = rng.choice([0.1, 1.0, 3.0], size=repeats.sum())
        assert np.einsum("ij->j", stats).tobytes() == stats.sum(axis=0).tobytes(), (n, c)


def test_one_column_row_is_refused():
    with pytest.raises(ValueError, match="two columns"):
        simulate._estimates(Uniform(hi=1.0), 1, [{"eff_ema": 2}], 10, seed=0)


def test_squares_past_float64_normal_range_are_refused():
    # an all-zero column keeps its exact 0 standard error; any other column
    # needs a finite mean square of at least the smallest normal float, else
    # its squares lost their bits and its standard error would read 0
    [row] = efficiency_ratio(Exponential(1.0), [1], 1000, 0)
    assert row["rev_ema"] == simulate.Estimate(0.0, 0.0) and row["rev_ratio"].value == 0.0
    [row] = paired_compare(Exponential(1e150), [(2, 5)], 1, 1000, 0)
    assert all(est.std_err > 0.0 for est in row.values())
    for rate, square in ((1e155, r"\S+e-310"), (1e200, "0"), (1e-200, "inf")):
        with pytest.raises(ValueError, match=f"eff_ema's mean square {square} is past float64's normal"):
            paired_compare(Exponential(rate), [(2, 5)], 1, 1000, 0)


@st.composite
def uniforms_near_branches(draw):
    """(dist, u, t): a distribution of any family in FAMILIES and a uniform
    matrix whose entries are free draws or the ulps around F(r-) and F(r),
    where the families switch branches and values tie."""
    dist = draw(st.sampled_from(sorted(FAMILIES)).flatmap(lambda tag: FAMILY_DRAWS[tag]))
    near = branch_ulps(dist)
    near = near[(near >= 0.0) & (near < 1.0)].tolist()
    n, t, rows = draw(st.integers(1, 40)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entry = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(near)
    u = draw(st.lists(entry, min_size=rows * n, max_size=rows * n))
    return dist, np.array(u).reshape(rows, n), t


@given(uniforms_near_branches())
@settings(max_examples=300, deadline=None)
def test_uniform_space_selection_matches_sorted_values(case):
    # a nondecreasing quantile maps the uniforms' order statistics onto the
    # values', so selecting before mapping loses nothing, bit for bit; the
    # top t come highest first, then the runner-up, absent when n <= t
    dist, u, t = case
    n = u.shape[1]
    [stack] = _select(u, t + 1, dist.quantile, {n}).values()
    values = np.sort(np.asarray(dist.quantile(u)), axis=1)
    assert np.array_equal(stack[:t].T, values[:, ::-1][:, :t])
    assert np.array_equal(stack[t:].T, values[:, ::-1][:, t : t + 1])


@st.composite
def prefix_widths(draw):
    """(dist, u, t, widths): a `uniforms_near_branches` case with t in 1..5
    and distinct prefix widths."""
    dist, u, _ = draw(uniforms_near_branches())
    width = st.integers(1, u.shape[1])
    return dist, u, draw(st.integers(1, 5)), draw(st.sets(width, min_size=1, max_size=6))


@given(prefix_widths())
@settings(max_examples=300, deadline=None)
def test_prefix_selection_equals_selecting_the_prefix(case):
    # one pass over the columns yields every prefix's selection, bit for bit
    dist, u, t, widths = case
    stacks = _select(u, t + 1, dist.quantile, widths)
    assert stacks.keys() == widths
    for w, stack in stacks.items():
        [alone] = _select(u[:, :w], t + 1, dist.quantile, {w}).values()
        assert stack.shape == alone.shape == (min(w, t + 1), len(u))
        assert np.array_equal(stack[:t], alone[:t])
        assert np.array_equal(stack[t:], alone[t:])


@st.composite
def selection_case(draw):
    """(u, t, widths): uniforms that are free draws or the ulps around the
    G family's branch point F(r-) = 1-1/e, in C or Fortran order, with t in
    1..6 and distinct prefix widths."""
    near = branch_ulps(GFamily(phi=ALPHA, r=1.0)).tolist()
    n, t, rows = draw(st.integers(1, 24)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(near)
    u = np.array(draw(st.lists(entry, min_size=rows * n, max_size=rows * n))).reshape(rows, n)
    if draw(st.booleans()):
        u = np.asfortranarray(u)  # u.T is contiguous: a pass over it in place would write u
    return u, t, draw(st.sets(st.integers(1, n), min_size=1, max_size=6))


@pytest.mark.parametrize("quantile", [lambda v: v, Exponential(1.0).quantile], ids=["identity", "exp"])
@given(case=selection_case())
@settings(max_examples=200, deadline=None)
def test_in_place_registers_select_like_a_sort(quantile, case):
    # the registers are updated in place, yet every width's stack is a
    # sort's, bit for bit, u is left as it was, and no two widths share memory
    u, t, widths = case
    before = u.copy()
    stacks = _select(u, t + 1, quantile, widths)
    assert u.tobytes() == before.tobytes()
    for w, stack in stacks.items():
        desc = np.sort(np.asarray(quantile(u[:, :w])), axis=1)[:, ::-1]
        assert stack[:t].T.tobytes() == desc[:, :t].tobytes()
        assert stack[t:].T.tobytes() == desc[:, t : t + 1].tobytes()
        assert not np.shares_memory(stack, u)
        assert not any(np.shares_memory(stack, other) for v, other in stacks.items() if v != w)


@pytest.mark.parametrize("quantile", [lambda v: v, Exponential(1.0).quantile], ids=["identity", "exp"])
@given(case=selection_case())
@settings(max_examples=200, deadline=None)
def test_selection_without_runner_up_is_the_top_of_the_full_one(quantile, case):
    # t registers hold the same top t as t+1 registers, bit for bit, at
    # every width, those at or below t included; u is left as it was, and
    # no two widths share memory
    u, t, widths = case
    before = u.copy()
    stacks = _select(u, t, quantile, widths)
    assert u.tobytes() == before.tobytes()
    full = _select(u, t + 1, quantile, widths)
    assert stacks.keys() == full.keys() == widths
    for w, stack in stacks.items():
        assert stack.shape == full[w][:t].shape == (min(w, t), len(u))  # no runner-up row
        assert stack.tobytes() == full[w][:t].tobytes()
        assert not np.shares_memory(stack, u)
        assert not any(np.shares_memory(stack, stacks[v]) for v in widths if v != w)


@pytest.mark.parametrize(
    "dist",
    [Exponential(1.0), GFamily(phi=ALPHA, r=1.0), PFamily(eps=0.5, r=1.0)],
    ids=lambda dist: type(dist).__name__,
)
@pytest.mark.parametrize("t", [1, 2, 5])
def test_efficiency_rows_equal_rows_that_read_revenue(dist, t):
    # paired_compare's rows read no revenue, so they select t registers; a
    # revenue column appended after them forces t+1, and every entry they
    # share keeps every bit, the difference's cross moments included.
    # Two batches, the second short, with widths below, at and above t
    n, pairs = BATCH_TRIALS + 123, [(3, 1), (4, 5), (1, 0)]
    rows = [{"eff_ema": k, "eff_rma": k + extra, "rev_ema": k} for k, extra in pairs]
    diffs = [("diff", "eff_rma", "eff_ema")]
    read_revenue = simulate._estimates(dist, t, rows, n, seed=23, diffs=diffs)
    for got, wider in zip(paired_compare(dist, pairs, t, n, seed=23), read_revenue, strict=True):
        assert got.keys() == {"eff_ema", "eff_rma", "diff"}
        assert got == {name: wider[name] for name in got}


@pytest.mark.parametrize("t", [1, 2, 5])
def test_quantile_maps_the_runner_up_only_for_revenue_rows(t):
    # an efficiency-only row maps its t highest values, a row that reads
    # revenue maps the (t+1)-th too
    mapped = []

    class Recorded(Exponential):
        def quantile(self, u):
            mapped.append(np.shape(u))
            return super().quantile(u)

    paired_compare(Recorded(1.0), [(4, 3), (1, 0)], t, 100, seed=5)
    assert sorted(mapped) == sorted([(min(w, t), 100) for w in (4, 7, 1)])
    mapped.clear()
    estimate_mechanism(Recorded(1.0), 7, t, "rma", 100, seed=5)
    assert mapped == [(min(7, t + 1), 100)]


@pytest.mark.parametrize("rows", [BATCH_TRIALS, 1000])  # a full batch and a short last one
def test_flat_draw_prefix_is_the_shaped_draw(rows):
    width = 38
    flat = _batch_uniforms(2024, 3, rows * width)
    for n in range(1, width + 1):
        assert np.array_equal(flat[: rows * n].reshape(rows, n), _batch_uniforms(2024, 3, (rows, n)))


def test_rows_run_together_equal_rows_run_alone():
    # two batches, the second short; the widest row is neither first nor last
    n = BATCH_TRIALS + 123
    dist = PFamily(eps=0.5, r=1.0)
    pairs = [(3, 1), (4, 5), (1, 0)]
    together = paired_compare(dist, pairs, 3, n, seed=17)
    assert together == tuple(paired_compare(dist, [p], 3, n, seed=17)[0] for p in pairs)
    ks = [4, 9, 1]
    for compare in (efficiency_ratio, revenue_compare_bk):
        together = compare(dist, ks, n, seed=18)
        assert together == tuple(compare(dist, [k], n, seed=18)[0] for k in ks)


def dispatch_digest():
    """SHA-256 of t >= 3 comparisons on the two families whose quantiles use no
    transcendental function, after checking that the batched stats of a
    uniform matrix do not change when its columns are permuted."""
    h = hashlib.sha256()
    for dist in (Uniform(hi=1.0), PFamily(eps=0.5, r=1.0)):
        for t in (3, 5, 9):
            h.update(repr(paired_compare(dist, [(20, 20)], t, 20_000, seed=7)).encode())
        r = reserve_price(dist)
        for n, t in ((12, 3), (40, 5), (40, 9)):
            u = _batch_uniforms(7, 0, (4096, n))
            # row-major like every matrix `_estimates` passes
            permuted = np.ascontiguousarray(u[:, np.random.default_rng(n).permutation(n)])
            stats = []
            for cols in (u, permuted):
                [stack] = _select(cols, t + 1, dist.quantile, {n}).values()
                stats.append((*_second_price(stack, t, 0.0, True), *_second_price(stack, t, r, True)))
            assert all(np.array_equal(a, b) for a, b in zip(*stats)), (dist, n, t)
            h.update(b"".join(stat.tobytes() for stat in stats[0]))
    return h.hexdigest()


@pytest.mark.skipif(not __cpu_features__.get("AVX512F"), reason="no AVX-512 dispatch to disable")
def test_bytes_do_not_depend_on_simd_dispatch():
    # a child on numpy's baseline kernels (no AVX2/AVX-512 maximum, minimum or
    # arithmetic) must reproduce this process's bytes
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
    code = "from test_simulate import dispatch_digest; print(dispatch_digest())"
    child = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == dispatch_digest()


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


def paired_alone(cap, pairs, t, n, seed):
    """repr of one `paired_compare` on Exponential(1) made alone, in a fresh
    interpreter under thread cap `cap`."""
    code = (
        "from mecheff.distributions import Exponential\n"
        "from mecheff.simulate import paired_compare\n"
        f"print(repr(paired_compare(Exponential(1.0), {pairs!r}, {t}, {n}, seed={seed})))"
    )
    env = {**os.environ, "MECH_EFF_THREADS": str(cap)}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()


def test_pools_and_workspaces_are_reused_bit_for_bit(monkeypatch):
    # the widest width grows, shrinks and grows again under changing caps, in
    # calls of two batches with a short last one; each equals the call alone
    n = BATCH_TRIALS + 321
    calls = [  # (cap, pairs): widest widths 38, 5, 5, 38, 38, 38
        (1, [(20, 18)]),
        (3, [(3, 2)]),
        (1, [(3, 2), (1, 0)]),
        (1, [(20, 18)]),
        (2, [(20, 18)]),
        (3, [(1, 37)]),
    ]
    draws = []  # (thread, size, address) of every batch's draw
    real = simulate._batch_uniforms

    def recording(seed, b, size, out=None):
        draws.append((threading.get_ident(), size, out.ctypes.data))
        got = real(seed, b, size, out=out)
        assert np.array_equal(got, real(seed, b, size))  # the bits of a fresh draw
        return got

    monkeypatch.setattr(simulate, "_batch_uniforms", recording)
    for seed, (cap, pairs) in enumerate(calls, 40):
        monkeypatch.setenv("MECH_EFF_THREADS", str(cap))
        got = repr(paired_compare(Exponential(1.0), pairs, 2, n, seed=seed))
        assert got == paired_alone(cap, pairs, 2, n, seed)
    assert len(draws) == 2 * len(calls)
    # a cap of 1 draws inline, and the caller's widest first call sized the
    # one buffer all its draws reuse
    inline = [d for d in draws if d[0] == threading.get_ident()]
    assert len(inline) == 6
    assert len({address for _, _, address in inline}) == 1
    # every thread reuses its buffer until a draw outgrows it
    largest = {}
    for thread, size, address in draws:
        held_size, held_address = largest.get(thread, (0, None))
        if size <= held_size:
            assert address == held_address
        else:
            largest[thread] = size, address


def test_concurrent_callers_share_the_pool(monkeypatch):
    # two callers of different widths interleave their batches on one pool
    # with more workers than this machine's CPUs may have
    monkeypatch.setenv("MECH_EFF_THREADS", "3")
    n = 2 * BATCH_TRIALS + 99
    calls = [
        (Exponential(1.0), [(20, 18), (4, 1)], 2, n, 51),
        (PFamily(eps=0.5, r=1.0), [(3, 2)], 1, n, 52),
    ]
    expected = [paired_compare(*call) for call in calls]
    got = [None] * len(calls)
    start = threading.Barrier(len(calls), timeout=60)

    def call(i):
        start.wait()
        got[i] = paired_compare(*calls[i])

    callers = [threading.Thread(target=call, args=(i,)) for i in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_does_not_use_the_inherited_pool(monkeypatch):
    # the parent's 2-thread pool has live workers; the child's copy has none,
    # so without the at-fork hook the child's call waits on it forever
    monkeypatch.setenv("MECH_EFF_THREADS", "2")

    def call():
        return repr(paired_compare(Exponential(1.0), [(20, 18)], 2, BATCH_TRIALS + 5, seed=61))

    expected = call()
    pid = os.fork()
    if pid == 0:  # the child answers by its exit status and never returns to pytest
        code = 2
        try:
            code = 0 if call() == expected else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG)) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's call hung")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status[1]) == 0
