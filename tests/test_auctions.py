import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecheff.auctions import ema, rma

bids_st = st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=9)
t_st = st.integers(1, 4)
reserve_st = st.floats(0.01, 50.0)


def test_ema_examples():
    out = ema([3, 1, 2], t=1)
    assert out.winner_set == {0} and out.payments[0] == 2.0
    assert out.efficiency == 3.0 and out.revenue == 2.0

    out = ema([3, 2, 1.5, 0.5], t=2)
    assert out.winner_set == {0, 1}
    assert out.payments == {0: 1.5, 1: 1.5}
    assert out.efficiency == 5.0 and out.revenue == 3.0

    out = ema([4], t=2)
    assert out.winner_set == {0} and out.payments[0] == 0.0
    assert out.efficiency == 4.0 and out.revenue == 0.0


def test_rma_examples():
    out = rma([3, 1, 2], t=1, reserve=2.5)
    assert out.winner_set == {0} and out.payments[0] == 2.5

    out = rma([3, 2, 0.5, 1.5], t=2, reserve=1.0)
    assert out.winner_set == {0, 1}
    assert out.payments == {0: 1.5, 1: 1.5}
    assert out.revenue == 3.0

    out = rma([0.4, 0.3], t=1, reserve=0.5)
    assert out.winners == () and out.efficiency == 0.0 and out.revenue == 0.0


def test_tie_break_lowest_index():
    out = ema([2.0, 2.0, 2.0], t=2)
    assert out.winners == (0, 1)
    assert out.payments == {0: 2.0, 1: 2.0}
    out = rma([1.0, 1.0], t=1, reserve=1.0)
    assert out.winners == (0,)


def test_rma_single_bidder_pays_reserve():
    out = rma([2.0], t=1, reserve=0.7)
    assert out.payments == {0: 0.7} and out.revenue == 0.7


def test_validation():
    with pytest.raises(ValueError):
        ema([], t=1)
    with pytest.raises(ValueError):
        ema([1.0], t=0)
    with pytest.raises(ValueError):
        ema([-1.0], t=1)
    with pytest.raises(ValueError):
        ema([float("inf")], t=1)
    with pytest.raises(ValueError):
        rma([1.0], t=1, reserve=0.0)


@given(bids_st, t_st)
@settings(max_examples=200)
def test_ema_outcome_invariants(bids, t):
    out = ema(bids, t)
    assert len(out.winners) == min(t, len(bids))
    assert set(out.payments) == set(out.winners)
    assert out.efficiency == pytest.approx(sum(bids[i] for i in out.winners))
    assert out.revenue == pytest.approx(sum(out.payments.values()))
    for i in out.winners:
        assert out.payments[i] <= bids[i] + 1e-12  # individual rationality


@given(bids_st, t_st, reserve_st)
@settings(max_examples=200)
def test_rma_outcome_invariants(bids, t, reserve):
    out = rma(bids, t, reserve)
    assert len(out.winners) <= t
    assert set(out.payments) == set(out.winners)
    assert out.revenue == pytest.approx(sum(out.payments.values()))
    for i in out.winners:
        assert bids[i] >= reserve
        assert out.payments[i] >= reserve
        assert out.payments[i] <= bids[i] + 1e-12


@given(bids_st, t_st, reserve_st)
@settings(max_examples=200)
def test_reserve_only_excludes(bids, t, reserve):
    # the reserve can only remove winners, never improve efficiency
    assert ema(bids, t).efficiency >= rma(bids, t, reserve).efficiency - 1e-12


@given(bids_st, t_st, reserve_st)
@settings(max_examples=100)
def test_determinism(bids, t, reserve):
    assert ema(bids, t) == ema(list(bids), t)
    assert rma(bids, t, reserve) == rma(list(bids), t, reserve)


@given(bids_st, t_st)
@settings(max_examples=200)
def test_removing_deep_loser_preserves_ema(bids, t):
    if len(bids) <= t + 1:
        return
    price = sorted(bids, reverse=True)[t]
    idx = min(range(len(bids)), key=lambda i: bids[i])
    if bids[idx] >= price:
        return
    out_full = ema(bids, t)
    out_drop = ema(bids[:idx] + bids[idx + 1 :], t)
    assert sorted(out_full.payments.values()) == sorted(out_drop.payments.values())
    assert out_full.efficiency == pytest.approx(out_drop.efficiency)
    assert out_full.revenue == pytest.approx(out_drop.revenue)


@given(st.lists(st.floats(0.001, 100.0), min_size=1, max_size=9))
@settings(max_examples=100)
def test_vanishing_reserve_matches_ema(bids):
    # with every bid positive, a reserve below all bids changes nothing
    out_r = rma(bids, t=1, reserve=1e-300)
    out_e = ema(bids, t=1)
    assert out_r.winners == out_e.winners
    assert out_r.efficiency == out_e.efficiency
    assert out_r.revenue == pytest.approx(out_e.revenue)


@given(
    st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=9),
    t_st,
    st.sampled_from([None, 0.5, 1.0, 2.0]),
)
@settings(max_examples=300)
def test_winners_follow_bid_then_index_under_ties(bids, t, reserve):
    # bidder i ranks behind every higher bid and every equal bid of a lower
    # index; -0.0 ties with 0.0, and bids at the reserve clear it
    rank = {
        i: sum(b > bid or (b == bid and j < i) for j, b in enumerate(bids))
        for i, bid in enumerate(bids)
    }
    floor = 0.0 if reserve is None else reserve
    expected = tuple(i for i in sorted(rank, key=rank.get) if rank[i] < t and bids[i] >= floor)
    out = ema(bids, t) if reserve is None else rma(bids, t, reserve)
    assert out.winners == expected
    assert set(out.payments) == set(expected)
