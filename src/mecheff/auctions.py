"""Truthful sealed-bid mechanisms for t identical unit-demand items.

Both mechanisms are one second-price rule: the bids among the t highest
that are at or above a reserve win, and each winner pays the larger of the
reserve and the (t+1)-th highest bid. `rma`, the revenue-maximizing rule
for regular value distributions, is that rule at the monopoly reserve;
`ema`, the efficiency-maximizing (Vickrey) rule, is its reserve-0 case, in
which the t highest bidders win and pay the (t+1)-th highest bid. Bidders
bid their values, so efficiency is the winners' bid sum, added highest
first, and revenue the payment sum.

Ties are broken by lowest bidder index. Value draws are atomless for
continuous families, but the atom-bearing families make ties a real event,
and a total deterministic rule keeps runs reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class AuctionOutcome:
    """Allocation and the one price every winner pays, for one bid vector."""

    winners: tuple[int, ...]
    price: float
    efficiency: float
    revenue: float


def _second_price(bids: Sequence[float], t: int, reserve: float) -> AuctionOutcome:
    if t < 1:
        raise ValueError("t must be at least 1")
    b = [float(x) for x in bids]
    if not b:
        raise ValueError("bid vector must be nonempty")
    for x in b:
        if not math.isfinite(x) or x < 0.0:
            raise ValueError(f"bids must be finite and nonnegative, got {x}")
    # highest first; the sort is stable under reverse=True, so ties keep the lower index first
    order = sorted(range(len(b)), key=b.__getitem__, reverse=True)
    # the bids at or above the reserve form a prefix of the ranking
    winners = tuple(i for i in order[:t] if b[i] >= reserve)
    price = max(reserve, b[order[t]] if len(b) > t else 0.0)
    # one addition at a time, highest first: sum() compensates from Python 3.12 on
    efficiency = 0.0
    for i in winners:
        efficiency += b[i]
    return AuctionOutcome(winners=winners, price=price, efficiency=efficiency, revenue=price * len(winners))


def ema(bids: Sequence[float], t: int = 1) -> AuctionOutcome:
    """Sell t items to the t highest bidders at the (t+1)-th highest bid.

    With t or fewer bidders everyone wins and pays 0 (no (t+1)-th bid
    exists).
    """
    return _second_price(bids, t, 0.0)


def rma(bids: Sequence[float], t: int, reserve: float) -> AuctionOutcome:
    """Sell up to t items among bids >= reserve at max(reserve, (t+1)-th bid).

    The (t+1)-th highest bid is taken over all bids; when fewer than t+1
    bids exist the missing bid counts as 0 and the reserve floors the
    price. No eligible bids means no sale.
    """
    if not (reserve > 0.0 and math.isfinite(reserve)):
        raise ValueError(f"reserve must be positive and finite, got {reserve}")
    return _second_price(bids, t, reserve)
