"""Revenue-optimal vs efficiency-optimal auctions over hazard-rate families.

Analytic gain/loss machinery, extra-bidder bounds, truthful mechanism
implementations and a seeded Monte Carlo engine for verifying them.
"""

from .analysis import (
    ALPHA,
    Counterexample,
    gain,
    gain_minus_loss_g,
    loss_closed_form_g,
    loss_numeric,
    lower_bound_m,
    multi_gain_exact,
    multi_item_s,
    order_stat_cdf,
    q_poly,
    regular_counterexample_search,
    upper_bound_m,
)
from .auctions import AuctionOutcome, ema, rma
from .distributions import (
    Exponential,
    GFamily,
    MhrReport,
    PFamily,
    Uniform,
    ValueDistribution,
    domination_check,
    from_spec,
    lemma1_check,
    mhr_check,
    reserve_price,
    to_spec,
    virtual_value,
)
from .errors import (
    DegenerateConditioning,
    DomainError,
    MechEffError,
    NoConvergence,
    NoRoot,
    SearchExhausted,
)
from .simulate import (
    Estimate,
    efficiency_ratio,
    estimate_mechanism,
    paired_compare,
    revenue_compare_bk,
)

__version__ = "0.1.0"
