"""Closed-form gain/loss calculus for reserve-price auctions.

Fix a value distribution with reserve r and phi = cdf(r). When all k
original bidders fall below the reserve, the efficiency-optimal auction
still earns the best of their values while the reserve-price auction earns
nothing from them; the conditional expectation of that shortfall is `loss`.
With m extra bidders, the chance that at least one clears the reserve is
1 - phi^m, contributing at least r each time; that floor is `gain`. Whether
gain covers loss for every nondecreasing-hazard distribution reduces to the
sign of a single series

    q(x) = x^(k+m) + ln(1-x) + sum_{i=1..k} x^i/i

on [0, 1-1/e], because the extremal family maximizes the loss within every
(r, phi) class. `upper_bound_m` gives an m making q <= 0 there (enough
extra bidders for any such distribution); `lower_bound_m` gives the m up to
which q(1-1/e) > 0 (too few for the extremal one).

Numerics: ln(1-x) and the partial sum cancel almost exactly, so the direct
expression loses all precision once x^k is small. Everything here is
evaluated through the algebraically identical tail form

    q(x) = x^k * (x^m - S(x, k)),    S(x, k) = sum_{j>=1} x^j/(k+j),

whose terms are single-signed.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import ALPHA, GFamily, ValueDistribution, cdf_left, check_phi, reserve_price
from .errors import DegenerateConditioning, DomainError, SearchExhausted
from .numerics import adaptive_simpson

__all__ = [
    "ALPHA",
    "order_stat_cdf",
    "loss_numeric",
    "loss_closed_form_g",
    "gain",
    "gain_minus_loss_g",
    "q_poly",
    "q_prime",
    "upper_bound_m",
    "lower_bound_m",
    "multi_item_s",
    "multi_gain_exact",
    "loss_p_unconditional",
    "regular_counterexample_search",
]

_LOG_INV_ALPHA = math.log(1.0 / ALPHA)


def _tail_series(x, k: int):
    """S(x, k) = sum_{j>=1} x^j/(k+j), elementwise, truncated below 1e-20.

    Equals -( ln(1-x) + sum_{i<=k} x^i/i ) / x^k without cancellation.
    Converges geometrically for 0 <= x < 1.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    s = np.zeros_like(arr)
    p = np.ones_like(arr)
    j = 0
    while True:
        j += 1
        p = p * arr
        term = p / (k + j)
        s += term
        if float(term.max(initial=0.0)) <= 1e-20 or j >= 10_000_000:
            break
    return s if np.ndim(x) else float(s[0])


def order_stat_cdf(dist: ValueDistribution, k: int, x) -> float:
    """cdf of the maximum of k i.i.d. draws: cdf(x)**k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return dist.cdf(x) ** k


def loss_numeric(dist: ValueDistribution, k: int, method: str = "cdf") -> float:
    """Expected best-of-k value conditioned on all k falling below the reserve.

    Evaluated by adaptive quadrature of the conditioned order-statistic
    integral; `method="cdf"` integrates r - int_0^r (F/F(r))^k dx (needs
    only the cdf), `method="density"` integrates x d(F/F(r))^k directly.
    Known kinks and atom locations are passed to the quadrature as
    breakpoints. The conditioning probability appears inside the integrand
    so the absolute quadrature tolerance (1e-10) carries over to the
    conditional value.

    Raises DegenerateConditioning when the below-reserve event has
    probability under 1e-12 (the conditional loss is 0 in the limit).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    r = reserve_price(dist)
    phi = cdf_left(dist, r)
    if phi < 1e-12:
        raise DegenerateConditioning(f"cdf({r}) = {phi}; no mass below the reserve")
    breaks = [loc for loc, _ in dist.atoms if 0.0 < loc < r]
    if isinstance(dist, GFamily):
        breaks.append(dist.t_knot)

    # clamping at phi = F(r-) keeps an atom exactly at r out of the endpoint
    # samples; on [0, r) the two agree
    if method == "cdf":

        def integrand(x):
            return (min(float(dist.cdf(x)), phi) / phi) ** k

        return r - adaptive_simpson(integrand, 0.0, r, tol=1e-10, breakpoints=breaks)
    if method == "density":

        def integrand(x):
            w = min(float(dist.cdf(x)), phi) / phi
            return x * k * w ** (k - 1) * float(dist.pdf(x)) / phi

        return adaptive_simpson(integrand, 0.0, r, tol=1e-10, breakpoints=breaks)
    raise ValueError(f"method must be 'cdf' or 'density', got {method!r}")


def loss_closed_form_g(phi: float, r: float, k: int) -> float:
    """Conditional below-reserve loss of the extremal family, in closed form.

    Equals r*(phi^k + ln(1-phi) + sum_{i<=k} phi^i/i)/phi^k, computed as
    r*(1 - S(phi, k)); always in [0, r].
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    phi = check_phi(phi, lo_open=True)
    return r * (1.0 - _tail_series(phi, k))


def gain(phi: float, r: float, m: int) -> float:
    """Reserve-crossing floor from m extra bidders: (1 - phi^m) * r."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return (1.0 - phi**m) * r


def gain_minus_loss_g(phi: float, r: float, k: int, m: int) -> float:
    """gain - loss for the extremal family, as the single stable expression
    r*(S(phi, k) - phi^m). Negative exactly where extra bidders fall short."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be at least 1")
    phi = check_phi(phi, lo_open=True)
    return r * (_tail_series(phi, k) - phi**m)


def q_poly(x, k: int, m: int):
    """q(x) = x^(k+m) + ln(1-x) + sum_{i=1..k} x^i/i, for 0 <= x < 1.

    Evaluated via the cancellation-free tail form x^k*(x^m - S(x, k)).
    Scalar or elementwise over arrays; q(0) = 0 exactly.
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be at least 1")
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any((arr < 0.0) | (arr >= 1.0)):
        raise DomainError("x must lie in [0, 1)")
    out = arr**k * (arr**m - _tail_series(arr, k))
    return float(out[0]) if np.ndim(x) == 0 else out


def q_prime(x, k: int, m: int):
    """Derivative of q: (x^k/(1-x)) * ((k+m)*x^(m-1)*(1-x) - 1)."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be at least 1")
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any((arr < 0.0) | (arr >= 1.0)):
        raise DomainError("x must lie in [0, 1)")
    out = arr**k / (1.0 - arr) * ((k + m) * arr ** (m - 1) * (1.0 - arr) - 1.0)
    return float(out[0]) if np.ndim(x) == 0 else out


def upper_bound_m(k: int) -> int:
    """Extra bidders that suffice for any nondecreasing-hazard distribution:
    floor(log_{1/alpha}(2k)) + 2 with alpha = 1 - 1/e."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return math.floor(math.log(2.0 * k) / _LOG_INV_ALPHA) + 2


def lower_bound_m(k: int) -> int:
    """Extra bidders that provably do not suffice for the extremal family:
    max(0, floor(log_{1/alpha}((k+1)*(1-alpha))) + 1)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return max(0, math.floor(math.log((k + 1) * (1.0 - ALPHA)) / _LOG_INV_ALPHA) + 1)


def multi_item_s(t: int, m: int, epsilon_slack: float) -> int:
    """Additional bidders for the t-item extension beyond the single-item m:
    ceil(t + (1+eps)*t*ln(m) + ln(t)).

    Includes the ln(t) safety term the binomial-tail argument needs; natural
    logs throughout (a larger s never weakens the guarantee).
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if m < 2:
        raise ValueError("m must be at least 2")
    if not epsilon_slack > 0.0:
        raise ValueError("epsilon_slack must be positive")
    return math.ceil(t + (1.0 + epsilon_slack) * t * math.log(m) + math.log(t))


def multi_gain_exact(phi: float, r: float, m: int, s: int, t_res: int) -> float:
    """Expected reserve-floored contribution of m+s extra bidders to t_res
    residual items: r*(t_res - sum_{j<t_res} a_j*(t_res-j)) with binomial
    weights a_j = C(m+s, j) * phi^(m+s-j) * (1-phi)^j.

    At least r*t_res*(1-phi^m) whenever s >= multi_item_s(t_res, m, eps).
    """
    if m < 1 or s < 1 or t_res < 1:
        raise ValueError("m, s and t_res must be at least 1")
    phi = check_phi(phi)
    n = m + s
    shortfall = 0.0
    for j in range(t_res):
        a_j = math.comb(n, j) * phi ** (n - j) * (1.0 - phi) ** j
        shortfall += a_j * (t_res - j)
    return r * (t_res - shortfall)


def loss_p_unconditional(eps: float, r: float, k: int) -> float:
    """int_0^r x d(F^k) for the capped heavy-tail family, continuous part.

    F(x) = x/(x+eps) below the cap, so the integrand is
    k*eps*x^k/(x+eps)^(k+1). This is the unconditional shortfall (already
    weighted by the below-cap probability), the quantity the counterexample
    search pits against the extra-bidder gain.
    """
    if k < 1:
        raise ValueError("k must be at least 1")

    def integrand(x):
        return k * eps * x**k / (x + eps) ** (k + 1)

    return adaptive_simpson(integrand, 0.0, r, tol=1e-10)


def regular_counterexample_search(
    k: int, m: int, r: float = 1.0, margin: float = 0.0
) -> float:
    """Find eps so the capped heavy-tail family loses more below the cap
    than m extra bidders can recover: Loss(eps) > Gain(eps) + margin.

    Gain(eps) = r*(1 - (r/(r+eps))^m) shrinks linearly in eps while the
    shortfall integral shrinks only like eps*ln(1/eps), so a small enough
    eps always exists for every (k, m). Scans eps geometrically (factor
    1/2) from r down and returns the first success; once the inequality
    holds it keeps holding as eps shrinks further.

    Raises SearchExhausted below eps = 1e-15 (which would contradict the
    existence claim).
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be at least 1")
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be positive and finite, got {r}")
    eps = r
    while eps > 1e-15:
        gain_p = r * (1.0 - (r / (r + eps)) ** m)
        loss_p = loss_p_unconditional(eps, r, k)
        if loss_p - gain_p > margin:
            return eps
        eps *= 0.5
    raise SearchExhausted(
        f"no eps above 1e-15 with Loss > Gain + {margin} for k={k}, m={m}, r={r}"
    )
