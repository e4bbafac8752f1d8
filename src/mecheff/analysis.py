"""Closed-form gain/loss calculus for reserve-price auctions.

Fix a value distribution with reserve r and phi = F(r-). When all k
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

import functools
import math
import operator
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .distributions import ALPHA, ValueDistribution, check_phi
from .errors import DegenerateConditioning, DomainError, SearchExhausted
from .numerics import adaptive_simpson, simpson_sweep

_LOG_INV_ALPHA = math.log(1.0 / ALPHA)
_MAX_TERMS = 10_000_000
_LOG_CUTOFF = math.log(1e-20)
# the (1+eps) slack of the t-item bound 2.2 log k + t*Theta(log log k)
EPSILON_SLACK = 0.1


def _tail_series(x, k: int):
    """S(x, k) = sum_{j>=1} x^j/(k+j), elementwise, for x >= 0.

    Equals -( ln(1-x) + sum_{i<=k} x^i/i ) / x^k without cancellation, and
    converges geometrically for 0 <= x < 1. The sum stops at the first j
    whose largest term is <= 1e-20, that term included. Rounded multiply
    and divide are monotone in x >= 0, so the largest term at every j is
    the one at the largest x: a loop over floats at that x finds the stop
    (and is the whole sum for a scalar), and an array takes the same j
    steps vectorised across its elements. Raises DomainError up front,
    rather than truncate, when the terms are still above 1e-20 at the
    `_MAX_TERMS`-th.
    """
    arr = np.asarray(x, dtype=np.float64)
    x_max = float(arr.max(initial=0.0))  # NaN stays NaN and is refused
    if x_max != 0.0 and not _MAX_TERMS * math.log(x_max) - math.log(k + _MAX_TERMS) <= _LOG_CUTOFF:
        raise DomainError(f"S(x, {k}) at x = {x_max!r} needs over {_MAX_TERMS} terms")
    p, s, term, n = 1.0, 0.0, 1.0, 0
    while term > 1e-20:
        n += 1
        p *= x_max
        term = p / (k + n)
        s += term
    if arr.ndim == 0:
        return s
    p, s, term = np.ones_like(arr), np.zeros_like(arr), np.empty_like(arr)
    for j in range(1, n + 1):
        p *= arr
        np.divide(p, k + j, out=term)
        s += term
    return s


def _quadrature_tol(r: float) -> float:
    """The library's one quadrature tolerance, 1e-10 * max(1, r): an
    integral over [0, r] rounds at about 1e-16 * r."""
    return 1e-10 * max(1.0, r)


def order_stat_cdf(dist: ValueDistribution, k: int, x) -> float:
    """cdf of the maximum of k i.i.d. draws: cdf(x)**k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return dist.cdf(x) ** k


def loss_numeric(
    dist: ValueDistribution, k: int | Sequence[int], method: str = "cdf"
) -> float | tuple[float, ...]:
    """Expected best-of-k value conditioned on all k falling below the reserve.

    Evaluated by adaptive quadrature of the conditioned order-statistic
    integral; `method="cdf"` integrates r - int_0^r (F/F(r))^k dx (needs
    only the cdf), `method="density"` integrates x d(F/F(r))^k directly.
    The distribution's `kinks` are passed to the quadrature as
    breakpoints. The conditioning probability appears inside the integrand
    so the quadrature tolerance, `_quadrature_tol(r)`, carries over to the
    conditional value.

    `k` is an int, giving a float, or a sequence of ints (a k sweep),
    giving a tuple with one loss per k in order. Each k keeps its own
    Simpson tree, and `simpson_sweep` refines every k's tree together, one
    level at a time, so a sweep returns exactly the floats of its per-k
    calls, and those of `adaptive_simpson` on each k's integrand. Each
    level evaluates the cdf (and for `density` the pdf) once on the array
    of its distinct nodes; the powers of the weight are Python floats, as
    numpy's array power can differ from `**` in the last bit.

    Raises DegenerateConditioning when the below-reserve event has
    probability under 1e-12 (the conditional loss is 0 in the limit).
    """
    scalar = np.ndim(k) == 0
    ks = [operator.index(j) for j in ((k,) if scalar else k)]
    if any(j < 1 for j in ks):
        raise ValueError("k must be at least 1")
    if method not in ("cdf", "density"):
        raise ValueError(f"method must be 'cdf' or 'density', got {method!r}")
    r, phi = dist.reserve, dist.phi
    if phi < 1e-12:
        raise DegenerateConditioning(f"F({r}-) = {phi}; no mass below the reserve")
    js = np.array(ks)
    exponents = js - 1 if method == "density" else js

    def integrand(idx, xs):
        # clamping at phi = F(r-) keeps an atom exactly at r out of the
        # endpoint samples, and on [0, r) the two agree
        nodes, at = np.unique(xs, return_inverse=True)
        weight = (np.minimum(dist.cdf(nodes), phi) / phi)[at]
        power = np.array([w**e for w, e in zip(weight.tolist(), exponents[idx].tolist())])
        if method == "cdf":
            return power
        return xs * js[idx] * power * dist.pdf(nodes)[at] / phi

    areas = simpson_sweep(integrand, len(ks), 0.0, r, tol=_quadrature_tol(r), breakpoints=dist.kinks)
    losses = tuple(r - a for a in areas) if method == "cdf" else areas
    return losses[0] if scalar else losses


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
    arr = np.asarray(x, dtype=np.float64)
    if not np.all((arr >= 0.0) & (arr < 1.0)):  # NaN too
        raise DomainError("x must lie in [0, 1)")
    out = arr**k * (arr**m - _tail_series(arr, k))
    return float(out) if arr.ndim == 0 else out


def _bound(k, formula):
    """`formula` of k as float64 (exact for k up to 2**53), refusing any
    k < 1 or NaN: an int for a scalar k, else a tuple of Python ints."""
    ks = np.asarray(k, dtype=np.float64)
    if not np.all(ks >= 1.0):
        raise ValueError("k must be at least 1")
    m = np.asarray(formula(ks)).astype(np.int64)
    return int(m) if np.ndim(k) == 0 else tuple(m.tolist())


def upper_bound_m(k):
    """Extra bidders that suffice for any nondecreasing-hazard distribution:
    floor(log_{1/alpha}(2k)) + 2 with alpha = 1 - 1/e.

    `k` is an int, giving an int, or a sequence or array of them, giving a
    tuple of Python ints; both go through the same numpy expression."""
    return _bound(k, lambda ks: np.floor(np.log(2.0 * ks) / _LOG_INV_ALPHA) + 2)


def lower_bound_m(k):
    """Extra bidders that provably do not suffice for the extremal family:
    max(0, floor(log_{1/alpha}((k+1)*(1-alpha))) + 1).

    Takes one k or many, as `upper_bound_m` does."""

    def formula(ks):
        return np.maximum(0.0, np.floor(np.log((ks + 1.0) * (1.0 - ALPHA)) / _LOG_INV_ALPHA) + 1)

    return _bound(k, formula)


def multi_item_s(t: int, m: int) -> int:
    """Additional bidders for the t-item extension beyond the single-item m:
    ceil(t + (1+eps)*t*ln(m) + ln(t)) with eps = EPSILON_SLACK.

    Includes the ln(t) safety term the binomial-tail argument needs; natural
    logs throughout (a larger s never weakens the guarantee).
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if m < 2:
        raise ValueError("m must be at least 2")
    return math.ceil(t + (1.0 + EPSILON_SLACK) * t * math.log(m) + math.log(t))


def multi_gain_exact(phi: float, r: float, m: int, s: int, t_res: int) -> float:
    """Expected reserve-floored contribution of m+s extra bidders to t_res
    residual items: r*(t_res - sum_{j<t_res} a_j*(t_res-j)) with binomial
    weights a_j = C(m+s, j) * phi^(m+s-j) * (1-phi)^j.

    At least r*t_res*(1-phi^m) whenever s >= multi_item_s(t_res, m).
    """
    if m < 1 or s < 1 or t_res < 1:
        raise ValueError("m, s and t_res must be at least 1")
    phi = check_phi(phi)
    n = m + s
    shortfall = 0.0
    for j in range(t_res):
        try:
            a_j = math.comb(n, j) * phi ** (n - j) * (1.0 - phi) ** j
        except OverflowError:  # C(n, j) is past float range: weigh the term in logs
            a_j = 0.0
            if 0.0 < phi < 1.0:
                a_j = math.exp(math.log(math.comb(n, j)) + (n - j) * math.log(phi) + j * math.log1p(-phi))
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

    return adaptive_simpson(integrand, 0.0, r, tol=_quadrature_tol(r))


class Counterexample(NamedTuple):
    """A capped heavy-tail eps that beats m extra bidders, its shortfall
    `loss_p_unconditional(eps, r, k)` and the extra bidders' gain
    `gain(r/(r+eps), r, m)`."""

    eps: float
    loss: float
    gain: float


def regular_counterexample_search(
    k: int, m: int | Sequence[int], r: float, margin: float = 0.0
) -> Counterexample | tuple[Counterexample, ...]:
    """Find eps so the capped heavy-tail family loses more below the cap
    than m extra bidders can recover: Loss(eps) > Gain(eps) + margin.

    Gain(eps) = r*(1 - (r/(r+eps))^m) shrinks linearly in eps while the
    shortfall integral shrinks only like eps*ln(1/eps), so a small enough
    eps always exists for every (k, m). Scans eps geometrically (factor
    1/2) from r down and returns the first success with its loss and gain;
    once the inequality holds it keeps holding as eps shrinks further.

    `m` is an int, giving one Counterexample, or a sequence of ints, giving
    a tuple with one per m in order. Every m walks the same eps = r, r/2,
    ..., so the call computes the loss once per distinct eps, remembered
    only for the length of the call.

    Raises SearchExhausted below eps = 1e-15 (which would contradict the
    existence claim), for the first m in order that gets there.
    """
    scalar = np.ndim(m) == 0
    ms = [operator.index(j) for j in ((m,) if scalar else m)]
    if k < 1 or any(j < 1 for j in ms):
        raise ValueError("k and m must be at least 1")
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be positive and finite, got {r}")
    loss_at = functools.cache(lambda eps: loss_p_unconditional(eps, r, k))

    def search(m):
        eps = r
        while eps > 1e-15:
            loss_p, gain_p = loss_at(eps), gain(r / (r + eps), r, m)
            if loss_p - gain_p > margin:
                return Counterexample(eps, loss_p, gain_p)
            eps *= 0.5
        raise SearchExhausted(
            f"no eps above 1e-15 with Loss > Gain + {margin} for k={k}, m={m}, r={r}"
        )

    found = tuple(search(j) for j in ms)
    return found[0] if scalar else found
