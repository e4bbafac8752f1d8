"""Scalar quadrature and root finding used by the analytic machinery.

Adaptive Simpson is preferred over fixed-order rules because the integrands
are piecewise smooth with known kink locations (hazard-regime switches,
slab edges); callers pass those as breakpoints so each piece is smooth.
Bisection is used for reserve prices because hazards may be nonsmooth and
derivative-based solvers are unsafe there.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from .errors import NoRoot

_MAX_DEPTH = 60
_MAX_EXPANSIONS = 200
_MAX_BISECTIONS = 200


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        # Richardson extrapolation of the two half-interval estimates
        return left + right + delta / 15.0
    return _adaptive(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1) + _adaptive(
        f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1
    )


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    breakpoints: Iterable[float] = (),
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    breakpoints inside (a, b) force initial subdivision so the adaptive
    refinement never straddles a kink.
    """
    if b <= a:
        return 0.0
    knots = sorted({a, b} | {x for x in breakpoints if a < x < b})
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        flo, fhi = f(lo), f(hi)
        piece_tol = tol * (hi - lo) / (b - a)
        m, fm, whole = _simpson(f, lo, flo, hi, fhi)
        total += _adaptive(f, lo, flo, hi, fhi, m, fm, whole, piece_tol, _MAX_DEPTH)
    return total


def bracket_root(
    f: Callable[[float], float],
    start: float,
    lo_limit: float = 0.0,
    hi_limit: float = math.inf,
) -> tuple[float, float]:
    """Find [lo, hi] with f(lo) <= 0 <= f(hi) by geometric expansion from start.

    Assumes f is (weakly) increasing where it matters, which holds for
    x*h(x) - 1 under a monotone hazard. Raises NoRoot when the expansion
    hits the support limits without a sign change.
    """
    if not (lo_limit <= start <= hi_limit) or start <= 0:
        start = max(lo_limit, 1e-6) if math.isfinite(hi_limit) else 1.0
    f0 = f(start)
    if f0 == 0.0:
        return start, start
    if f0 > 0.0:
        hi = start
        lo = start
        for _ in range(_MAX_EXPANSIONS):
            lo = max(lo_limit, lo / 2.0)
            if f(lo) <= 0.0:
                return lo, hi
            if lo <= lo_limit:
                break
        raise NoRoot("no sign change below the starting point")
    lo = start
    hi = start
    for _ in range(_MAX_EXPANSIONS):
        if math.isfinite(hi_limit):
            nxt = 0.5 * (hi + hi_limit)
            if hi_limit - nxt < 1e-15 * max(1.0, hi_limit):
                break
        else:
            nxt = hi * 2.0
        hi = nxt
        if f(hi) >= 0.0:
            return lo, hi
    raise NoRoot("x*h(x) stays below 1 over the whole support")


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    width: float = 1e-12,
) -> float:
    """Bisect a bracketing interval down to the requested width."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
