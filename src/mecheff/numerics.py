"""Scalar quadrature and root finding used by the analytic machinery.

Adaptive Simpson is preferred over fixed-order rules because the integrands
are piecewise smooth with known kink locations (hazard-regime switches,
slab edges); callers pass those as breakpoints so each piece is smooth.
Bisection is used for reserve prices because hazards may be nonsmooth and
derivative-based solvers are unsafe there; the root finder works on the
reserve's domain only, [0, hi_limit] with a finite hi_limit.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import NoRoot

_MAX_DEPTH = 60
_MAX_EXPANSIONS = 200
_MAX_BISECTIONS = 200
_BISECT_WIDTH = 1e-12


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
    hi_limit: float,
) -> tuple[float, float]:
    """Find [lo, hi] in [0, hi_limit] with f(lo) <= 0 <= f(hi) by geometric
    expansion from start, or from 1e-6 when start is outside (0, hi_limit].

    hi_limit is finite: below start the expansion halves lo toward 0, above
    it halves the gap to hi_limit. Assumes f is (weakly) increasing where
    it matters, which holds for x*h(x) - 1 under a monotone hazard. Raises
    NoRoot when the expansion finds no sign change.
    """
    if not 0.0 < start <= hi_limit:
        start = 1e-6
    f0 = f(start)
    if f0 == 0.0:
        return start, start
    if f0 > 0.0:
        lo = start
        for _ in range(_MAX_EXPANSIONS):
            lo /= 2.0
            if f(lo) <= 0.0:
                return lo, start
        raise NoRoot("no sign change below the starting point")
    hi = start
    for _ in range(_MAX_EXPANSIONS):
        nxt = 0.5 * (hi + hi_limit)
        if hi_limit - nxt < 1e-15 * max(1.0, hi_limit):
            break
        hi = nxt
        if f(hi) >= 0.0:
            return start, hi
    raise NoRoot("x*h(x) stays below 1 over the whole support")


def bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisect a bracketing interval down to a width of 1e-12."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= _BISECT_WIDTH:
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
