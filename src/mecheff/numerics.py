"""Scalar quadrature and root finding used by the analytic machinery.

Adaptive Simpson is preferred over fixed-order rules because the integrands
are piecewise smooth with known kink locations (hazard-regime switches,
slab edges); callers pass those as breakpoints so each piece is smooth.
Bisection is used for reserve prices because hazards may be nonsmooth and
derivative-based solvers are unsafe there; the root finder works on the
reserve's domain only, [0, hi_limit] with a finite hi_limit.

Adaptive Simpson has two engines with one result. `adaptive_simpson`
recurses on one scalar integrand; `simpson_sweep` refines the trees of
many integrands over one interval together, one level at a time, as numpy
arrays, and returns the floats the recursion would, bit for bit. The call's
shape picks the engine. The recursion stays for single integrands: numpy
pays a fixed cost per level, and deep, narrow trees do not amortize it.
`loss_p_unconditional` over 16 eps x k = 1..5 took 18.5 ms recursively and
42.3 ms on the level engine at one integrand per call, and batching
`regular_counterexample_search`'s eps ladder in doubling blocks took
19.5 ms against the recursion's 9.8 ms (both bit for bit; 2 CPUs,
Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import NoConvergence, NoRoot

_MAX_DEPTH = 60
_MAX_LIVE = 1 << 18  # intervals `simpson_sweep` refines in one level
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
    tol: float,
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


def simpson_sweep(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n: int,
    a: float,
    b: float,
    tol: float,
    breakpoints: Iterable[float] = (),
) -> tuple[float, ...]:
    """`adaptive_simpson` of n integrands over one [a, b], bit for bit.

    f(idx, xs) returns a float array whose i-th entry is integrand idx[i]
    at xs[i]. It is called for the knots, for the piece midpoints, then
    once per level for the midpoints of every interval still being
    refined, across all integrands. Each level does the recursion's
    arithmetic elementwise and in its order, with `tol/2` per level and a
    leaf at depth 0. A refined interval's value is its left child's plus
    its right child's, summed bottom-up, and each integrand's pieces are
    added left to right from 0.0, so the i-th float is the recursion's for
    integrand i whenever f acts elementwise.

    A level that would refine more than `_MAX_LIVE` intervals raises
    NoConvergence: each level can double the last, and a tree that never
    meets tol would otherwise grow until memory runs out.
    """
    if n == 0 or b <= a:
        return (0.0,) * n
    knots = np.array(sorted({a, b} | {x for x in breakpoints if a < x < b}), dtype=np.float64)
    pieces = len(knots) - 1
    # one row per (integrand, piece), integrand by integrand
    owner = np.repeat(np.arange(n), pieces)
    lo, hi = np.tile(knots[:-1], n), np.tile(knots[1:], n)
    mid = 0.5 * (lo + hi)
    at_knots = f(np.repeat(np.arange(n), pieces + 1), np.tile(knots, n)).reshape(n, pieces + 1)
    flo, fhi, fmid = at_knots[:, :-1].ravel(), at_knots[:, 1:].ravel(), f(owner, mid)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    tols = np.tile(tol * (knots[1:] - knots[:-1]) / (b - a), n)
    levels = []
    for depth in range(_MAX_DEPTH, -1, -1):
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        both = f(np.tile(owner, 2), np.concatenate([lm, rm]))
        flm, frm = np.split(both, 2)
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        delta = left + right - whole
        # Richardson extrapolation of the two half-interval estimates
        value = left + right + delta / 15.0
        # "not <=", so a NaN delta splits, as it does in the recursion
        split = np.flatnonzero(~(np.abs(delta) <= 15.0 * tols)) if depth > 0 else owner[:0]
        levels.append((value, split))
        if not split.size:
            break
        if 2 * split.size > _MAX_LIVE:
            level = _MAX_DEPTH - depth + 1
            raise NoConvergence(f"{2 * split.size} intervals at level {level}, over {_MAX_LIVE}")

        def children(of_left, of_right):
            # the left children, then the right children
            return np.concatenate([of_left[split], of_right[split]])

        half = tols / 2.0
        lo, flo, hi, fhi = children(lo, mid), children(flo, fmid), children(mid, hi), children(fmid, fhi)
        mid, fmid, whole = children(lm, rm), children(flm, frm), children(left, right)
        tols, owner = children(half, half), children(owner, owner)
    # bottom-up: each refined interval is its left child plus its right child
    below = levels.pop()[0]
    for value, split in reversed(levels):
        value[split] = below[: len(split)] + below[len(split) :]
        below = value
    totals = np.zeros(n)
    for piece in below.reshape(n, pieces).T:
        totals += piece
    return tuple(totals.tolist())


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
