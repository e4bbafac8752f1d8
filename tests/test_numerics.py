import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mecheff.errors import NoConvergence, NoRoot
from mecheff.numerics import _MAX_DEPTH, adaptive_simpson, bisect, bracket_root, simpson_sweep


def test_simpson_exact_on_cubic():
    # Simpson integrates cubics exactly
    assert adaptive_simpson(lambda x: x**3, 0.0, 2.0, 1e-10) == pytest.approx(4.0, abs=1e-13)


def test_simpson_exponential():
    val = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(math.e - 1.0, abs=1e-10)


def test_simpson_kink_with_breakpoint():
    # |x - 0.3| over [0, 1]: 0.5*(0.3^2 + 0.7^2)
    f = lambda x: abs(x - 0.3)
    val = adaptive_simpson(f, 0.0, 1.0, tol=1e-12, breakpoints=[0.3])
    assert val == pytest.approx(0.5 * (0.09 + 0.49), abs=1e-10)


def test_simpson_ignores_outside_breakpoints():
    val = adaptive_simpson(lambda x: x, 0.0, 1.0, 1e-10, breakpoints=[-3.0, 7.0])
    assert val == pytest.approx(0.5, abs=1e-12)


def test_simpson_empty_interval():
    assert adaptive_simpson(lambda x: 1.0, 1.0, 1.0, 1e-10) == 0.0
    assert adaptive_simpson(lambda x: 1.0, 2.0, 1.0, 1e-10) == 0.0


def test_simpson_peaked_integrand():
    # mass concentrated near 0 on a scale of 1e-6, like the heavy-tail search
    eps = 1e-6
    f = lambda x: eps / (x + eps) ** 2
    val = adaptive_simpson(f, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(1.0 - eps / (1.0 + eps), rel=1e-8)


# integrands of one parameter c: smooth, a kink and a jump at c, and an
# infinite slope at c; on the drawn intervals they stay below about 30, so
# rounding never keeps a tree from converging at the drawn tolerances
INTEGRANDS = [
    lambda c: lambda x: c * x**3 - x + 1.0,
    lambda c: lambda x: math.exp(c * x),
    lambda c: lambda x: abs(x - c),
    lambda c: lambda x: 1.0 if x > c else 0.0,
    lambda c: lambda x: math.sqrt(abs(x - c)),
]


def sweep_of(fs, budget=1_000_000):
    """The `simpson_sweep` integrand of the scalar integrands fs, which
    refuses to evaluate more than `budget` points in all."""
    evals = 0

    def f(idx, xs):
        nonlocal evals
        evals += len(xs)
        assert evals <= budget, "the trees are not converging"
        return np.array([fs[i](x) for i, x in zip(idx.tolist(), xs.tolist())])

    return f


def hexes(values):
    return [float(v).hex() for v in values]


@given(
    st.lists(st.tuples(st.integers(0, len(INTEGRANDS) - 1), st.floats(-1.0, 1.0)), max_size=6),
    st.floats(-1.0, 1.0),
    st.floats(-0.5, 2.0),
    st.sampled_from([1e-6, 1e-10, 1e-12]),
    st.lists(st.floats(-2.0, 3.0), max_size=4),
)
@example([(2, 0.25), (3, 0.25)], 0.0, 1.0, 1e-10, [0.25, -1.0, 7.0])  # kinks on a breakpoint
@example([(0, 0.5)], 1.0, 0.0, 1e-10, [])  # b == a
@example([(1, 0.5), (4, 0.1)], 0.5, -0.5, 1e-10, [0.2])  # b < a
@example([], 0.0, 1.0, 1e-10, [0.5])  # no integrands
@settings(max_examples=150, deadline=None)
def test_sweep_equals_recursion_bit_for_bit(specs, a, width, tol, breakpoints):
    fs = [INTEGRANDS[i](c) for i, c in specs]
    b = a + width
    got = simpson_sweep(sweep_of(fs), len(fs), a, b, tol, breakpoints)
    assert hexes(got) == hexes(adaptive_simpson(g, a, b, tol, breakpoints) for g in fs)


def test_sweep_equals_recursion_at_the_depth_cap():
    # a kink at 1e-10 with no breakpoint and a tiny tol: the trees split
    # down to depth 0, so after the knots and the midpoints the sweep
    # evaluates the _MAX_DEPTH + 1 levels from depth _MAX_DEPTH to 0
    fs = [lambda x: abs(x - 1e-10), lambda x: max(0.0, 1e-10 - x), math.exp]
    calls = 0
    f = sweep_of(fs)

    def counted(idx, xs):
        nonlocal calls
        calls += 1
        return f(idx, xs)

    got = simpson_sweep(counted, len(fs), 0.0, 1.0, 1e-30, [])
    assert calls == 2 + _MAX_DEPTH + 1
    assert hexes(got) == hexes(adaptive_simpson(g, 0.0, 1.0, 1e-30) for g in fs)


def test_sweep_that_never_converges_raises_within_its_budget():
    # tol=1e-300 splits every interval, so the tree doubles each level; the
    # integrand stops a sweep that would grow past the budget's reach
    evals = 0

    def f(idx, xs):
        nonlocal evals
        evals += len(xs)
        assert evals <= 1 << 22, "the sweep ran past its interval budget"
        return np.sin(1e3 * xs)

    with pytest.raises(NoConvergence, match="over 262144"):
        simpson_sweep(f, 1, 0.0, 1.0, tol=1e-300)


def test_sweep_of_nothing():
    assert simpson_sweep(sweep_of([]), 0, 0.0, 1.0, 1e-10) == ()
    assert simpson_sweep(sweep_of([math.exp] * 3), 3, 2.0, 1.0, 1e-10) == (0.0, 0.0, 0.0)


def test_bisect_sqrt2():
    root = bisect(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_bracket_then_bisect():
    f = lambda x: math.log(x) - 1.0  # root at e
    lo, hi = bracket_root(f, start=0.5, hi_limit=100.0)
    assert f(lo) <= 0.0 <= f(hi)
    assert bisect(f, lo, hi) == pytest.approx(math.e, abs=1e-10)


def test_bracket_no_root_raises():
    with pytest.raises(NoRoot):
        bracket_root(lambda x: -1.0, start=1.0, hi_limit=100.0)


def test_bracket_root_edges():
    # a root exactly at the start is its own bracket
    assert bracket_root(lambda x: x - 0.5, start=0.5, hi_limit=1.0) == (0.5, 0.5)
    # positive all the way down to 0: no sign change below the start
    with pytest.raises(NoRoot, match="no sign change below the starting point"):
        bracket_root(lambda x: 1.0, start=0.5, hi_limit=1.0)


def test_bisect_returns_exact_zeros():
    # at lo itself, and at the first midpoint
    assert bisect(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect(lambda x: x - 0.5, 0.0, 1.0) == 0.5
