import math

import pytest

from mecheff.errors import NoRoot
from mecheff.numerics import adaptive_simpson, bisect, bracket_root


def test_simpson_exact_on_cubic():
    # Simpson integrates cubics exactly
    assert adaptive_simpson(lambda x: x**3, 0.0, 2.0) == pytest.approx(4.0, abs=1e-13)


def test_simpson_exponential():
    val = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(math.e - 1.0, abs=1e-10)


def test_simpson_kink_with_breakpoint():
    # |x - 0.3| over [0, 1]: 0.5*(0.3^2 + 0.7^2)
    f = lambda x: abs(x - 0.3)
    val = adaptive_simpson(f, 0.0, 1.0, tol=1e-12, breakpoints=[0.3])
    assert val == pytest.approx(0.5 * (0.09 + 0.49), abs=1e-10)


def test_simpson_ignores_outside_breakpoints():
    val = adaptive_simpson(lambda x: x, 0.0, 1.0, breakpoints=[-3.0, 7.0])
    assert val == pytest.approx(0.5, abs=1e-12)


def test_simpson_empty_interval():
    assert adaptive_simpson(lambda x: 1.0, 1.0, 1.0) == 0.0
    assert adaptive_simpson(lambda x: 1.0, 2.0, 1.0) == 0.0


def test_simpson_peaked_integrand():
    # mass concentrated near 0 on a scale of 1e-6, like the heavy-tail search
    eps = 1e-6
    f = lambda x: eps / (x + eps) ** 2
    val = adaptive_simpson(f, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(1.0 - eps / (1.0 + eps), rel=1e-8)


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
