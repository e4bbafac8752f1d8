import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecheff import analysis
from mecheff.analysis import (
    ALPHA,
    _tail_series,
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
from mecheff.distributions import Exponential, GFamily, PFamily, Uniform, ValueDistribution, cdf_left, reserve_price
from mecheff.errors import DegenerateConditioning, DomainError, SearchExhausted
from mecheff.numerics import adaptive_simpson


# --- independent oracles ------------------------------------------------------


def q_literal(x, k, m):
    """The series exactly as written, with compensated summation."""
    return math.fsum([x ** (k + m), math.log1p(-x)] + [x**i / i for i in range(1, k + 1)])


def tail_series_by_terms(x, k):
    """S(x, k) = sum_j x^j/(k+j) one term at a time, stopping at the first
    j whose largest term is <= 1e-20."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    s = np.zeros_like(arr)
    p = np.ones_like(arr)
    j = 0
    while True:
        j += 1
        p = p * arr
        term = p / (k + j)
        s += term
        if float(term.max(initial=0.0)) <= 1e-20:
            return s if np.ndim(x) else float(s[0])


def tail_series_exact(x, k):
    """S(x, k) in rationals at the float x, summed until the geometric bound
    on the rest, x^(J+1)/((k+J+1)(1-x)), is below 1e-30 of the sum."""
    x = Fraction(x)
    s, p, j = Fraction(0), Fraction(1), k
    while True:
        j += 1
        p *= x
        s += p / j
        if p * x / ((j + 1) * (1 - x)) < s / 10**30:
            return s


def loss_literal(phi, r, k):
    """Direct closed form: r*(phi^k + ln(1-phi) + sum phi^i/i)/phi^k."""
    num = math.fsum([phi**k, math.log1p(-phi)] + [phi**i / i for i in range(1, k + 1)])
    return r * num / phi**k


def loss_p_closed(eps, r, k):
    """int_0^r x k F^(k-1) f dx for F = x/(x+eps), by the substitution
    u = x/(x+eps): k*eps*(ln((r+eps)/eps) - sum_{j<=k} u_r^j/j)."""
    u_r = r / (r + eps)
    return k * eps * (math.log((r + eps) / eps) - math.fsum(u_r**j / j for j in range(1, k + 1)))


# --- order statistics ----------------------------------------------------------


def test_order_stat_examples():
    assert order_stat_cdf(Uniform(hi=1.0), 2, 0.5) == pytest.approx(0.25, abs=1e-12)
    d = Exponential(0.7)
    for x in (0.1, 1.0, 3.0):
        assert order_stat_cdf(d, 1, x) == pytest.approx(float(d.cdf(x)), abs=1e-15)
    assert order_stat_cdf(Exponential(1.0), 3, 1.0) == pytest.approx(ALPHA**3, abs=1e-12)


def test_order_stat_matches_monte_carlo_max():
    rng = np.random.default_rng(99)
    n = 200_000
    draws = rng.exponential(size=(n, 3)).max(axis=1)
    emp = float(np.mean(draws <= 1.0))
    se = math.sqrt(emp * (1.0 - emp) / n)
    assert abs(emp - order_stat_cdf(Exponential(1.0), 3, 1.0)) < 4.0 * se


# --- conditional loss -----------------------------------------------------------


def test_loss_numeric_exponential():
    # int_0^1 x e^-x dx / (1 - 1/e) = (1 - 2/e)/(1 - 1/e)
    want = (1.0 - 2.0 / math.e) / (1.0 - 1.0 / math.e)
    assert loss_numeric(Exponential(1.0), 1) == pytest.approx(want, rel=1e-8)


def test_loss_numeric_uniform_k2():
    # int_0^.5 x 2x dx / 0.25 = 1/3
    assert loss_numeric(Uniform(hi=1.0), 2) == pytest.approx(1.0 / 3.0, rel=1e-8)


def test_loss_numeric_degenerate():
    with pytest.raises(DegenerateConditioning):
        loss_numeric(GFamily(phi=0.0, r=1.0), 2)


def test_loss_numeric_methods_agree():
    for dist in (Exponential(1.0), Uniform(hi=2.0), GFamily(phi=0.4, r=1.5)):
        for k in (1, 3, 7):
            a = loss_numeric(dist, k, method="cdf")
            b = loss_numeric(dist, k, method="density")
            assert a == pytest.approx(b, abs=1e-8), (dist, k)


class EvaluatorOnlyWeibull(ValueDistribution):
    """Weibull with shape 2 known only through its evaluators: no stored
    reserve, so loss_numeric bisects for it."""

    def cdf(self, x):
        return -np.expm1(-np.maximum(x, 0.0) ** 2)

    def pdf(self, x):
        x = np.maximum(x, 0.0)
        return 2.0 * x * np.exp(-(x**2))

    def quantile(self, u):
        return np.sqrt(-np.log1p(-u))


SWEEP_DISTS = [
    Exponential(1.0),
    Uniform(hi=2.0),
    GFamily(phi=0.4, r=1.5),  # its knot is a breakpoint
    PFamily(eps=0.5, r=1.0),  # atom at r: phi comes from cdf_left
    EvaluatorOnlyWeibull(),
]


def recursive_loss(dist, k, method):
    """`loss_numeric` one k at a time: `adaptive_simpson`'s recursion over
    one scalar cdf (and pdf) call per node."""
    r = reserve_price(dist)
    phi = cdf_left(dist, r)
    breaks = [loc for loc, _ in dist.atoms if 0.0 < loc < r]
    if isinstance(dist, GFamily):
        breaks.append(dist.t_knot)

    def weight(x):
        return min(float(dist.cdf(x)), phi) / phi

    if method == "cdf":
        area = adaptive_simpson(lambda x: weight(x) ** k, 0.0, r, 1e-10 * max(1.0, r), breaks)
        return r - area
    integrand = lambda x: x * k * weight(x) ** (k - 1) * float(dist.pdf(x)) / phi
    return adaptive_simpson(integrand, 0.0, r, 1e-10 * max(1.0, r), breaks)


@pytest.mark.parametrize("method", ["cdf", "density"])
@pytest.mark.parametrize("dist", SWEEP_DISTS, ids=lambda d: type(d).__name__)
def test_loss_sweep_equals_per_k_calls(dist, method):
    # and, bit for bit, the recursion over one scalar evaluation per node
    ks = [3, 1, 8, 2, 13, 5, 8]
    sweep = loss_numeric(dist, ks, method)
    assert isinstance(sweep, tuple)
    assert sweep == tuple(loss_numeric(dist, k, method) for k in ks)
    assert [x.hex() for x in sweep] == [recursive_loss(dist, k, method).hex() for k in ks]


def test_loss_sweep_accepts_ranges_and_numpy_ints():
    dist = GFamily(phi=0.4, r=1.5)
    want = loss_numeric(dist, [1, 2, 3])
    assert loss_numeric(dist, range(1, 4)) == want
    assert loss_numeric(dist, np.arange(1, 4)) == want
    got = loss_numeric(dist, np.int64(2))
    assert type(got) is float and got == want[1]
    assert loss_numeric(dist, []) == ()


def test_loss_sweep_rejects_k_below_one():
    for ks in ([1, 0, 2], [-1], range(0, 3), np.array([2, 0])):
        with pytest.raises(ValueError):
            loss_numeric(Exponential(1.0), ks)


def test_loss_sweep_degenerate_raises_once():
    with pytest.raises(DegenerateConditioning):
        loss_numeric(GFamily(phi=0.0, r=1.0), range(1, 65))


def test_loss_sweep_evaluates_each_node_once_per_call(monkeypatch):
    # the sweep hands the cdf each level's distinct nodes once, so it reads
    # exactly as many points as the per-k recursions visit distinct nodes
    # (793 here on a 2-CPU AVX-512 machine); G's phi is its own field, so
    # no F(r) is read; a memo that outlived a call would make a repeated
    # sweep (as the benchmark's passes are) nearly free
    dist, ks = GFamily(phi=0.4, r=1.5), range(1, 65)
    phi = cdf_left(dist, dist.r)
    nodes = set()

    def weight(x):
        nodes.add(x)
        return min(float(dist.cdf(x)), phi) / phi

    for k in ks:
        adaptive_simpson(lambda x: weight(x) ** k, 0.0, dist.r, 1e-10 * dist.r, [dist.t_knot])
    points = []
    cdf = GFamily.cdf

    def counting_cdf(self, x):
        points.append(np.size(x))
        return cdf(self, x)

    monkeypatch.setattr(GFamily, "cdf", counting_cdf)
    first = loss_numeric(dist, ks)
    assert sum(points) == len(nodes)
    points.clear()
    assert loss_numeric(dist, ks) == first
    assert sum(points) == len(nodes)


def test_loss_closed_form_examples():
    assert loss_closed_form_g(ALPHA, 1.0, 1) == pytest.approx((2.0 * ALPHA - 1.0) / ALPHA, rel=1e-12)
    got = loss_closed_form_g(ALPHA, 1.0, 2)
    want = loss_numeric(GFamily(phi=ALPHA, r=1.0, eps=1e-6), 2)
    assert got == pytest.approx(want, abs=1e-8)


def test_loss_closed_form_scales_exactly_in_r():
    # powers of two make the scaling bit-exact
    for c in (2.0, 8.0, 0.25):
        for k in (1, 4, 9):
            assert loss_closed_form_g(0.3, c * 1.0, k) == c * loss_closed_form_g(0.3, 1.0, k)


def test_loss_closed_form_matches_literal_series():
    # the direct expression is well conditioned at moderate phi^k
    for phi in (0.3, 0.5, ALPHA):
        for k in (1, 2, 5, 10):
            for r in (0.5, 1.0, 7.0):
                assert loss_closed_form_g(phi, r, k) == pytest.approx(
                    loss_literal(phi, r, k), rel=1e-11
                )


def test_loss_closed_form_domain():
    with pytest.raises(DomainError):
        loss_closed_form_g(0.0, 1.0, 1)
    with pytest.raises(DomainError):
        loss_closed_form_g(0.8, 1.0, 1)


def test_loss_in_unit_interval_of_r():
    for phi in (0.01, 0.3, ALPHA):
        for k in (1, 3, 20):
            val = loss_closed_form_g(phi, 2.5, k)
            assert 0.0 <= val <= 2.5


def test_extremality_bounds_every_family():
    # the shared-class extremal loss dominates each family's own loss
    for dist in (Exponential(1.0), Exponential(0.3), Uniform(hi=1.0), Uniform(hi=5.0),
                 GFamily(phi=0.5, r=2.0)):
        r = dist.reserve
        phi = float(dist.cdf(r))
        for k in (1, 2, 5):
            assert loss_numeric(dist, k) <= loss_closed_form_g(min(phi, ALPHA), r, k) + 1e-8


# --- gain and the combined expression -------------------------------------------


def test_gain_examples():
    assert gain(0.0, 3.0, 5) == 3.0
    assert gain(0.5, 1.0, 2) == 0.75
    assert gain(ALPHA, 1.0, 200) == pytest.approx(1.0, abs=1e-8)


def test_gain_minus_loss_identity():
    for phi in (0.05, 0.3, ALPHA):
        for k in (1, 4, 12):
            for m in (1, 3, 8):
                direct = gain(phi, 2.0, m) - loss_closed_form_g(phi, 2.0, k)
                assert gain_minus_loss_g(phi, 2.0, k, m) == pytest.approx(direct, abs=1e-10)


def test_gain_minus_loss_sign_at_bounds():
    for k in (1, 3, 10, 50):
        m_up = upper_bound_m(k)
        assert gain_minus_loss_g(ALPHA, 1.0, k, m_up) >= -1e-12
        m_low = lower_bound_m(k)
        if m_low >= 1:
            assert gain_minus_loss_g(ALPHA, 1.0, k, m_low) < 0.0


@given(
    st.floats(0.05, ALPHA),
    st.floats(0.1, 10.0),
    st.integers(1, 40),
    st.integers(1, 12),
)
@settings(max_examples=200, deadline=None)
def test_eq3_identity_random(phi, r, k, m):
    lhs = gain_minus_loss_g(phi, r, k, m)
    rhs = -r * q_poly(phi, k, m) / phi**k
    assert lhs == pytest.approx(rhs, abs=1e-10)
    assert lhs == pytest.approx(gain(phi, r, m) - loss_closed_form_g(phi, r, k), abs=1e-10)


# --- the series q -----------------------------------------------------------------


def test_q_zero_at_origin():
    assert q_poly(0.0, 3, 2) == 0.0
    assert q_poly(0.0, 1, 1) == 0.0


def test_q_matches_literal_series():
    for k in (1, 2, 5, 10):
        for m in (1, 3, 7):
            for x in (0.05, 0.3, 0.5, ALPHA):
                assert q_poly(x, k, m) == pytest.approx(q_literal(x, k, m), abs=1e-12)


def test_q_domain():
    with pytest.raises(DomainError):
        q_poly(1.0, 2, 2)
    with pytest.raises(DomainError):
        q_poly(-0.1, 2, 2)
    for x in (float("nan"), np.array([0.5, np.nan])):
        with pytest.raises(DomainError, match=r"x must lie in \[0, 1\)"):
            q_poly(x, 1, 1)


def test_q_refuses_a_series_it_would_truncate():
    # at 1 - 1e-7 the tail series needs ~5e8 terms, far past the 1e7-term cap;
    # summed to the cap it reads S = 14.899 for the exact 15.118
    for x in (1.0 - 1e-7, np.array([0.5, 1.0 - 1e-7]), float("nan")):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            q_poly(x, 1, 3)
        assert time.perf_counter() - start < 1.0


def test_q_just_inside_the_refusal_is_fast():
    # about 8.6e6 terms; the closed form is well conditioned this close to 1
    x = 1.0 - 3.5e-6
    start = time.perf_counter()
    q = q_poly(x, 1, 1)
    assert time.perf_counter() - start < 5.0
    s_closed = -(math.log1p(-x) + x) / x
    assert _tail_series(x, 1) == pytest.approx(s_closed, rel=1e-9)
    assert q == pytest.approx(x * (x - s_closed), rel=1e-9)


@pytest.mark.parametrize("k", [1, 5, 128])
def test_tail_series_sums_the_terms_in_loop_order(k):
    for n in (257, 10_000):  # the q_poly scan's grid and criterion 4's
        xs = np.linspace(0.0, 1.0 - 1.0 / math.e, n)
        assert np.array_equal(_tail_series(xs, k), tail_series_by_terms(xs, k))
    grid = xs[:9_999].reshape(99, 101)
    assert np.array_equal(_tail_series(grid, k), tail_series_by_terms(grid, k))
    for x in (0.0, 0.3, ALPHA, 0.99):
        assert _tail_series(x, k) == tail_series_by_terms(x, k)
    # on a tiny grid the stopping term itself still moves the last bits
    tiny = np.linspace(0.0, 1e-12, 5)
    for arr in (np.array(0.3), np.array([ALPHA]), np.zeros(4), np.array([]), tiny):
        got, want = _tail_series(arr, k), tail_series_by_terms(arr, k)
        assert type(got) is type(want)
        assert np.shape(got) == arr.shape and np.array_equal(got, want)
    # q_poly's scalar path (float and 0-d in, Python float out) against a 1-element array
    for x in np.linspace(0.0, 1.0 - 1.0 / math.e, 257):
        one = q_poly(np.array([x]), k, 3)[0]
        for scalar in (float(x), np.array(x)):
            q = q_poly(scalar, k, 3)
            assert type(q) is float and q == one


@pytest.mark.parametrize(
    ("x", "k"), [(x, k) for x in (0.125, 0.5, ALPHA) for k in (1, 2, 8, 128)] + [(0.9, 1)]
)
def test_tail_series_matches_an_exact_rational_sum(x, k):
    exact = tail_series_exact(x, k)
    assert abs(Fraction(_tail_series(x, k)) - exact) <= exact / 10**14


def test_q_sign_structure_spot():
    k = 3
    m_low = lower_bound_m(k)
    assert m_low >= 1
    assert q_poly(ALPHA, k, m_low) > 0.0
    m_up = upper_bound_m(k)
    assert q_poly(ALPHA, k, m_up) <= 0.0


def test_q_array_evaluation():
    xs = np.linspace(0.0, ALPHA, 64)
    vals = q_poly(xs, 4, upper_bound_m(4))
    assert vals.shape == xs.shape
    assert vals[0] == 0.0
    assert np.all(vals <= 1e-12)


# --- bidder-count bounds ----------------------------------------------------------


def test_upper_bound_examples():
    assert upper_bound_m(1) == 3
    assert upper_bound_m(8) == 8
    assert upper_bound_m(100) == 13


def test_lower_bound_examples():
    assert lower_bound_m(1) == 0
    assert lower_bound_m(8) == 3
    assert lower_bound_m(10) == 4


def test_bounds_consistent_small_scan():
    for k in range(1, 5001):
        assert lower_bound_m(k) < upper_bound_m(k)


def test_bounds_of_an_array_equal_math_floor_log():
    log_inv_alpha = math.log(1.0 / ALPHA)

    def upper_ref(k):
        return math.floor(math.log(2.0 * k) / log_inv_alpha) + 2

    def lower_ref(k):
        return max(0, math.floor(math.log((k + 1) * (1.0 - ALPHA)) / log_inv_alpha) + 1)

    ks = np.arange(1, 10**6 + 1)
    assert upper_bound_m(ks) == tuple(map(upper_ref, range(1, 10**6 + 1)))
    assert lower_bound_m(ks) == tuple(map(lower_ref, range(1, 10**6 + 1)))
    spots = [10**9 - 1, 10**9, 10**9 + 1, 10**12 - 1, 10**12, 10**12 + 1]
    assert upper_bound_m(spots) == tuple(map(upper_ref, spots))
    assert lower_bound_m(spots) == tuple(map(lower_ref, spots))
    assert [upper_bound_m(k) for k in spots] == list(map(upper_ref, spots))
    assert [lower_bound_m(k) for k in spots] == list(map(lower_ref, spots))


def test_bounds_give_python_ints():
    assert type(upper_bound_m(7)) is int and type(lower_bound_m(np.int64(7))) is int
    for bound in (upper_bound_m, lower_bound_m):
        values = bound(np.array([1, 5, 100]))
        assert isinstance(values, tuple) and {type(v) for v in values} == {int}
        assert bound(range(3, 6)) == tuple(bound(k) for k in range(3, 6))
        assert bound([]) == ()


@pytest.mark.parametrize("bad", [0, -3, [4, 0, 5], np.array([1, -2]), range(0, 3), [2, float("nan")]])
def test_bounds_refuse_k_below_one(bad):
    for bound in (upper_bound_m, lower_bound_m):
        with pytest.raises(ValueError):
            bound(bad)


def test_multi_item_s_examples():
    assert multi_item_s(1, 8) == 4
    assert multi_item_s(2, 8) == 8


def test_multi_item_s_monotone():
    for t in range(1, 5):
        for m in range(2, 30):
            assert multi_item_s(t + 1, m) >= multi_item_s(t, m)
            assert multi_item_s(t, m + 1) >= multi_item_s(t, m)


def test_multi_item_s_validation():
    with pytest.raises(ValueError):
        multi_item_s(0, 8)
    with pytest.raises(ValueError):
        multi_item_s(1, 1)


# --- multi-item gain ---------------------------------------------------------------


def test_multi_gain_single_residual_item():
    for phi in (0.0, 0.2, ALPHA):
        for m, s in [(2, 3), (5, 9)]:
            assert multi_gain_exact(phi, 1.5, m, s, 1) == pytest.approx(
                1.5 * (1.0 - phi ** (m + s)), abs=1e-14
            )


def test_multi_gain_phi_zero():
    assert multi_gain_exact(0.0, 2.0, 3, 4, 3) == pytest.approx(6.0, abs=1e-14)


def test_multi_gain_meets_floor():
    m = upper_bound_m(8)
    s = multi_item_s(2, m)
    got = multi_gain_exact(ALPHA, 1.0, m, s, 2)
    assert got >= 2.0 * (1.0 - ALPHA**m)


def test_multi_gain_floor_over_sufficient_m_grid():
    # every sufficient-m value arising from k = 1..100, all small residual counts
    for m in sorted({upper_bound_m(k) for k in range(1, 101)}):
        for t_res in range(1, 6):
            s = multi_item_s(t_res, m)
            assert multi_gain_exact(ALPHA, 1.0, m, s, t_res) >= t_res * (1.0 - ALPHA**m), (m, t_res)


def test_multi_gain_past_float_binomials():
    # C(m+s, j) passes float range before j reaches t_res: those terms are
    # weighed in logs, and every term a float holds keeps its bits
    got = multi_gain_exact(0.63, 1.0, 10, 3540, 1000)
    assert 1000.0 * (1.0 - 0.63**10) <= got <= 1000.0
    assert multi_gain_exact(0.63, 1.0, 10, 8, 2) == 1.996927339890284
    assert multi_gain_exact(0.63, 1.0, 10, 1066, 300) == 299.9999999997092
    # against the exact rational sum where the log-weighed terms carry the mass
    n, t_res = 1100, 550
    exact = t_res - sum(Fraction(math.comb(n, j) * (t_res - j), 2**n) for j in range(t_res))
    assert multi_gain_exact(0.5, 1.0, 10, n - 10, t_res) == pytest.approx(float(exact), rel=1e-13)


def test_multi_gain_domain():
    with pytest.raises(DomainError):
        multi_gain_exact(0.9, 1.0, 2, 2, 1)


# --- the regular (non-MHR) counterexample -------------------------------------------


def test_loss_p_quadrature_matches_substitution_oracle():
    from mecheff.analysis import loss_p_unconditional

    for eps in (0.5, 1e-2, 1e-5):
        for r in (0.5, 1.0, 4.0):
            for k in (1, 3, 5):
                assert loss_p_unconditional(eps, r, k) == pytest.approx(
                    loss_p_closed(eps, r, k), rel=1e-7, abs=1e-12
                )


def test_counterexample_basic():
    eps = regular_counterexample_search(1, 1, 1.0).eps
    loss = loss_p_closed(eps, 1.0, 1)
    g = 1.0 - (1.0 / (1.0 + eps)) ** 1
    assert loss > g


def test_counterexample_bigger_m():
    eps = regular_counterexample_search(2, 5, 1.0).eps
    assert loss_p_closed(eps, 1.0, 2) > 1.0 * (1.0 - (1.0 / (1.0 + eps)) ** 5)


def test_counterexample_halving_preserves_inequality():
    eps = regular_counterexample_search(3, 4, 1.0).eps
    for e in (eps, eps / 2.0, eps / 4.0):
        assert loss_p_closed(e, 1.0, 3) > 1.0 - (1.0 / (1.0 + e)) ** 4


def test_counterexample_scales_with_r():
    eps = regular_counterexample_search(1, 2, 5.0).eps
    r = 5.0
    assert loss_p_closed(eps, r, 1) > r * (1.0 - (r / (r + eps)) ** 2)


def test_counterexample_unreachable_margin():
    # the shortfall integral is capped by r, so a margin above r is impossible
    with pytest.raises(SearchExhausted):
        regular_counterexample_search(1, 1, 1.0, margin=10.0)


def test_quadrature_returns_and_scales_at_large_r(monkeypatch):
    # a tolerance fixed at 1e-10 lies below the rounding noise of an integral
    # of size r = 1e9, and adaptive Simpson would recurse to its depth cap
    evals = 0
    simpson = analysis.adaptive_simpson

    def counted(f, *args, **kwargs):
        def g(x):
            nonlocal evals
            evals += 1
            assert evals < 100_000, "the quadrature is not converging"
            return f(x)

        return simpson(g, *args, **kwargs)

    monkeypatch.setattr(analysis, "adaptive_simpson", counted)
    # loss_numeric's sweep hands the cdf its nodes level by level
    cdf = GFamily.cdf

    def counted_cdf(self, x):
        nonlocal evals
        evals += np.size(x)
        assert evals < 100_000, "the quadrature is not converging"
        return cdf(self, x)

    monkeypatch.setattr(GFamily, "cdf", counted_cdf)
    r = 1e9
    unit = loss_numeric(GFamily(phi=0.5, r=1.0), [1, 2])
    for loss, unit_loss in zip(loss_numeric(GFamily(phi=0.5, r=r), [1, 2]), unit):
        assert loss / r == pytest.approx(unit_loss, rel=1e-8)
    cx, unit_cx = regular_counterexample_search(2, 3, r=r), regular_counterexample_search(2, 3, 1.0)
    assert cx.eps == r * unit_cx.eps
    assert cx.loss / r == pytest.approx(unit_cx.loss, rel=1e-8)


def test_counterexample_sweep_equals_per_m_calls():
    ms = [3, 1, 8, 2, 11, 5, 3]
    for k, r in ((1, 1.0), (3, 1.0), (2, 5.0)):
        found = regular_counterexample_search(k, ms, r, margin=1e-6 * r)
        assert found == tuple(regular_counterexample_search(k, m, r, margin=1e-6 * r) for m in ms)
        for hit, m in zip(found, ms):
            assert hit.loss == analysis.loss_p_unconditional(hit.eps, r, k)
            assert hit.gain == analysis.gain(r / (r + hit.eps), r, m)
    assert regular_counterexample_search(2, range(1, 4), 1.0) == regular_counterexample_search(2, [1, 2, 3], 1.0)
    assert regular_counterexample_search(2, np.int64(3), 1.0) == regular_counterexample_search(2, 3, 1.0)


def test_counterexample_sweep_computes_each_eps_once(monkeypatch):
    seen = []
    loss_p = analysis.loss_p_unconditional

    def counting(eps, r, k):
        seen.append(eps)
        return loss_p(eps, r, k)

    monkeypatch.setattr(analysis, "loss_p_unconditional", counting)
    found = regular_counterexample_search(3, range(1, 11), 1.0, margin=1e-6)
    # every m walks eps = 1, 1/2, ..., so the deepest hit bounds the distinct eps
    assert len(seen) == len(set(seen)) == 1 + round(-math.log2(min(h.eps for h in found)))
    regular_counterexample_search(3, range(1, 11), 1.0, margin=1e-6)
    assert len(seen) == 2 * len(set(seen))  # nothing is remembered across calls


def test_counterexample_sweep_raises_for_the_first_failing_m():
    with pytest.raises(SearchExhausted, match=r"k=1, m=13, r=1.0$"):
        regular_counterexample_search(1, [4, 13, 12], 1.0, margin=1e-6)
    with pytest.raises(ValueError):
        regular_counterexample_search(1, [2, 0], 1.0)


def test_counterexample_distribution_is_regular_not_mhr():
    from mecheff.distributions import mhr_check, virtual_value

    eps = regular_counterexample_search(2, 3, 1.0).eps
    p = PFamily(eps=eps, r=1.0)
    assert not mhr_check(p, 256).is_mhr
    xs = np.linspace(0.0, 0.999, 200)
    psi = np.asarray(virtual_value(p, xs))
    assert np.all(np.diff(psi) >= -1e-9)
