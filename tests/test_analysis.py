import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecheff.analysis import (
    ALPHA,
    gain,
    gain_minus_loss_g,
    loss_closed_form_g,
    loss_numeric,
    lower_bound_m,
    multi_gain_exact,
    multi_item_s,
    order_stat_cdf,
    q_poly,
    q_prime,
    regular_counterexample_search,
    upper_bound_m,
)
from mecheff.distributions import Exponential, GFamily, PFamily, Uniform
from mecheff.errors import DegenerateConditioning, DomainError, SearchExhausted


# --- independent oracles ------------------------------------------------------


def q_literal(x, k, m):
    """The series exactly as written, with compensated summation."""
    return math.fsum([x ** (k + m), math.log1p(-x)] + [x**i / i for i in range(1, k + 1)])


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
        r = float(dist.exact_reserve)
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


# --- the series q and its derivative ---------------------------------------------


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
    with pytest.raises(DomainError):
        q_prime(1.0, 2, 2)


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


def test_q_prime_at_zero():
    assert q_prime(0.0, 3, 2) == 0.0
    assert q_prime(0.0, 1, 1) == 0.0


def test_q_prime_nonpositive_for_sufficient_m():
    xs = np.linspace(0.0, ALPHA, 512)
    vals = q_prime(xs, 4, upper_bound_m(4))
    assert float(np.max(vals)) <= 0.0


def test_q_prime_matches_finite_differences():
    h = 1e-6
    for k, m in [(2, 3), (1, 1), (5, 8), (4, upper_bound_m(4))]:
        for x in np.linspace(0.05, 0.6, 12):
            fd = (q_poly(x + h, k, m) - q_poly(x - h, k, m)) / (2.0 * h)
            qp = q_prime(x, k, m)
            assert qp == pytest.approx(fd, rel=1e-6, abs=1e-9), (k, m, x)


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


def test_multi_item_s_examples():
    assert multi_item_s(1, 8, 0.1) == 4
    assert multi_item_s(2, 8, 0.1) == 8


def test_multi_item_s_monotone():
    for t in range(1, 5):
        for m in range(2, 30):
            assert multi_item_s(t + 1, m, 0.1) >= multi_item_s(t, m, 0.1)
            assert multi_item_s(t, m + 1, 0.1) >= multi_item_s(t, m, 0.1)


def test_multi_item_s_validation():
    with pytest.raises(ValueError):
        multi_item_s(0, 8, 0.1)
    with pytest.raises(ValueError):
        multi_item_s(1, 1, 0.1)
    with pytest.raises(ValueError):
        multi_item_s(1, 8, 0.0)


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
    s = multi_item_s(2, m, 0.1)
    got = multi_gain_exact(ALPHA, 1.0, m, s, 2)
    assert got >= 2.0 * (1.0 - ALPHA**m)


def test_multi_gain_floor_over_sufficient_m_grid():
    # every sufficient-m value arising from k = 1..100, all small residual counts
    for m in sorted({upper_bound_m(k) for k in range(1, 101)}):
        for t_res in range(1, 6):
            s = multi_item_s(t_res, m, 0.1)
            assert multi_gain_exact(ALPHA, 1.0, m, s, t_res) >= t_res * (1.0 - ALPHA**m), (m, t_res)


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
    eps = regular_counterexample_search(1, 1, 1.0)
    loss = loss_p_closed(eps, 1.0, 1)
    g = 1.0 - (1.0 / (1.0 + eps)) ** 1
    assert loss > g


def test_counterexample_bigger_m():
    eps = regular_counterexample_search(2, 5, 1.0)
    assert loss_p_closed(eps, 1.0, 2) > 1.0 * (1.0 - (1.0 / (1.0 + eps)) ** 5)


def test_counterexample_halving_preserves_inequality():
    eps = regular_counterexample_search(3, 4, 1.0)
    for e in (eps, eps / 2.0, eps / 4.0):
        assert loss_p_closed(e, 1.0, 3) > 1.0 - (1.0 / (1.0 + e)) ** 4


def test_counterexample_scales_with_r():
    eps = regular_counterexample_search(1, 2, 5.0)
    r = 5.0
    assert loss_p_closed(eps, r, 1) > r * (1.0 - (r / (r + eps)) ** 2)


def test_counterexample_unreachable_margin():
    # the shortfall integral is capped by r, so a margin above r is impossible
    with pytest.raises(SearchExhausted):
        regular_counterexample_search(1, 1, 1.0, margin=10.0)


def test_counterexample_distribution_is_regular_not_mhr():
    from mecheff.distributions import mhr_check, virtual_value

    eps = regular_counterexample_search(2, 3, 1.0)
    p = PFamily(eps=eps, r=1.0)
    assert not mhr_check(p, 256).is_mhr
    xs = np.linspace(0.0, 0.999, 200)
    psi = np.asarray(virtual_value(p, xs))
    assert np.all(np.diff(psi) >= -1e-9)
