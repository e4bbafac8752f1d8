"""Acceptance suite: every criterion at its stated tolerance.

Each test computes its verdict, prints one pass/fail line (visible under
pytest -s or in failure output), then asserts. Monte Carlo criteria use
fixed seeds, so a pass here is a reproducible fact, not a lucky draw.
"""

import json
import math
import operator
import os
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np
import pytest

from mecheff.analysis import (
    ALPHA,
    loss_closed_form_g,
    loss_numeric,
    lower_bound_m,
    multi_gain_exact,
    multi_item_s,
    q_poly,
    regular_counterexample_search,
    upper_bound_m,
)
from mecheff.distributions import (
    Exponential,
    GFamily,
    PFamily,
    Uniform,
    domination_check,
    lemma1_check,
    mhr_check,
    reserve_price,
    virtual_value,
)
from mecheff.simulate import efficiency_ratio, paired_compare, revenue_compare_bk

SEED = 20240811


def _report(num, name, ok, elapsed=None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"acceptance {num:>2} {name}: {'PASS' if ok else 'FAIL'}{stamp}")


@lru_cache(maxsize=1)
def _random_mhr_instances():
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(200):
        fam = int(rng.integers(3))
        if fam == 0:
            out.append(Exponential(rate=float(rng.uniform(0.05, 20.0))))
        elif fam == 1:
            out.append(Uniform(hi=float(rng.uniform(0.05, 20.0))))
        else:
            r = float(rng.uniform(0.05, 20.0))
            out.append(GFamily(phi=float(rng.uniform(1e-3, ALPHA)), r=r, eps=1e-6 * r))
    return tuple(out)


def test_criterion_01_lemma1_randomized():
    t0 = time.time()
    ok = all(lemma1_check(d) for d in _random_mhr_instances())
    elapsed = time.time() - t0
    _report(1, "cdf at reserve capped by 1-1/e (200 instances)", ok, elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_02_domination_randomized():
    t0 = time.time()
    ok = all(domination_check(d, 1024) for d in _random_mhr_instances())
    elapsed = time.time() - t0
    _report(2, "extremal cdf domination (200 instances, grid 1024)", ok, elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_03_closed_form_vs_quadrature():
    t0 = time.time()
    worst = 0.0
    ks = range(1, 21)
    for phi in (0.1, 0.3, 0.5, ALPHA):
        for r in (0.5, 1.0, 7.0):
            qds = loss_numeric(GFamily(phi=phi, r=r, eps=1e-6 * r), ks)
            for k, qd in zip(ks, qds):
                cf = loss_closed_form_g(phi, r, k)
                worst = max(worst, abs(cf - qd) / abs(cf))
    elapsed = time.time() - t0
    ok = worst <= 1e-8
    _report(3, f"closed form vs quadrature (worst rel {worst:.2e})", ok, elapsed)
    assert ok
    assert elapsed < 10.0


def test_criterion_04_upper_bound_analytic():
    t0 = time.time()
    grid = np.linspace(0.0, ALPHA, 10_000)
    worst = -math.inf
    for k in range(1, 201):
        worst = max(worst, float(np.max(q_poly(grid, k, upper_bound_m(k)))))
    # equivalently: gain - loss stays nonnegative for the sufficient m
    from mecheff.analysis import gain_minus_loss_g

    gml_ok = all(
        gain_minus_loss_g(phi, 1.0, k, upper_bound_m(k)) >= -1e-12
        for k in (1, 7, 50, 200)
        for phi in (0.05, 0.3, ALPHA)
    )
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and gml_ok
    _report(4, f"sufficient-m series nonpositive (max q {worst:.2e})", ok, elapsed)
    assert ok
    assert elapsed < 30.0


def test_criterion_05_lower_bound_analytic_and_gap():
    t0 = time.time()
    sign_ok = all(
        q_poly(ALPHA, k, m) > 0.0
        for k in range(2, 201)
        for m in range(1, lower_bound_m(k) + 1)
    )
    ks = range(1, 1_000_001)
    max_gap = max(map(operator.sub, upper_bound_m(ks), lower_bound_m(ks)))
    elapsed = time.time() - t0
    ok = sign_ok and max_gap <= 6
    _report(5, f"insufficient-m series positive; bound gap <= 6 (max {max_gap})", ok, elapsed)
    assert ok
    assert elapsed < 60.0


def test_criterion_06_upper_bound_empirical():
    t0 = time.time()
    dists = [Exponential(1.0), Uniform(hi=1.0), GFamily(phi=ALPHA, r=1.0, eps=1e-6)]
    ok = True
    ks = (1, 2, 5, 10)
    for dist in dists:
        for pc in paired_compare(dist, list(zip(ks, upper_bound_m(ks))), 1, 1_000_000, seed=SEED):
            ok &= pc["diff"].value >= -3.0 * pc["diff"].std_err
    elapsed = time.time() - t0
    _report(6, "enough extras recover efficiency (3 families, 1e6 trials)", ok, elapsed)
    assert ok


def test_criterion_07_lower_bound_empirical():
    t0 = time.time()
    g = GFamily(phi=ALPHA, r=1.0, eps=1e-6)
    ok = True
    ks = (3, 5, 8)
    for pc in paired_compare(g, list(zip(ks, lower_bound_m(ks))), 1, 10_000_000, seed=SEED):
        diff = pc["diff"]
        ok &= diff.value < 0.0 and abs(diff.value) > 3.0 * diff.std_err
    elapsed = time.time() - t0
    _report(7, "too-few extras strictly lose (extremal family, 1e7 trials)", ok, elapsed)
    assert ok


def test_criterion_08_multi_item():
    t0 = time.time()
    analytic_ok = True
    for k in (20, 50, 100):
        m = upper_bound_m(k)
        for t_res in range(1, 6):
            s = multi_item_s(t_res, m)
            analytic_ok &= multi_gain_exact(ALPHA, 1.0, m, s, t_res) >= t_res * (1.0 - ALPHA**m)
    sim_ok = True
    k = 20
    m = upper_bound_m(k)
    for dist in (Exponential(1.0), GFamily(phi=ALPHA, r=1.0, eps=1e-6)):
        for t in (2, 3):
            s = multi_item_s(t, m)
            (pc,) = paired_compare(dist, [(k, m + s)], t, 1_000_000, seed=SEED)
            sim_ok &= pc["diff"].value >= -3.0 * pc["diff"].std_err
    elapsed = time.time() - t0
    ok = analytic_ok and sim_ok
    _report(8, "multi-item binomial floor and simulation", ok, elapsed)
    assert ok


def test_criterion_09_regular_counterexample():
    t0 = time.time()
    r = 1.0
    ok = True
    for k in range(1, 6):
        for m in range(1, 11):
            eps = regular_counterexample_search(k, m, r, margin=1e-6 * r).eps
            # recompute both sides through the closed forms of the integrals
            u = r / (r + eps)
            loss = k * eps * (math.log((r + eps) / eps) - math.fsum(u**j / j for j in range(1, k + 1)))
            gain_p = r * (1.0 - u**m)
            ok &= loss - gain_p > 1e-6 * r
    p = PFamily(eps=regular_counterexample_search(3, 6, r, margin=1e-6).eps, r=r)
    xs = np.linspace(0.0, r * 0.999, 300)
    psi = np.asarray(virtual_value(p, xs))
    ok &= bool(np.all(np.diff(psi) >= -1e-9))  # regular
    ok &= not mhr_check(p, 256).is_mhr  # but not monotone-hazard
    ok &= reserve_price(p) == r
    elapsed = time.time() - t0
    _report(9, "regular family beats any fixed extra-bidder count", ok, elapsed)
    assert ok
    assert elapsed < 30.0


def test_criterion_10_ratio_claims():
    t0 = time.time()
    ok = True
    ks = (1, 2, 5, 10)
    for k, est in zip(ks, efficiency_ratio(Exponential(1.0), ks, 1_000_000, seed=SEED)):
        eff, rev = est["eff_ratio"], est["rev_ratio"]
        ok &= eff.value >= 1.0 - ALPHA**k - 3.0 * eff.std_err
        ok &= rev.value >= 1.0 - ALPHA ** (k - 1) - 3.0 * rev.std_err
    elapsed = time.time() - t0
    _report(10, "equal-k efficiency and revenue ratios", ok, elapsed)
    assert ok


def test_criterion_11_one_extra_bidder_revenue():
    t0 = time.time()
    uniform = revenue_compare_bk(Uniform(hi=1.0), (1, 3, 5), 1_000_000, seed=SEED)
    exponential = revenue_compare_bk(Exponential(1.0), (1, 3, 5), 1_000_000, seed=SEED)
    ok = all(pc["diff"].value >= -3.0 * pc["diff"].std_err for pc in (*uniform, *exponential))
    diff = uniform[0]["diff"]  # k = 1
    # analytic values: E[min of 2] = 1/3 vs r(1-F(r)) = 1/4
    ok &= abs(diff.value - 1.0 / 12.0) <= 4.0 * diff.std_err
    elapsed = time.time() - t0
    _report(11, "one extra bidder recovers optimal revenue", ok, elapsed)
    assert ok


def test_criterion_12_reproducible_csv(tmp_path):
    t0 = time.time()
    args = [
        sys.executable, "-m", "mecheff.cli", "thm1",
        "--dist", "exponential:1", "--k", "1..3", "--n", "100000", "--seed", str(SEED),
    ]
    outs = []
    for cap, name in (("1", "a"), ("7", "b")):
        env = dict(os.environ, MECH_EFF_THREADS=cap)
        res = subprocess.run(
            args + ["--out", str(tmp_path / name)], capture_output=True, text=True, env=env
        )
        assert res.returncode == 0, res.stderr
        outs.append((tmp_path / f"{name}.csv").read_bytes())
    ok = outs[0] == outs[1]
    # a second experiment type, same contract
    args2 = [
        sys.executable, "-m", "mecheff.cli", "bk",
        "--dist", "uniform:1", "--k", "1..2", "--n", "100000", "--seed", str(SEED),
    ]
    outs2 = []
    for cap, name in (("1", "c"), ("5", "d")):
        env = dict(os.environ, MECH_EFF_THREADS=cap)
        res = subprocess.run(
            args2 + ["--out", str(tmp_path / name)], capture_output=True, text=True, env=env
        )
        assert res.returncode == 0, res.stderr
        outs2.append((tmp_path / f"{name}.csv").read_bytes())
    ok &= outs2[0] == outs2[1]
    elapsed = time.time() - t0
    _report(12, "byte-identical CSV across thread caps", ok, elapsed)
    assert ok
