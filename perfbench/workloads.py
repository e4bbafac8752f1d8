"""The three benchmark workloads, as lists of items with output checks.

An item is one unit of work that either succeeds or fails: a `mech-eff`
experiment run in-process through `mecheff.cli.main`, or a group of calls
into the library's public functions. Every item returns the bytes it wrote
(CSV and JSON for experiments, a JSON document for library groups), so the
runner can hash them, and a check that reads those bytes back.

Workload inputs are a pure function of the benchmark seed: the seed is the
`--seed` of every Monte Carlo experiment and draws the auction bid vectors.
Grids and trial counts are fixed here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mecheff import analysis, auctions, cli, distributions
from mecheff.distributions import ALPHA, ValueDistribution

# 8 batches of 16384: both workers of a 2-CPU pool get equal work.
MC_TRIALS = 1 << 17
AUCTION_VECTORS = 5000
GAINLOSS_DISTS = ("exponential:1", "uniform:1", "g:0.63:1")
# thm2's default distribution: the extremal family at phi = 1-1/e.
THM2_DIST = json.dumps({"family": "g", "phi": ALPHA, "r": 1.0, "eps": 1e-6})


@dataclass(frozen=True)
class Weibull(ValueDistribution):
    """Weibull law known only through its evaluators: no closed-form reserve.

    Its hazard shape*x^(shape-1)/scale^shape is nondecreasing for shape >= 1,
    so it is MHR, and `reserve_price` must bracket and bisect x*h(x) = 1.
    The exact root, scale*shape^(-1/shape), checks the answer.
    """

    shape: float = 2.0
    scale: float = 1.0

    @property
    def support_hi(self):
        return math.inf

    @property
    def exact_root(self) -> float:
        return self.scale * self.shape ** (-1.0 / self.shape)

    def _z(self, x):
        return (np.maximum(np.asarray(x, dtype=np.float64), 0.0) / self.scale) ** self.shape

    def cdf(self, x):
        return _plain(-np.expm1(-self._z(x)))

    def pdf(self, x):
        xa = np.maximum(np.asarray(x, dtype=np.float64), 0.0)
        z = self._z(xa)
        return _plain(self.shape / self.scale * (xa / self.scale) ** (self.shape - 1.0) * np.exp(-z))

    def quantile(self, u):
        u = np.asarray(u, dtype=np.float64)
        return _plain(self.scale * (-np.log1p(-u)) ** (1.0 / self.shape))


def _plain(out):
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class Item:
    """One unit of work. `run(outdir)` returns (exit code, {file name: bytes},
    captured log); `check(outputs)` returns None when the outputs are right,
    else a reason."""

    name: str
    run: Callable[[Path], tuple[int, dict[str, bytes], str]]
    check: Callable[[dict[str, bytes]], str | None]
    # Mechanism trials one run completes: a Monte Carlo trial is one value
    # vector through both mechanisms; an auction trial is one bid vector.
    trials: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    items: tuple[Item, ...]


# --- experiments through the CLI ---------------------------------------------


def _cli_item(name, argv, check=None, rows=None):
    def run(outdir: Path):
        prefix = outdir / name
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([*argv, "--out", str(prefix)])
        outputs = {}
        for suffix in (".csv", ".json"):
            path = prefix.with_suffix(suffix)
            if path.exists():
                outputs[name + suffix] = path.read_bytes()
                path.unlink()
        return code, outputs, sink.getvalue()

    def full_check(outputs):
        if set(outputs) != {name + ".csv", name + ".json"}:
            return f"wrote {sorted(outputs)}"
        summary = json.loads(outputs[name + ".json"])
        if summary["pass"] is not True:
            return "an asserted inequality failed"
        table = list(csv.DictReader(io.StringIO(outputs[name + ".csv"].decode())))
        if rows is not None and len(table) != rows:
            return f"{len(table)} rows, expected {rows}"
        return check(table) if check else None

    trials = rows * MC_TRIALS if rows else 0
    return Item(name, run, full_check, trials=trials)


def _harmonic(k):
    return sum(1.0 / i for i in range(1, k + 1))


def _check_thm1(rows):
    # E[max of k Exp(1)] = H_k: an exact value the Monte Carlo mean must meet.
    for row in rows:
        k, mean, err = int(row["k"]), float(row["eff_ema_mean"]), float(row["eff_ema_std_err"])
        if abs(mean - _harmonic(k)) > 6.0 * err:
            return f"thm1 k={k}: eff_ema_mean {mean} is not H_k within 6 std errors"
    return None


def _check_bk(rows):
    # Uniform(0,1): second-price revenue with k+1 bidders is k/(k+2); with
    # k bidders and reserve 1/2 it is 2k/(k+1)(1-2^-(k+1)) - (1-2^-k).
    # Values lie in [0, 1], so each standard error is at most 1/sqrt(n).
    tol = 6.0 / math.sqrt(MC_TRIALS)
    for row in rows:
        k = int(row["k"])
        ema = k / (k + 2.0)
        rma = 2.0 * k / (k + 1.0) * (1.0 - 0.5 ** (k + 1)) - (1.0 - 0.5**k)
        if abs(float(row["rev_ema_mean"]) - ema) > tol or abs(float(row["rev_rma_mean"]) - rma) > tol:
            return f"bk k={k}: revenue means are not the exact values within {tol:.3g}"
    return None


def _mc_item(name, argv, rows, seed, check=None):
    argv = [*argv, "--n", str(MC_TRIALS), "--seed", str(seed)]
    return _cli_item(name, argv, check, rows)


# --- library groups ----------------------------------------------------------


def _library_item(name, compute, check, trials=0):
    """compute() returns a JSON-able document; check(document) returns None
    or the reason it is wrong. Only compute() is timed."""

    def run(_outdir):
        return 0, {name + ".json": (json.dumps(compute(), sort_keys=True) + "\n").encode()}, ""

    def full_check(outputs):
        return check(json.loads(outputs[name + ".json"]))

    return Item(name, run, full_check, trials=trials)


def _q_scan():
    """q(x; k, m) over [0, 1-1/e] at the sufficient and insufficient m."""
    xs = np.linspace(0.0, ALPHA, 257)
    doc = []
    for k in range(1, 129):
        m_up, m_low = analysis.upper_bound_m(k), analysis.lower_bound_m(k)
        q_max = float(np.max(analysis.q_poly(xs, k, m_up)))
        q_low = analysis.q_poly(ALPHA, k, m_low) if m_low >= 1 else None
        doc.append([k, m_up, m_low, q_max, q_low])
    return doc


def _check_q_scan(doc):
    # q <= 0 on the whole interval at the sufficient m; q(1-1/e) > 0 at the
    # insufficient m
    for k, _m_up, _m_low, q_max, q_low in doc:
        if q_max > 1e-12 or (q_low is not None and q_low <= 0.0):
            return f"q sign structure broken at k={k}"
    return None


def _bid_vectors(seed):
    """Bid vectors of 1..12 bidders, with their family's reserve.

    A third are Exp(1) draws, a third P-family draws (eps=1/2, r=1) whose
    atom at r puts a third of all bids on one value, and a third uniform
    bids rounded to 0.1; the last two make ties common.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    capped = distributions.PFamily(eps=0.5, r=1.0)
    out = []
    for i in range(AUCTION_VECTORS):
        n = int(rng.integers(1, 13))
        u = rng.random(n)
        if i % 3 == 0:
            out.append((distributions.Exponential(1.0).quantile(u).tolist(), 1.0))
        elif i % 3 == 1:
            out.append((capped.quantile(u).tolist(), 1.0))
        else:
            out.append((np.round(u, 1).tolist(), 0.5))
    return out


def _expected_outcome(bids, t, reserve):
    """(winner count, efficiency, revenue) from the sorted bids alone."""
    desc = sorted(bids, reverse=True)
    runner_up = desc[t] if len(desc) > t else 0.0
    if reserve is None:
        n_win = min(t, len(desc))
        price = runner_up
    else:
        n_win = min(t, sum(b >= reserve for b in bids))
        price = max(reserve, runner_up) if n_win else 0.0
    return n_win, sum(desc[:n_win]), n_win * price


def _auctions(vectors):
    """EMA and RMA with t = 1 and 2 on every bid vector."""

    def compute():
        doc = []
        for bids, reserve in vectors:
            for t in (1, 2):
                for outcome in (auctions.ema(bids, t), auctions.rma(bids, t, reserve)):
                    doc.append([list(outcome.winners), outcome.efficiency, outcome.revenue])
        return doc

    def check(doc):
        cases = ((bids, t, res) for bids, reserve in vectors for t in (1, 2) for res in (None, reserve))
        for (bids, t, res), (winners, eff, rev) in zip(cases, doc, strict=True):
            n_win, want_eff, want_rev = _expected_outcome(bids, t, res)
            if len(winners) != n_win or abs(eff - want_eff) > 1e-12 or abs(rev - want_rev) > 1e-12:
                return f"auction on {bids} (t={t}, reserve={res}) gave {(winners, eff, rev)}"
        return None

    return compute, check


def _weibull_group():
    """reserve_price, loss_numeric by both methods, and mhr_check on a
    distribution with no stored reserve."""
    dist = Weibull()
    losses = [
        [k, analysis.loss_numeric(dist, k, method="cdf"), analysis.loss_numeric(dist, k, method="density")]
        for k in range(1, 9)
    ]
    return {
        "reserve": distributions.reserve_price(dist),
        "losses": losses,
        "is_mhr": distributions.mhr_check(dist, 1024).is_mhr,
    }


def _check_weibull(doc):
    if abs(doc["reserve"] - Weibull().exact_root) > 1e-9:
        return f"Weibull reserve {doc['reserve']} is not {Weibull().exact_root}"
    for k, by_cdf, by_density in doc["losses"]:
        if abs(by_cdf - by_density) > 1e-7:
            return f"Weibull loss k={k}: cdf {by_cdf} vs density {by_density}"
    return None if doc["is_mhr"] else "mhr_check called the Weibull non-MHR"


# --- the workloads -----------------------------------------------------------


def build(name: str, seed: int, nproc: int) -> Workload:
    """The named workload's items for one seed."""
    if name == "mc_wide":
        return Workload(
            name,
            nproc,
            (
                _mc_item(
                    "thm1", ["thm1", "--dist", "exponential:1", "--k", "1,2,5,10", "--m", "auto"], 4, seed, _check_thm1
                ),
                _mc_item("thm2", ["thm2", "--k", "3..8"], 6, seed),
                _mc_item("thm3", ["thm3", "--dist", "exponential:1", "--k", "20", "--t", "2"], 1, seed),
            ),
        )
    if name == "mc_narrow":
        return Workload(
            name,
            1,
            (
                _mc_item("ratio", ["ratio", "--dist", "exponential:1", "--k", "1..10"], 10, seed),
                _mc_item("bk", ["bk", "--dist", "uniform:1", "--k", "1..5"], 5, seed, _check_bk),
            ),
        )
    if name == "scalar":
        items = [_cli_item(f"gainloss_{d.split(':')[0]}", ["gainloss", "--dist", d, "--k", "1..64"]) for d in GAINLOSS_DISTS]
        items += [
            _cli_item("regular_cx", ["regular_cx", "--k", "1..5", "--m", "1..10"]),
            _cli_item("bounds", ["bounds", "--k", "1..100000"]),
            _library_item("q_scan", _q_scan, _check_q_scan),
            _library_item("auctions", *_auctions(_bid_vectors(seed)), trials=AUCTION_VECTORS),
            _library_item("weibull", _weibull_group, _check_weibull),
        ]
        return Workload(name, 1, tuple(items))
    raise KeyError(name)


DIST_SPECS = {
    "mc_wide": ("exponential:1", THM2_DIST),
    "mc_narrow": ("exponential:1", "uniform:1"),
    "scalar": (*GAINLOSS_DISTS, "weibull"),
}


def build_distributions(name: str):
    """Set-up work a user pays before the first experiment: the workload's
    distributions and their reserve prices."""
    dists = []
    for spec in DIST_SPECS[name]:
        if spec == "weibull":
            dist = Weibull()
        else:
            dist = distributions.from_spec(cli.parse_dist_arg(spec))
        dists.append((dist, distributions.reserve_price(dist)))
    return dists
