"""Spans around the calls into each mecheff layer, for the traced run.

Nothing inside mecheff records anything. For the length of a traced pass,
`instrument` replaces each traced public function by a timing wrapper in
every mecheff module that binds it, and wraps `quantile` and `cdf` of each
distribution class in place; on exit every original is put back.

A span is (id, name, start, end, parent, thread, elems). Spans of a pool
worker have no enclosing span on their own thread, so their parent is the
main thread's innermost open span: the simulate call that fanned out.
Self time is a span's duration minus the union of its children's
intervals, so two overlapping workers are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

from mecheff import analysis, auctions, cli, distributions, numerics, simulate


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    elems: int


# span name -> the public function it times
TRACED = {
    "distributions.reserve_price": distributions.reserve_price,
    "distributions.mhr_check": distributions.mhr_check,
    "simulate.paired_compare": simulate.paired_compare,
    "simulate.revenue_compare_bk": simulate.revenue_compare_bk,
    "simulate.efficiency_ratio": simulate.efficiency_ratio,
    "simulate.estimate_mechanism": simulate.estimate_mechanism,
    "analysis.loss_numeric": analysis.loss_numeric,
    "analysis.regular_counterexample_search": analysis.regular_counterexample_search,
    "analysis.loss_p_unconditional": analysis.loss_p_unconditional,
    "analysis.q_poly": analysis.q_poly,
    "numerics.adaptive_simpson": numerics.adaptive_simpson,
    "auctions.ema": auctions.ema,
    "auctions.rma": auctions.rma,
    "cli.main": cli.main,
}


class Tracer:
    """Collects spans in memory; `integrand_evals` counts calls of every
    integrand handed to `numerics.adaptive_simpson`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.integrand_evals = 0
        self._ids = itertools.count(1)
        self._main: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def wrap(self, name, fn, sized=False):
        """fn timed as span `name`; with sized, the span records the element
        count of the call's second positional argument (a method's input)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main[-1] if self._main else 0)
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elems = int(np.size(args[1])) if sized else 0
                self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), elems))

        return traced

    def _counting_simpson(self, simpson):
        @functools.wraps(simpson)
        def counting(f, *args, **kwargs):
            def integrand(x):
                self.integrand_evals += 1
                return f(x)

            return simpson(integrand, *args, **kwargs)

        return counting


@contextlib.contextmanager
def instrument(tracer: Tracer, dist_classes):
    """Trace every public call into mecheff made inside the block."""
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    modules = [m for n, m in sys.modules.items() if n == "mecheff" or n.startswith("mecheff.")]
    try:
        for name, fn in TRACED.items():
            target = tracer._counting_simpson(fn) if fn is numerics.adaptive_simpson else fn
            wrapper = tracer.wrap(name, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patch(module, attr, wrapper)
        for cls in dist_classes:
            for method in ("quantile", "cdf"):
                patch(cls, method, tracer.wrap(f"distributions.{method}", cls.__dict__[method], sized=True))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _self_time(span: Span, children: list[Span]) -> float:
    covered, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start) - covered


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and seconds for the spans of one traced pass."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def named(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    def busy(group):
        return sum(s.end - s.start for s in group)

    def parent_name(s):
        parent = by_id.get(s.parent)
        return parent.name if parent else ""

    quantile, cdf = named("distributions.quantile"), named("distributions.cdf")
    sim = named("simulate.")
    batches = [s for s in quantile if parent_name(s).startswith("simulate.")]
    loss_p = named("analysis.loss_p_unconditional")
    auction_calls = named("auctions.")
    cli_calls = named("cli.")
    elems = sum(s.elems for s in quantile)
    trial_cols = sum(s.elems for s in batches)
    batch_ids = {s.id for s in batches}
    threads = max((len({c.thread for c in children[s.id] if c.id in batch_ids}) for s in sim), default=0)
    return {
        "distributions.quantile_calls": len(quantile),
        "distributions.quantile_elems": elems,
        "distributions.quantile_s": busy(quantile),
        "distributions.quantile_ns_per_elem": busy(quantile) / elems * 1e9 if elems else 0.0,
        "distributions.cdf_calls": len(cdf),
        "distributions.cdf_s": busy(cdf),
        "distributions.reserve_calls": len(named("distributions.reserve_price")),
        "distributions.reserve_s": busy(named("distributions.reserve_price")),
        "distributions.mhr_check_s": busy(named("distributions.mhr_check")),
        "simulate.calls": len(sim),
        "simulate.batches": len(batches),
        "simulate.trial_cols": trial_cols,
        "simulate.threads": threads,
        "simulate.busy_s": busy(sim),
        "simulate.self_s": sum(_self_time(s, children[s.id]) for s in sim),
        "simulate.ns_per_trial_col": busy(sim) / trial_cols * 1e9 if trial_cols else 0.0,
        "analysis.loss_numeric_calls": len(named("analysis.loss_numeric")),
        "analysis.loss_numeric_s": busy(named("analysis.loss_numeric")),
        "analysis.cx_search_calls": len(named("analysis.regular_counterexample_search")),
        "analysis.cx_search_steps": sum(parent_name(s) == "analysis.regular_counterexample_search" for s in loss_p),
        "analysis.cx_search_s": busy(named("analysis.regular_counterexample_search")),
        "analysis.q_scan_s": busy(named("analysis.q_poly")),
        "numerics.simpson_calls": len(named("numerics.adaptive_simpson")),
        "numerics.integrand_evals": tracer.integrand_evals,
        "numerics.simpson_s": busy(named("numerics.adaptive_simpson")),
        "auctions.calls": len(auction_calls),
        "auctions.busy_s": busy(auction_calls),
        "auctions.us_per_call": busy(auction_calls) / len(auction_calls) * 1e6 if auction_calls else 0.0,
        "cli.experiments": len(cli_calls),
        "cli.self_s": sum(_self_time(s, children[s.id]) for s in cli_calls),
    }


def write_spans(tracer: Tracer, path: Path):
    """One CSV row per span, times in seconds from the pass's first span."""
    origin = min((s.start for s in tracer.spans), default=0.0)
    threads = {}
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(Span._fields)
        for s in sorted(tracer.spans, key=lambda s: s.start):
            thread = threads.setdefault(s.thread, len(threads))
            writer.writerow([s.id, s.name, f"{s.start - origin:.9f}", f"{s.end - origin:.9f}", s.parent, thread, s.elems])
