"""Benchmark of the mech-eff experiments, end to end and per layer.

    python3 perfbench/run.py --workload mc_wide --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports `mecheff` from its
`src/` directory; without that directory it exits 2 and prints no result.
One process runs the workload's items one after another (a closed loop with
one client) with MECH_EFF_THREADS set by the workload. A warm-up pass comes
first; then passes repeat until --seconds have passed (at least three), and
fresh interpreters are launched between them to time set-up.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics instead. Either way the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. An item fails when it raises, exits
nonzero, fails its output check, or writes bytes that differ from the
run's first pass or, for seed 0, from the hashes in reference.json.
`--record-reference` rewrites that file's entry for the workload.

Work files go to .bench_out/<workload>/ under the checkout, with
result.json (machine record and every metric) and, for a traced run, the
spans of its last traced pass in spans.csv. See NOTES.md for the design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
MIN_LAUNCHES = 9
SETUP_SHARE = 0.15
MIN_PASSES = 3
# Nominal times of the calibration kernel and of a bare interpreter launch;
# they define the reference speed. Both are close to the fastest seen on the
# machine the benchmark was built on (2-CPU Xeon VM, Python 3.11.7, numpy 2.4.6).
KERNEL_REFERENCE_S = 0.004
LAUNCH_REFERENCE_S = 0.040

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    for suffix, unit in (("ns_per_elem", "ns"), ("ns_per_trial_col", "ns"), ("us_per_call", "us")):
        if name.endswith(suffix):
            return unit
    if name.endswith("bytes_written"):
        return "bytes"
    return "ratio" if name.endswith("ratio") else "count"


def _kernel():
    # interpreter arithmetic and numpy work (Philox draws, log1p, partition),
    # the two kinds of work the workloads do; touches nothing of mecheff
    import numpy as np

    acc = 0.0
    for i in range(50_000):
        acc += i * 0.5
    u = np.random.Generator(np.random.Philox(7)).random((4096, 11))
    np.partition(-np.log1p(-u), 5, axis=1)
    return acc


def calibrate(threads: int) -> float:
    """Seconds the fixed kernel takes now, run at once on as many threads as
    the workload uses, so that a slow spell on any of its CPUs shows: the
    fastest of three tries."""
    best = float("inf")
    for _ in range(3):
        helpers = [threading.Thread(target=_kernel) for _ in range(threads - 1)]
        start = perf_counter()
        for helper in helpers:
            helper.start()
        _kernel()
        for helper in helpers:
            helper.join()
        best = min(best, perf_counter() - start)
    return best


def _scaled(seconds: float, reference: float, before: float, after: float) -> float:
    """seconds at the reference speed, judged by a yardstick timed just
    before and just after the work; `reference` is the yardstick's time at
    that speed."""
    return seconds * reference / (0.5 * (before + after))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def numeric_fingerprint() -> dict:
    """What the reference bytes depend on: numpy's build and the SIMD
    targets it dispatches to on this CPU (its exp/log kernels differ)."""
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        simd = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    except ImportError:
        simd = None
    return {"numpy": np.__version__, "machine": platform.machine(), "simd": simd}


def machine_record(workload, seed: int) -> dict:
    import numpy as np

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}_cache"] = read(index / "size")
    return {
        "workload": workload.name,
        "seed": seed,
        "mech_eff_threads": os.environ["MECH_EFF_THREADS"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": caches.get("l2_cache"),
        "l3_cache": caches.get("l3_cache"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _launch(args: list[str]) -> float:
    """Seconds from launching a fresh interpreter until it prints "ready"."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"{args} exited {code} without printing ready")
    return elapsed


def setup_sample(workload_name: str) -> tuple[float, float]:
    """One launch of setup_probe.py, which imports the CLI and builds the
    workload's distributions and reserves: its seconds, raw and scaled by
    bare interpreter launches made just before and after it."""
    bare = ["-c", "print('ready')"]
    before = _launch(bare)
    probe = _launch([str(HERE / "setup_probe.py"), workload_name])
    after = _launch(bare)
    return _scaled(probe, LAUNCH_REFERENCE_S, before, after), probe


class Tally:
    """Items attempted and failed, with each item's bytes from the first pass."""

    def __init__(self, reference: dict | None):
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, dict[str, str]] = {}
        self.reference = reference

    def record(self, name: str, hashes: dict[str, str], reason: str | None, label: str):
        self.attempted += 1
        if reason is None:
            first = self.first.setdefault(name, hashes)
            if hashes != first:
                reason = "bytes differ from the first pass"
            elif self.reference is not None and self.reference.get(name) != hashes:
                reason = "bytes differ from reference.json"
        if reason is not None:
            self.failed += 1
            print(f"FAIL {label} {name}: {reason}", file=sys.stderr)


def run_pass(workload, outdir: Path, tally: Tally, label: str) -> dict:
    """Run every item once; return the pass's seconds, raw and scaled to the
    reference speed, and what it wrote."""
    seconds, raw, cli_rows, cli_bytes = 0.0, 0.0, 0, 0
    # the kernel's interpreter half holds the GIL, so n copies take about n
    # times as long as one
    reference = KERNEL_REFERENCE_S * workload.threads
    before = calibrate(workload.threads)
    for item in workload.items:
        start = perf_counter()
        try:
            code, outputs, log = item.run(outdir)
        except Exception:
            code, outputs, log = None, {}, traceback.format_exc()
        elapsed = perf_counter() - start
        after = calibrate(workload.threads)
        seconds += _scaled(elapsed, reference, before, after)
        raw += elapsed
        before = after
        if code is None:
            reason = "raised: " + log.strip().splitlines()[-1]
        elif code != 0:
            reason = f"exit code {code}: {log.strip()}"
        else:
            try:
                reason = item.check(outputs)
            except Exception:
                reason = "check raised: " + traceback.format_exc().strip().splitlines()[-1]
        tally.record(item.name, {f: _sha(b) for f, b in sorted(outputs.items())}, reason, label)
        for fname, data in outputs.items():
            if fname.endswith(".csv"):
                cli_rows += data.count(b"\n") - 1
                cli_bytes += len(data) + len(outputs.get(fname[:-4] + ".json", b""))
    return {"seconds": seconds, "raw_seconds": raw, "cli.rows": cli_rows, "cli.bytes_written": cli_bytes}


def _load_reference(workload_name: str, seed: int) -> dict | None:
    """The reference hashes, when this run's seed and numerics match them."""
    if seed != DEFAULT_SEED:
        return None
    entry = json.loads(REFERENCE.read_text()).get(workload_name)
    if entry is None:
        raise RuntimeError(f"reference.json has no entry for {workload_name}; run --record-reference")
    if entry["fingerprint"] != numeric_fingerprint():
        print(f"note: reference.json was recorded with {entry['fingerprint']}; not compared here", file=sys.stderr)
        return None
    return entry["hashes"]


def record_reference(workload, outdir: Path):
    tally = Tally(None)
    run_pass(workload, outdir, tally, "reference")
    if tally.failed:
        raise RuntimeError("an item failed; reference not written")
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table[workload.name] = {"fingerprint": numeric_fingerprint(), "hashes": tally.first}
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def end_to_end(workload, seconds: float, tally: Tally, outdir: Path):
    setup_sample(workload.name)  # may compile bytecode; not counted
    run_pass(workload, outdir, tally, "warm-up")
    setup, setup_raw, passes = [], [], []
    start, setup_cost = perf_counter(), 0.0
    while len(passes) < MIN_PASSES or len(setup) < MIN_LAUNCHES or perf_counter() - start < seconds:
        passes.append(run_pass(workload, outdir, tally, f"pass {len(passes)}"))
        # launches fill a fixed share of the run, spread over all of it, so
        # that they meet the same slow and fast spells of the host as passes
        while setup_cost < SETUP_SHARE * (perf_counter() - start):
            sample_start = perf_counter()
            scaled, raw = setup_sample(workload.name)
            setup_cost += perf_counter() - sample_start
            setup.append(scaled)
            setup_raw.append(raw)
    times = [p["seconds"] for p in passes]
    raw = [p["raw_seconds"] for p in passes]
    wall = statistics.median(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "trials_per_s": sum(item.trials for item in workload.items) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} launches; unscaled {statistics.median(setup_raw):.6g} s",
        "wall_s": f"median of {len(times)} passes, p90 {_p90(times)}; unscaled {statistics.median(raw):.6g} s",
        "trials_per_s": f"{sum(item.trials for item in workload.items)} trials per pass",
        "peak_rss_mb": "getrusage, this process",
    }
    samples = {"setup_s": setup, "setup_unscaled_s": setup_raw, "pass_s": times, "pass_unscaled_s": raw}
    return metrics, samples, notes


def _p90(times):
    # a percentile is reported only with at least ten samples beyond it
    if len(times) < 100:
        return f"not reported ({len(times)} samples, 100 needed)"
    return f"{statistics.quantiles(times, n=10)[-1]:.6f} s"


def per_layer(workload, seconds: float, tally: Tally, outdir: Path):
    import tracing
    import workloads
    from mecheff import distributions as d

    classes = (d.Exponential, d.Uniform, d.GFamily, d.PFamily, workloads.Weibull)
    run_pass(workload, outdir, tally, "warm-up")
    plain, traced, layers = [], [], []
    start = perf_counter()
    while len(traced) < MIN_PASSES or perf_counter() - start < seconds:
        i = len(traced)
        plain.append(run_pass(workload, outdir, tally, f"pass {i}")["seconds"])
        last = tracing.Tracer()
        with tracing.instrument(last, classes):
            result = run_pass(workload, outdir, tally, f"traced pass {i}")
        traced.append(result["seconds"])
        layers.append(
            {
                **tracing.layer_metrics(last),
                "cli.rows": result["cli.rows"],
                "cli.bytes_written": result["cli.bytes_written"],
            }
        )
    tracing.write_spans(last, outdir.parent / "spans.csv")
    metrics = {name: statistics.median_low([layer[name] for layer in layers]) for name in layers[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    notes = {"trace.overhead_ratio": f"median of {len(traced)} traced / {len(plain)} untraced passes"}
    return metrics, {"pass_s": plain, "traced_pass_s": traced}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("mc_wide", "mc_narrow", "scalar"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true", help="rewrite reference.json for seed 0")
    args = parser.parse_args(argv)
    if not (SRC / "mecheff" / "__init__.py").is_file():
        print(f"error: {SRC / 'mecheff'} is missing; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mecheff

    if SRC not in Path(mecheff.__file__).resolve().parents:
        print(f"error: imported mecheff from {mecheff.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.build(args.workload, args.seed, len(os.sched_getaffinity(0)))
    os.environ["MECH_EFF_THREADS"] = str(workload.threads)
    outdir = ROOT / ".bench_out" / workload.name / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    if args.record_reference:
        if args.seed != DEFAULT_SEED:
            parser.error("--record-reference needs the default seed")
        record_reference(workload, outdir)
        return 0

    tally = Tally(_load_reference(workload.name, args.seed))
    measure = per_layer if args.trace else end_to_end
    metrics, samples, notes = measure(workload, args.seconds, tally, outdir)
    machine = machine_record(workload, args.seed)
    fail_ratio = tally.failed / tally.attempted
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, value in metrics.items():
        unit = _unit(name)
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{workload.name} {name} {shown} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"{workload.name} fail_ratio {fail_ratio:.6g} ratio  ({tally.failed} of {tally.attempted} items failed)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": _unit(n)} for n, v in metrics.items()},
    }
    detail = {**result, "fail_ratio": fail_ratio, "machine": machine, "samples": samples}
    (outdir.parent / "result.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
