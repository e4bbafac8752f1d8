"""Every benchmark workload's items, run once at the benchmark's default seed,
write the bytes whose SHA-256 `perfbench/reference.json` records, so a byte
change shows here before a benchmark run. Skipped where numpy's build or SIMD
dispatch differs from the one the reference was recorded with.

The traced run (`perfbench/run.py --trace 1`) patches the functions and
methods `perfbench/tracing.py` names, so a renamed or moved one shows here
too, not first as a crash of the traced benchmark."""

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["mc_wide", "mc_narrow", "scalar"])
def test_workload_bytes_match_reference(name, tmp_path, monkeypatch):
    bench, workloads = load("run"), load("workloads")
    entry = json.loads(bench.REFERENCE.read_text())[name]
    if entry["fingerprint"] != bench.numeric_fingerprint():
        pytest.skip(f"reference.json was recorded with {entry['fingerprint']}")
    workload = workloads.build(name, bench.DEFAULT_SEED, len(os.sched_getaffinity(0)))
    monkeypatch.setenv("MECH_EFF_THREADS", str(workload.threads))
    hashes = {}
    for item in workload.items:
        code, outputs, log = item.run(tmp_path)
        assert code == 0, log
        assert item.check(outputs) is None, item.name
        hashes[item.name] = {f: hashlib.sha256(b).hexdigest() for f, b in sorted(outputs.items())}
    assert hashes == entry["hashes"]


def test_traced_run_finds_what_it_patches(tmp_path, monkeypatch):
    tracing, workloads = load("tracing"), load("workloads")
    from mecheff import distributions as d

    # `instrument` wraps the quantile and cdf each class defines itself
    classes = (d.Exponential, d.Uniform, d.GFamily, d.PFamily)
    for cls in classes:
        assert {"quantile", "cdf"} <= set(vars(cls)), cls
    workload = workloads.build("mc_narrow", 0, 1)
    monkeypatch.setenv("MECH_EFF_THREADS", str(workload.threads))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, (*classes, workloads.Weibull)):
        for item in workload.items:
            code, _, log = item.run(tmp_path)
            assert code == 0, log
    metrics = tracing.layer_metrics(tracer)
    assert metrics["simulate.calls"] == 2
    assert metrics["distributions.quantile_calls"] > 0
