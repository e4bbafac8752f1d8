"""The `--seed 7` battery of `scripts/run_experiments.py`, run in process,
prints the 20 SHA-256 lines whose digest pins every report's bytes, under
one worker thread and under two. Skipped where numpy's build or SIMD
dispatch differs from the one `perfbench/reference.json` was recorded with,
as its exp/log kernels set the last bits of the Monte Carlo reports."""

import hashlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from test_benchmark_reference import load

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
# sha256 of the 20 lines, each ended by a newline, cut to 16 hex digits
DIGEST = "8d4b8d53fe2c5453"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_seed_7_battery_digest(threads, tmp_path, monkeypatch, capsys):
    bench = load("run")
    fingerprint = bench.numeric_fingerprint()
    recorded = [entry["fingerprint"] for entry in json.loads(bench.REFERENCE.read_text()).values()]
    if any(f != fingerprint for f in recorded):
        pytest.skip(f"the digest was recorded with {recorded[0]}")
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setenv("MECH_EFF_THREADS", threads)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--seed", "7", "--outdir", str(tmp_path)])
    assert script.main() == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if re.fullmatch(r"[0-9a-f]{64}  \S+", line)]
    assert len(lines) == 20
    assert hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()[:16] == DIGEST
