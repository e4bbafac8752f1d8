"""The `--seed 7` battery of `scripts/run_experiments.py` prints the 20
SHA-256 lines whose digest pins every report's bytes, under one worker
thread and under two. numpy's exp/log kernels set the last bits of the
Monte Carlo reports, so the digest is keyed by `numeric_fingerprint()`:
numpy's build and the SIMD targets it dispatches to on this CPU. Both of
numpy 2.4.6's x86-64 levels are pinned, AVX-512 and AVX2. A host that
dispatches AVX-512 also runs the battery in a child held to the AVX2
kernels; any fingerprint without a digest skips."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_benchmark_reference import load

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
X86_64 = {"numpy": "2.4.6", "machine": "x86_64"}
# sha256 of the 20 lines, each ended by a newline, cut to 16 hex digits
DIGESTS = [
    ({**X86_64, "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]}, "8d4b8d53fe2c5453"),
    ({**X86_64, "simd": ["X86_V3"]}, "0d01712bb32be4bf"),
]
AVX2_ONLY = "X86_V4 AVX512_ICL AVX512_SPR"


def fingerprint():
    return load("run").numeric_fingerprint()


def recorded(key):
    return next((digest for f, digest in DIGESTS if f == key), None)


def run_script():
    """The battery script's exit code, run in this process on `sys.argv`."""
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.main()


def digest(stdout):
    lines = [line for line in stdout.splitlines() if re.fullmatch(r"[0-9a-f]{64}  \S+", line)]
    assert len(lines) == 20
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_seed_7_battery_digest(threads, tmp_path, monkeypatch, capsys):
    here = fingerprint()
    want = recorded(here)
    if want is None:
        pytest.skip(f"no digest recorded for {here}")
    monkeypatch.setenv("MECH_EFF_THREADS", threads)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--seed", "7", "--outdir", str(tmp_path)])
    assert run_script() == 0
    assert digest(capsys.readouterr().out) == want


@pytest.mark.parametrize("threads", ["1", "2"])
def test_seed_7_battery_digest_on_avx2_kernels(threads, tmp_path):
    # a child with numpy's AVX-512 targets disabled dispatches to AVX2 alone
    # and writes that level's bytes
    here = fingerprint()
    avx2 = {**here, "simd": ["X86_V3"]}
    want = recorded(avx2)
    if "X86_V4" not in (here["simd"] or ()) or want is None:
        pytest.skip(f"no X86_V4 dispatch to disable, or no digest recorded for {avx2}")
    code = (
        "import json, sys\n"
        "from test_battery import fingerprint, run_script\n"
        "print(json.dumps(fingerprint()))\n"
        f"sys.argv = [{str(SCRIPT)!r}, '--seed', '7', '--outdir', {str(tmp_path)!r}]\n"
        "sys.exit(run_script())\n"
    )
    env = {**os.environ, "MECH_EFF_THREADS": threads, "NPY_DISABLE_CPU_FEATURES": AVX2_ONLY}
    child = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    first, rest = child.stdout.split("\n", 1)
    assert json.loads(first) == avx2
    assert digest(rest) == want
