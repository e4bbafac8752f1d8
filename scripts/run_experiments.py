#!/usr/bin/env python3
"""Run the full battery of named experiments and collect CSV/JSON reports.

Every Monte Carlo job runs 1e6 trials. Each job lands in <outdir>/<name>.csv
and <outdir>/<name>.json, where <name> is the experiment's, or
gainloss_<family> for gainloss on the uniform and extremal families; the
script prints one `<sha256>  <name>.<ext>` line per report, as `sha256sum`
would from inside <outdir>, and exits nonzero if any experiment's asserted
inequalities fail.
Two runs wrote the same bytes when those lines match, e.g. under
MECH_EFF_THREADS=1 and =2, or against two source trees.

Usage:
    python scripts/run_experiments.py --outdir results [--seed N]
"""

import argparse
import hashlib
import sys
from pathlib import Path

from mecheff.cli import main as cli_main


def jobs(outdir, seed, n):
    """The `mech-eff` argv of each job in the battery, in run order."""
    battery = {
        "bounds": ["bounds", "--k", "1..100"],
        "gainloss": ["gainloss", "--dist", "exponential:1", "--k", "1..8"],
        "gainloss_uniform": ["gainloss", "--dist", "uniform:1", "--k", "1..8"],
        "gainloss_g": ["gainloss", "--dist", "g:0.63:1", "--k", "1..8"],
        "thm1": ["thm1", "--dist", "exponential:1", "--k", "1,2,5,10", "--n", str(n)],
        "thm2": ["thm2", "--k", "3..8", "--n", str(n)],
        "thm3": ["thm3", "--dist", "exponential:1", "--k", "20", "--t", "2", "--n", str(n)],
        "regular_cx": ["regular_cx", "--k", "1..5", "--m", "1..10"],
        "ratio": ["ratio", "--dist", "exponential:1", "--k", "1..10", "--n", str(n)],
        "bk": ["bk", "--dist", "uniform:1", "--k", "1..5", "--n", str(n)],
    }
    return [job + ["--seed", str(seed), "--out", f"{outdir}/{name}"] for name, job in battery.items()]


def run(outdir, seed, n):
    failures = []
    for args in jobs(outdir, seed, n):
        rc = cli_main(args)
        prefix = args[args.index("--out") + 1]
        if rc != 0:
            failures.append((Path(prefix).name, rc))
        if rc == 2:  # a refused config writes no report
            continue
        for report in (Path(prefix + ".csv"), Path(prefix + ".json")):
            print(f"{hashlib.sha256(report.read_bytes()).hexdigest()}  {report.name}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--seed", type=int, default=20240811)
    args = ap.parse_args()

    failures = run(args.outdir, args.seed, 1_000_000)
    if failures:
        print(f"failed experiments: {failures}", file=sys.stderr)
        return 1
    print(f"all experiments passed; reports in {args.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
