"""Command-line front end: named experiments with CSV + JSON reporting.

Each experiment is declared once, as an entry of the `_EXPERIMENTS` table
that holds its runner, the config values it starts from and the check its
rows must meet. Those defaults are the first config source; the config file
and then the flags override them. The runner gets the config and its built
distribution and returns the row records and any extra JSON parameters; the
experiment passes when the check holds on every row.

Each experiment writes a CSV of per-k rows and a JSON summary embedding the
resolved parameters, and exits 0 when every row passes, 1 when any fails,
2 on configuration errors. The columns are the keys of an experiment's row
records, in a fixed order so golden-file comparisons stay stable; floats are
printed with 17 significant digits and identical (config, seed) runs produce
byte-identical output regardless of the thread cap (MECH_EFF_THREADS).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import operator
import sys
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import analysis, simulate
from .distributions import (
    ALPHA,
    FAMILIES,
    PFamily,
    cdf_left,
    from_spec,
    mhr_check,
    reserve_price,
    virtual_value,
)
from .errors import DegenerateConditioning, MechEffError

_DEFAULT_DIST = {"family": "exponential", "rate": 1.0}


class ConfigError(Exception):
    pass


def _parse_int(value) -> int:
    """An int, an integral float such as 5.0, or an int's text; a bool or a
    fractional number raises ValueError instead of being truncated."""
    integral = isinstance(value, (int, str)) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _parse_int_range(value, what):
    """Accept an int, an 'a..b' range, a comma list, or a list of ints."""
    if not isinstance(value, (str, list)):
        return [_parse_int(value)]
    if isinstance(value, list):
        out = [_parse_int(v) for v in value]
        if not out:
            raise ConfigError(f"{what} range must be nonempty")
        return out
    if "," in value:
        try:
            return [int(p) for p in value.split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"bad {what} list {value!r}") from None
    if ".." in value:
        lo_s, _, hi_s = value.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigError(f"bad {what} range {value!r}") from None
        if hi < lo:
            raise ConfigError(f"{what} range {value!r} is empty")
        return list(range(lo, hi + 1))
    try:
        return [int(value)]
    except ValueError:
        raise ConfigError(f"bad {what} value {value!r}") from None


def parse_dist_arg(text: str) -> dict:
    """Inline JSON record or the compact colon form, e.g. 'exponential:1'.

    The numbers after the family tag fill the family's fields in declaration
    order; when fewer are given, leading fields with a default are skipped
    first (so a lone `uniform` argument is `hi`). Fields with a float default
    are always written out, so `exponential` is `{"rate": 1.0}`, while `g`'s
    `eps` appears only when given.
    """
    text = text.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad distribution JSON: {exc}") from exc
    family, _, rest = text.partition(":")
    if family not in FAMILIES:
        raise ConfigError(f"unknown distribution family {family!r}")
    try:
        nums = [float(p) for p in rest.split(":")] if rest else []
    except ValueError:
        raise ConfigError(f"bad distribution argument {text!r}") from None
    params = fields(FAMILIES[family])
    if len(nums) > len(params):
        raise ConfigError(f"{family} takes at most {len(params)} arguments, got {text!r}")
    skip = 0
    while len(params) - skip > len(nums) and params[skip].default is not MISSING:
        skip += 1
    given = dict(zip((f.name for f in params[skip:]), nums))
    record = {"family": family}
    for f in params:
        if f.name in given or isinstance(f.default, float):
            record[f.name] = given.get(f.name, f.default)
    return record


def _parse_distribution(value) -> dict:
    return dict(value) if isinstance(value, dict) else parse_dist_arg(str(value))


def _parse_m(value):
    """'auto', a range or a list stays as given (regular_cx parses it); else an int."""
    text = str(value)
    if isinstance(value, list) or text == "auto" or ".." in text or "," in text:
        return value
    return _parse_int(value)


def _option(flag, parse, help, **default):
    """A config field that the config file and `flag` both set through `parse`."""
    return field(metadata={"flag": flag, "parse": parse, "help": help}, **default)


@dataclass
class ExperimentConfig:
    """One run. Every field but `experiment` is set from its default, then the
    experiment's defaults, a config file and its flag, each through the
    field's `parse`."""

    experiment: str
    distribution: dict = _option(
        "--dist",
        _parse_distribution,
        "distribution: JSON record or family:args",
        default_factory=lambda: dict(_DEFAULT_DIST),
    )
    k: list[int] = _option(
        "--k",
        lambda v: _parse_int_range(v, "k"),
        "bidder count, range a..b, or single int",
        default_factory=lambda: [5],
    )
    t: int = _option("--t", _parse_int, "number of identical items", default=1)
    m: object = _option("--m", _parse_m, "extra bidders: int, range a..b, or 'auto'", default="auto")
    n_trials: int = _option("--n", _parse_int, "Monte Carlo trials", default=1_000_000)
    seed: int = _option("--seed", _parse_int, "RNG seed (64-bit)", default=12345)
    output_path: str | None = _option(
        "--out", str, "output prefix; writes <out>.csv and <out>.json", default=None
    )


_OPTIONS = [f for f in fields(ExperimentConfig) if f.metadata]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _rows_to_csv(rows) -> str:
    columns = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=",", lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return buf.getvalue()


def _resolve_m(cfg: ExperimentConfig, k: int, auto_bound) -> int:
    """cfg.m as an int; "auto" takes `auto_bound(k)`."""
    if cfg.m == "auto":
        return auto_bound(k)
    if not isinstance(cfg.m, int):
        raise ConfigError(f"m must be an int or 'auto' here, got {cfg.m!r}")
    return cfg.m


def _not_below(value, floor, std_err) -> bool:
    """The one-sided 3-sigma test: `value` is not significantly below `floor`."""
    return value >= floor - 3.0 * std_err


# --- experiment runners ------------------------------------------------------
# Each takes (cfg, dist) and returns (rows, extra_params); every row is a
# dict whose keys are the CSV columns, in order.


def _run_reserve(cfg, dist):
    r = reserve_price(dist)
    print(repr(float(r)))
    return [{"dist": json.dumps(cfg.distribution, sort_keys=True), "reserve": float(r)}], {}


def _run_gainloss(cfg, dist):
    r = reserve_price(dist)
    phi = cdf_left(dist, r)
    rows = []
    for k in cfg.k:
        m = _resolve_m(cfg, k, analysis.upper_bound_m)
        g = analysis.gain(phi, r, m)
        try:
            loss = analysis.loss_numeric(dist, k)
        except DegenerateConditioning:
            loss = 0.0
        loss_extremal = analysis.loss_closed_form_g(phi, r, k) if phi > 0.0 else 0.0
        rows.append(
            {
                "k": k,
                "m": m,
                "phi": phi,
                "r": r,
                "gain": g,
                "loss": loss,
                "loss_extremal": loss_extremal,
                "diff": g - loss,
                "pass": loss <= loss_extremal + 1e-8,
            }
        )
    return rows, {"phi": phi, "r": r}


def _run_bounds(cfg, dist):
    rows = [
        {"k": k, "m_upper": analysis.upper_bound_m(k), "m_lower": analysis.lower_bound_m(k)}
        for k in cfg.k
    ]
    return rows, {}


def _paired_runner(auto_bound, row_check):
    """thm1/thm2: EMA with k bidders against RMA with m extra, per k."""

    def run(cfg, dist):
        extras = [_resolve_m(cfg, k, auto_bound) for k in cfg.k]
        pairs = list(zip(cfg.k, extras))
        pcs = simulate.paired_compare(dist, pairs, cfg.t, cfg.n_trials, cfg.seed)
        rows = [
            {
                "k": k,
                "t": cfg.t,
                "extra": extra,
                "n_trials": cfg.n_trials,
                "diff_mean": pc.diff_mean,
                "diff_std_err": pc.diff_std_err,
                "eff_ema_mean": pc.ema.mean,
                "eff_ema_std_err": pc.ema.std_err,
                "eff_rma_mean": pc.rma.mean,
                "eff_rma_std_err": pc.rma.std_err,
                "pass": row_check(pc),
            }
            for k, extra, pc in zip(cfg.k, extras, pcs)
        ]
        return rows, {"extra_by_k": {str(row["k"]): row["extra"] for row in rows}}

    return run


def _run_thm3(cfg, dist):
    r = reserve_price(dist)
    phi = cdf_left(dist, r)
    eps_slack = 0.1
    plans = []
    for k in cfg.k:
        m = _resolve_m(cfg, k, analysis.upper_bound_m)
        s = analysis.multi_item_s(cfg.t, m, eps_slack)
        plans.append((k, m, s, analysis.multi_gain_exact(phi, r, m, s, cfg.t)))
    pairs = [(k, m + s) for k, m, s, _ in plans]
    pcs = simulate.paired_compare(dist, pairs, cfg.t, cfg.n_trials, cfg.seed)
    rows = []
    for (k, m, s, gain_exact), pc in zip(plans, pcs):
        gain_floor = r * cfg.t * (1.0 - phi**m)
        analytic_ok = gain_exact >= gain_floor - 1e-12
        rows.append(
            {
                "k": k,
                "t": cfg.t,
                "m": m,
                "s": s,
                "extra": m + s,
                "gain_exact": gain_exact,
                "gain_floor": gain_floor,
                "analytic_pass": analytic_ok,
                "diff_mean": pc.diff_mean,
                "diff_std_err": pc.diff_std_err,
                "pass": analytic_ok and _not_below(pc.diff_mean, 0.0, pc.diff_std_err),
            }
        )
    return rows, {"epsilon_slack": eps_slack, "phi": phi, "r": r}


def _run_regular_cx(cfg, dist):
    r = 1.0
    margin_target = 1e-6 * r
    ms = _parse_int_range(cfg.m if cfg.m != "auto" else "1..10", "m")
    grid_u = 0.05 + 0.9 * np.arange(64) / 63
    rows = []
    for k in cfg.k:
        for m in ms:
            eps_star = analysis.regular_counterexample_search(k, m, r, margin=margin_target)
            capped = PFamily(eps=eps_star, r=r)
            loss = analysis.loss_p_unconditional(eps_star, r, k)
            g = analysis.gain(r / (r + eps_star), r, m)
            grid = capped.quantile(grid_u)
            psi = virtual_value(capped, grid[grid < r])
            regular_ok = bool(np.all(psi[1:] >= psi[:-1] - 1e-9))
            mhr_violated = not mhr_check(capped, 256).is_mhr
            rows.append(
                {
                    "k": k,
                    "m": m,
                    "eps_star": eps_star,
                    "loss": loss,
                    "gain": g,
                    "margin": loss - g,
                    "regular_ok": regular_ok,
                    "mhr_violated": mhr_violated,
                    "pass": loss - g > margin_target and regular_ok and mhr_violated,
                }
            )
    return rows, {"r": r, "margin_target": margin_target}


def _run_ratio(cfg, dist):
    rows = []
    for k, est in zip(cfg.k, simulate.efficiency_ratio(dist, cfg.k, cfg.n_trials, cfg.seed)):
        eff_floor = 1.0 - ALPHA**k
        rev_floor = 1.0 - ALPHA ** (k - 1)
        rows.append(
            {
                "k": k,
                "eff_ratio": est.eff_ratio,
                "eff_floor": eff_floor,
                "eff_std_err": est.eff_ratio_std_err,
                "rev_ratio": est.rev_ratio,
                "rev_floor": rev_floor,
                "rev_std_err": est.rev_ratio_std_err,
                "pass": _not_below(est.eff_ratio, eff_floor, est.eff_ratio_std_err)
                and _not_below(est.rev_ratio, rev_floor, est.rev_ratio_std_err),
            }
        )
    return rows, {}


def _run_bk(cfg, dist):
    pcs = simulate.revenue_compare_bk(dist, cfg.k, cfg.n_trials, cfg.seed)
    rows = [
        {
            "k": k,
            "diff_mean": pc.diff_mean,
            "diff_std_err": pc.diff_std_err,
            "rev_ema_mean": pc.ema.mean,
            "rev_rma_mean": pc.rma.mean,
            "pass": _not_below(pc.diff_mean, 0.0, pc.diff_std_err),
        }
        for k, pc in zip(cfg.k, pcs)
    ]
    return rows, {}


@dataclass(frozen=True)
class _Experiment:
    """`run(cfg, dist)` gives the rows and extra JSON params; `defaults` are
    the config values the experiment starts from; it passes when `check`
    holds on every row. Without `--out`, the CSV goes to stdout unless
    `csv_to_stdout` is false (the runner prints its own result)."""

    run: Callable
    defaults: dict
    check: Callable = operator.itemgetter("pass")
    csv_to_stdout: bool = True


_EXPERIMENTS = {
    "reserve": _Experiment(_run_reserve, {}, check=lambda row: True, csv_to_stdout=False),
    "gainloss": _Experiment(_run_gainloss, {"k": "1..8"}),
    "bounds": _Experiment(
        _run_bounds, {"k": "1..100"}, check=lambda row: row["m_lower"] <= row["m_upper"]
    ),
    "thm1": _Experiment(
        _paired_runner(
            analysis.upper_bound_m, lambda pc: _not_below(pc.diff_mean, 0.0, pc.diff_std_err)
        ),
        {"k": [1, 2, 5, 10]},
    ),
    # the strict shortfall is a claim about the extremal family
    "thm2": _Experiment(
        _paired_runner(
            analysis.lower_bound_m,
            lambda pc: pc.diff_mean < 0.0 and abs(pc.diff_mean) > 3.0 * pc.diff_std_err,
        ),
        {"k": [3, 5, 8], "distribution": {"family": "g", "phi": ALPHA, "r": 1.0, "eps": 1e-6}},
    ),
    "thm3": _Experiment(_run_thm3, {"k": [20]}),
    "regular_cx": _Experiment(_run_regular_cx, {"k": "1..5"}),
    "ratio": _Experiment(_run_ratio, {"k": [1, 2, 5, 10]}),
    "bk": _Experiment(_run_bk, {"k": [1, 3, 5]}),
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute one experiment; write reports; return the exit status."""
    experiment = _EXPERIMENTS[cfg.experiment]
    try:
        if not cfg.k:  # an experiment without rows has no columns to report
            raise ConfigError("k range must be nonempty")
        rows, extra_params = experiment.run(cfg, from_spec(cfg.distribution))
    except (ConfigError, MechEffError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passed = all(experiment.check(row) for row in rows)
    csv_text = _rows_to_csv(rows)
    summary = {
        "experiment": cfg.experiment,
        "pass": passed,
        "params": {
            "distribution": cfg.distribution,
            "k": cfg.k,
            "t": cfg.t,
            "m": cfg.m,
            "n_trials": cfg.n_trials,
            "seed": cfg.seed,
            **extra_params,
        },
        "rows": rows,
    }
    if cfg.output_path:
        prefix = Path(cfg.output_path)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        prefix.with_suffix(".csv").write_text(csv_text, encoding="utf-8")
        prefix.with_suffix(".json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"{cfg.experiment}: {'PASS' if passed else 'FAIL'} -> {prefix.with_suffix('.csv')}")
    else:
        if experiment.csv_to_stdout:
            sys.stdout.write(csv_text)
        print(f"{cfg.experiment}: {'PASS' if passed else 'FAIL'}", file=sys.stderr)
    return 0 if passed else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mech-eff",
        description="Reserve-price vs efficiency-maximizing auction experiments.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for f in _OPTIONS:
            p.add_argument(f.metadata["flag"], dest=f.name, help=f.metadata["help"])
    return parser


def _read_config(path, experiment) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if raw.get("experiment", experiment) != experiment:
        raise ConfigError(
            f"config experiment {raw['experiment']!r} conflicts with subcommand {experiment!r}"
        )
    return raw


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment's defaults, then the config file's fields, then the
    flags; a field that is absent or null keeps the value before it."""
    cfg = ExperimentConfig(experiment=args.experiment)
    sources = [_read_config(args.config, cfg.experiment)] if args.config else []
    for source in (_EXPERIMENTS[cfg.experiment].defaults, *sources, vars(args)):
        for f in _OPTIONS:
            value = source.get(f.name)
            if value is None:
                continue
            try:
                setattr(cfg, f.name, f.metadata["parse"](value))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad {f.name} value {value!r}: {exc}") from exc

    if cfg.t < 1:
        raise ConfigError("t must be at least 1")
    if cfg.n_trials < 1:
        raise ConfigError("n_trials must be at least 1")
    from_spec(cfg.distribution)  # validate early; raises on bad records
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except (ConfigError, MechEffError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
