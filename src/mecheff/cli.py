"""Command-line front end: named experiments with CSV + JSON reporting.

Each experiment writes a CSV of per-k rows and a JSON summary embedding the
resolved parameters, and exits 0 when every asserted inequality holds, 1
when any fails, 2 on configuration errors. The columns are the keys of an
experiment's row records, in a fixed order so golden-file comparisons stay
stable; floats are printed with 17 significant digits and identical
(config, seed) runs produce byte-identical output regardless of the thread
cap (MECH_EFF_THREADS).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

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
# The strict-shortfall experiment is about the extremal family.
_THM2_DIST = {"family": "g", "phi": ALPHA, "r": 1.0, "eps": 1e-6}

_DEFAULT_K = {
    "gainloss": "1..8",
    "bounds": "1..100",
    "thm1": [1, 2, 5, 10],
    "thm2": [3, 5, 8],
    "thm3": [20],
    "regular_cx": "1..5",
    "ratio": [1, 2, 5, 10],
    "bk": [1, 3, 5],
}


class ConfigError(Exception):
    pass


def _parse_int_range(value, what):
    """Accept an int, an 'a..b' range, a comma list, or a list of ints."""
    if isinstance(value, int):
        return [value]
    if isinstance(value, list):
        out = [int(v) for v in value]
        if not out:
            raise ConfigError(f"{what} range must be nonempty")
        return out
    text = str(value)
    if "," in text:
        try:
            return [int(p) for p in text.split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"bad {what} list {text!r}") from None
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigError(f"bad {what} range {text!r}") from None
        if hi < lo:
            raise ConfigError(f"{what} range {text!r} is empty")
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError:
        raise ConfigError(f"bad {what} value {text!r}") from None


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
    return int(value)


def _option(flag, parse, help, **default):
    """A config field that the config file and `flag` both set through `parse`."""
    return field(metadata={"flag": flag, "parse": parse, "help": help}, **default)


@dataclass
class ExperimentConfig:
    """One run. Every field but `experiment` is set from its default, then a
    config file, then its flag, each through the field's `parse`."""

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
    t: int = _option("--t", int, "number of identical items", default=1)
    m: object = _option("--m", _parse_m, "extra bidders: int, range a..b, or 'auto'", default="auto")
    n_trials: int = _option("--n", int, "Monte Carlo trials", default=1_000_000)
    seed: int = _option("--seed", int, "RNG seed (64-bit)", default=12345)
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
    return auto_bound(k) if cfg.m == "auto" else int(cfg.m)  # type: ignore[arg-type]


# --- experiment runners ------------------------------------------------------
# Each returns (rows, passed, extra_params); every row is a dict whose keys
# are the CSV columns, in order.


def _run_reserve(cfg):
    dist = from_spec(cfg.distribution)
    r = reserve_price(dist)
    print(repr(float(r)))
    rows = [{"dist": json.dumps(cfg.distribution, sort_keys=True), "reserve": float(r)}]
    return rows, True, {}


def _run_gainloss(cfg):
    dist = from_spec(cfg.distribution)
    r = reserve_price(dist)
    phi = cdf_left(dist, r)
    rows, ok = [], True
    for k in cfg.k:
        m = _resolve_m(cfg, k, analysis.upper_bound_m)
        g = analysis.gain(phi, r, m)
        try:
            loss = analysis.loss_numeric(dist, k)
        except DegenerateConditioning:
            loss = 0.0
        loss_extremal = analysis.loss_closed_form_g(phi, r, k) if phi > 0.0 else 0.0
        row_ok = loss <= loss_extremal + 1e-8
        ok &= row_ok
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
                "pass": row_ok,
            }
        )
    return rows, ok, {"phi": phi, "r": r}


def _run_bounds(cfg):
    rows, ok = [], True
    for k in cfg.k:
        mu, ml = analysis.upper_bound_m(k), analysis.lower_bound_m(k)
        ok &= ml <= mu
        rows.append({"k": k, "m_upper": mu, "m_lower": ml})
    return rows, ok, {}


def _paired_rows(cfg, auto_bound, row_check):
    """thm1/thm2: EMA with k bidders against RMA with m extra, per k."""
    dist = from_spec(cfg.distribution)
    rows, ok = [], True
    resolved = {}
    for k in cfg.k:
        extra = _resolve_m(cfg, k, auto_bound)
        resolved[str(k)] = extra
        pc = simulate.paired_compare(dist, k, extra, cfg.t, cfg.n_trials, cfg.seed)
        row_ok = row_check(pc)
        ok &= row_ok
        rows.append(
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
                "pass": row_ok,
            }
        )
    return rows, ok, {"extra_by_k": resolved}


def _run_thm1(cfg):
    return _paired_rows(
        cfg, analysis.upper_bound_m, lambda pc: pc.diff_mean >= -3.0 * pc.diff_std_err
    )


def _run_thm2(cfg):
    return _paired_rows(
        cfg,
        analysis.lower_bound_m,
        lambda pc: pc.diff_mean < 0.0 and abs(pc.diff_mean) > 3.0 * pc.diff_std_err,
    )


def _run_thm3(cfg):
    dist = from_spec(cfg.distribution)
    r = reserve_price(dist)
    phi = cdf_left(dist, r)
    eps_slack = 0.1
    rows, ok = [], True
    for k in cfg.k:
        m = _resolve_m(cfg, k, analysis.upper_bound_m)
        s = analysis.multi_item_s(cfg.t, m, eps_slack)
        gain_exact = analysis.multi_gain_exact(phi, r, m, s, cfg.t)
        gain_floor = r * cfg.t * (1.0 - phi**m)
        analytic_ok = gain_exact >= gain_floor - 1e-12
        pc = simulate.paired_compare(dist, k, m + s, cfg.t, cfg.n_trials, cfg.seed)
        sim_ok = pc.diff_mean >= -3.0 * pc.diff_std_err
        ok &= analytic_ok and sim_ok
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
                "pass": analytic_ok and sim_ok,
            }
        )
    return rows, ok, {"epsilon_slack": eps_slack, "phi": phi, "r": r}


def _run_regular_cx(cfg):
    r = 1.0
    margin_target = 1e-6 * r
    ms = _parse_int_range(cfg.m if cfg.m != "auto" else "1..10", "m")
    rows, ok = [], True
    for k in cfg.k:
        for m in ms:
            eps_star = analysis.regular_counterexample_search(k, m, r, margin=margin_target)
            dist = PFamily(eps=eps_star, r=r)
            loss = analysis.loss_p_unconditional(eps_star, r, k)
            g = r * (1.0 - (r / (r + eps_star)) ** m)
            grid = [dist.quantile(u) for u in (0.05 + 0.9 * i / 63 for i in range(64))]
            psi = [virtual_value(dist, x) for x in grid if x < r]
            regular_ok = all(b >= a - 1e-9 for a, b in zip(psi, psi[1:]))
            mhr_violated = not mhr_check(dist, 256).is_mhr
            row_ok = loss - g > margin_target and regular_ok and mhr_violated
            ok &= row_ok
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
                    "pass": row_ok,
                }
            )
    return rows, ok, {"r": r, "margin_target": margin_target}


def _run_ratio(cfg):
    dist = from_spec(cfg.distribution)
    rows, ok = [], True
    for k in cfg.k:
        est = simulate.efficiency_ratio(dist, k, cfg.n_trials, cfg.seed)
        eff_floor = 1.0 - ALPHA**k
        rev_floor = 1.0 - ALPHA ** (k - 1)
        row_ok = (
            est.eff_ratio >= eff_floor - 3.0 * est.eff_ratio_std_err
            and est.rev_ratio >= rev_floor - 3.0 * est.rev_ratio_std_err
        )
        ok &= row_ok
        rows.append(
            {
                "k": k,
                "eff_ratio": est.eff_ratio,
                "eff_floor": eff_floor,
                "eff_std_err": est.eff_ratio_std_err,
                "rev_ratio": est.rev_ratio,
                "rev_floor": rev_floor,
                "rev_std_err": est.rev_ratio_std_err,
                "pass": row_ok,
            }
        )
    return rows, ok, {}


def _run_bk(cfg):
    dist = from_spec(cfg.distribution)
    rows, ok = [], True
    for k in cfg.k:
        pc = simulate.revenue_compare_bk(dist, k, cfg.n_trials, cfg.seed)
        row_ok = pc.diff_mean >= -3.0 * pc.diff_std_err
        ok &= row_ok
        rows.append(
            {
                "k": k,
                "diff_mean": pc.diff_mean,
                "diff_std_err": pc.diff_std_err,
                "rev_ema_mean": pc.ema.mean,
                "rev_rma_mean": pc.rma.mean,
                "pass": row_ok,
            }
        )
    return rows, ok, {}


_RUNNERS = {
    "reserve": _run_reserve,
    "gainloss": _run_gainloss,
    "bounds": _run_bounds,
    "thm1": _run_thm1,
    "thm2": _run_thm2,
    "thm3": _run_thm3,
    "regular_cx": _run_regular_cx,
    "ratio": _run_ratio,
    "bk": _run_bk,
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute one experiment; write reports; return the exit status."""
    try:
        if not cfg.k:  # an experiment without rows has no columns to report
            raise ConfigError("k range must be nonempty")
        rows, passed, extra_params = _RUNNERS[cfg.experiment](cfg)
    except (ConfigError, MechEffError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    csv_text = _rows_to_csv(rows)
    summary = {
        "experiment": cfg.experiment,
        "pass": bool(passed),
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
        if cfg.experiment != "reserve":
            sys.stdout.write(csv_text)
        print(f"{cfg.experiment}: {'PASS' if passed else 'FAIL'}", file=sys.stderr)
    return 0 if passed else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mech-eff",
        description="Reserve-price vs efficiency-maximizing auction experiments.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
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
    """Defaults, then the config file's fields, then the flags; a field that
    is absent or null keeps the value before it."""
    cfg = ExperimentConfig(experiment=args.experiment)
    if args.experiment == "thm2":
        cfg.distribution = dict(_THM2_DIST)
    if args.experiment in _DEFAULT_K:
        cfg.k = _parse_int_range(_DEFAULT_K[args.experiment], "k")

    sources = [_read_config(args.config, cfg.experiment)] if args.config else []
    for source in (*sources, vars(args)):
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
