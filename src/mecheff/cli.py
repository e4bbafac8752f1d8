"""Command-line front end: named experiments with CSV + JSON reporting.

Each experiment is declared once, as an entry of the `_EXPERIMENTS` table
that holds its runner, the config values it starts from and the check its
columns must meet. Those defaults are the first config source; the config
file and then the flags override them. The runner gets the config and its
built distribution and returns its columns, an ordered dict from each CSV
column name to its values (one per row), and any extra JSON parameters; the
experiment passes when the check holds on the columns.

Each experiment writes a CSV of per-k rows and a JSON summary embedding the
resolved parameters, and exits 0 when every row passes, 1 when any fails,
2 on configuration errors. The columns keep the order their runner gives
them, so golden-file comparisons stay stable; floats are
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
from contextlib import suppress
from dataclasses import MISSING, dataclass, field, fields
from decimal import Decimal, InvalidOperation
from itertools import chain
from pathlib import Path

import numpy as np

from . import analysis, simulate
from .distributions import ALPHA, FAMILIES, PFamily, from_spec, mhr_check, virtual_value
from .errors import DegenerateConditioning, MechEffError

_DEFAULT_DIST = {"family": "exponential", "rate": 1.0}


class ConfigError(Exception):
    pass


def _parse_int(value) -> int:
    """An int, or a finite integral float or number's text such as 5.0 or
    "1e3", read exactly, as a Decimal; a bool, a fractional or non-finite
    number, or over 4300 digits (int()'s limit for text) raises ValueError."""
    with suppress(InvalidOperation):
        exact = Decimal(value if isinstance(value, float) else str(value))
        if exact.is_finite() and exact == exact.to_integral_value() and exact.adjusted() < 4300:
            return int(exact)
    raise ValueError(f"{value!r} is not an integer")


def _parse_int_range(value, what):
    """Accept an int, an 'a..b' range, a comma list, or a list of ints; a
    range or list without entries is refused."""
    try:
        if isinstance(value, list):
            out = [_parse_int(v) for v in value]
        elif isinstance(value, str) and "," in value:
            out = [_parse_int(p) for p in value.split(",") if p.strip()]
        elif isinstance(value, str) and ".." in value:
            lo, _, hi = value.partition("..")
            out = list(range(_parse_int(lo), _parse_int(hi) + 1))
        else:
            out = [_parse_int(value)]
    except ValueError:
        raise ConfigError(f"bad {what} value {value!r}") from None
    if not out:
        raise ConfigError(f"{what} value {value!r} has no entries")
    return out


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
    family, colon, rest = text.partition(":")
    if family not in FAMILIES:
        raise ConfigError(f"unknown distribution family {family!r}")
    try:
        nums = [float(p) for p in rest.split(":")] if colon else []
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
    """'auto', a range or a list stays as given (regular_cx expands it) once
    its entries are checked; else an int."""
    text = str(value)
    if text == "auto":
        return value
    if isinstance(value, list) or ".." in text or "," in text:
        _parse_int_range(value, "m")
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
    seed: int = _option("--seed", _parse_int, "RNG seed, an integer in [0, 2**64)", default=12345)
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


def _int_columns(columns) -> frozenset:
    """The names of the columns whose every value is an exact int (no bool,
    no numpy scalar), so `str` gives its text in the CSV and in the JSON
    alike; each column is scanned once, for both writers."""
    return frozenset(name for name, values in columns.items() if set(map(type, values)) == {int})


def _csv_line(row) -> str:
    """The csv module's text for one row, with its line terminator."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()


_CSV_SPECIAL = frozenset(',"\r\n')


def _table(template, sep, cells) -> str:
    """`template`, one row with a `%s` per column, repeated once per row
    and joined by `sep`, then filled by one `%` with the cells of `cells`,
    its columns in the template's order, in row order. The cells are the
    format's arguments, so a `%` in a cell has no effect, and an exact int
    stands as its own text; columns of unequal length raise ValueError."""
    args = tuple(chain.from_iterable(zip(*cells, strict=True)))
    return sep.join([template] * (len(args) // len(cells))) % args


def _columns_to_csv(columns, int_columns) -> str:
    """The columns as CSV rows under a header of their names, every cell as
    `_fmt` writes it and csv.writer quotes it: csv.writer's line for the
    names, then the rows laid out by `_table`. A column named in
    `int_columns` (see `_int_columns`) goes in as it is; any other cell
    goes through `_fmt`. The csv module decides every quote: a cell that
    holds no comma, double quote, carriage return or line feed, and is not
    the lone field of a row, goes in as it is, as csv.writer writes such a
    cell; any other cell takes csv.writer's text. There must be at least
    one column.
    """
    lone = len(columns) == 1

    def text(value):
        cell = _fmt(value)
        if (cell or not lone) and _CSV_SPECIAL.isdisjoint(cell):
            return cell
        return _csv_line([cell])[:-1]

    cells = [v if name in int_columns else list(map(text, v)) for name, v in columns.items()]
    return _csv_line(columns) + _table(",".join(["%s"] * len(columns)) + "\n", "", cells)


def _summary_json(head, columns, int_columns) -> str:
    """json.dumps({**head, "rows": rows}, indent=2, sort_keys=True), byte for
    byte, where row i maps each column name to the column's i-th value.

    With `indent` set, json encodes in pure Python, which costs most of a
    100,000-row report. So the rows are laid out here by `_table`, with a
    row template that holds the column names, encoded by json and
    `%`-escaped. A column named in `int_columns` (see `_int_columns`) goes
    in as it is, which is json's text for an int. Any other column is
    encoded by one call to json's C encoder, with a newline between values,
    and split back into its cells at the line breaks, since json
    (ASCII-only by default) escapes every line break inside a string. Every
    nonempty list or dict of scalars in `head` is encoded by the C encoder
    too, with the newline and padding of its depth put into `separators`.
    Any other list or dict is laid out here around its encoded entries; its
    keys must be strings. There must be at least one row.
    """
    containers = (list, tuple, dict)

    def flat(values):
        return not any(issubclass(t, containers) for t in set(map(type, values)))

    def encode(value, pad):
        if not isinstance(value, containers) or not value:
            return json.dumps(value)
        inner = pad + "  "
        is_dict = isinstance(value, dict)
        if flat(value.values() if is_dict else value):
            text = json.dumps(value, sort_keys=True, separators=(",\n" + inner, ": "))
            return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"
        if is_dict:
            entries = [f"{json.dumps(key)}: {encode(v, inner)}" for key, v in sorted(value.items())]
        else:
            entries = [encode(v, inner) for v in value]
        body = (",\n" + inner).join(entries)
        opening, closing = "{}" if is_dict else "[]"
        return f"{opening}\n{inner}{body}\n{pad}{closing}"

    names = sorted(columns)
    name_fields = ",\n".join(f"      {json.dumps(name).replace('%', '%%')}: %s" for name in names)
    row_format = f"    {{\n{name_fields}\n    }}"

    def texts(name):
        if name in int_columns:
            return columns[name]
        return json.dumps(columns[name], separators=("\n", ": "))[1:-1].splitlines()

    rows = _table(row_format, ",\n", [texts(name) for name in names])
    entries = {key: encode(value, "  ") for key, value in head.items()}
    entries["rows"] = f"[\n{rows}\n  ]"
    body = ",\n  ".join(f"{json.dumps(key)}: {text}" for key, text in sorted(entries.items()))
    return f"{{\n  {body}\n}}"


def _resolve_m(cfg: ExperimentConfig, k: int, auto_bound) -> int:
    """cfg.m as an int; "auto" takes `auto_bound(k)`."""
    if cfg.m == "auto":
        return auto_bound(k)
    if not isinstance(cfg.m, int):
        raise ConfigError(f"m must be an int or 'auto' here, got {cfg.m!r}")
    return cfg.m


def _not_below(est, floor) -> bool:
    """The one-sided 3-sigma test, the only one: the estimate is not
    significantly below `floor`. A claim that a value is not below its floor
    (thm1, thm3, ratio, bk) passes when this holds; a claim that it is
    strictly below (thm2) passes when this fails."""
    return est.value >= floor - 3.0 * est.std_err


def _estimate_columns(ests, *names):
    """The `<name>_mean` and `<name>_std_err` columns of each named estimate."""
    columns = {}
    for name in names:
        columns[f"{name}_mean"] = [est[name].value for est in ests]
        columns[f"{name}_std_err"] = [est[name].std_err for est in ests]
    return columns


# --- experiment runners ------------------------------------------------------
# Each takes (cfg, dist) and returns (columns, extra_params): columns maps
# each CSV column name, in order, to its values, one per row.


def _run_reserve(cfg, dist):
    r = dist.reserve
    print(repr(r))
    return {"dist": [json.dumps(cfg.distribution, sort_keys=True)], "reserve": [r]}, {}


def _run_gainloss(cfg, dist):
    r, phi = dist.reserve, dist.phi
    n = len(cfg.k)
    try:
        losses = analysis.loss_numeric(dist, cfg.k)
    except DegenerateConditioning:
        losses = [0.0] * n
    ms = [_resolve_m(cfg, k, analysis.upper_bound_m) for k in cfg.k]
    gains = [analysis.gain(phi, r, m) for m in ms]
    extremal = [analysis.loss_closed_form_g(phi, r, k) if phi > 0.0 else 0.0 for k in cfg.k]
    columns = {
        "k": cfg.k,
        "m": ms,
        "phi": [phi] * n,
        "r": [r] * n,
        "gain": gains,
        "loss": losses,
        "loss_extremal": extremal,
        "diff": list(map(operator.sub, gains, losses)),
        "pass": [loss <= bound + 1e-8 * max(1.0, r) for loss, bound in zip(losses, extremal)],
    }
    return columns, {"phi": phi, "r": r}


def _run_bounds(cfg, dist):
    ks = np.asarray(cfg.k, dtype=np.float64)  # converted once for both bounds
    columns = {
        "k": cfg.k,
        "m_upper": analysis.upper_bound_m(ks),
        "m_lower": analysis.lower_bound_m(ks),
    }
    return columns, {}


def _paired_runner(auto_bound, suffices):
    """thm1/thm2: EMA with k bidders against RMA with m extra, per k. The
    claim is that m `suffices` (RMA's efficiency not below EMA's) or, when
    false, that it does not (strictly below); a row passes when its `diff`
    estimate bears the claim out."""

    def run(cfg, dist):
        extras = [_resolve_m(cfg, k, auto_bound) for k in cfg.k]
        ests = simulate.paired_compare(dist, list(zip(cfg.k, extras)), cfg.t, cfg.n_trials, cfg.seed)
        columns = {
            "k": cfg.k,
            "t": [cfg.t] * len(cfg.k),
            "extra": extras,
            "n_trials": [cfg.n_trials] * len(cfg.k),
            **_estimate_columns(ests, "diff", "eff_ema", "eff_rma"),
            "pass": [_not_below(est["diff"], 0.0) == suffices for est in ests],
        }
        return columns, {"extra_by_k": {str(k): extra for k, extra in zip(cfg.k, extras)}}

    return run


def _run_thm3(cfg, dist):
    r, phi = dist.reserve, dist.phi
    ms = [_resolve_m(cfg, k, analysis.upper_bound_m) for k in cfg.k]
    ss = [analysis.multi_item_s(cfg.t, m) for m in ms]
    gains = [analysis.multi_gain_exact(phi, r, m, s, cfg.t) for m, s in zip(ms, ss)]
    extras = list(map(operator.add, ms, ss))
    ests = simulate.paired_compare(dist, list(zip(cfg.k, extras)), cfg.t, cfg.n_trials, cfg.seed)
    floors = [r * cfg.t * (1.0 - phi**m) for m in ms]
    analytic = [g >= floor - 1e-12 for g, floor in zip(gains, floors)]
    columns = {
        "k": cfg.k,
        "t": [cfg.t] * len(cfg.k),
        "m": ms,
        "s": ss,
        "extra": extras,
        "gain_exact": gains,
        "gain_floor": floors,
        "analytic_pass": analytic,
        **_estimate_columns(ests, "diff"),
        "pass": [ok and _not_below(est["diff"], 0.0) for ok, est in zip(analytic, ests)],
    }
    return columns, {"epsilon_slack": analysis.EPSILON_SLACK, "phi": phi, "r": r}


def _run_regular_cx(cfg, dist):
    r = 1.0
    margin_target = 1e-6 * r
    ms = _parse_int_range(cfg.m, "m")
    grid_u = 0.05 + 0.9 * np.arange(64) / 63
    found = [
        cx for k in cfg.k for cx in analysis.regular_counterexample_search(k, ms, r, margin=margin_target)
    ]
    margins = [cx.loss - cx.gain for cx in found]
    regular_ok, mhr_violated = [], []
    for cx in found:
        capped = PFamily(eps=cx.eps, r=r)
        grid = capped.quantile(grid_u)
        psi = virtual_value(capped, grid[grid < r])
        regular_ok.append(bool(np.all(psi[1:] >= psi[:-1] - 1e-9)))
        mhr_violated.append(not mhr_check(capped).is_mhr)
    columns = {
        "k": [k for k in cfg.k for _ in ms],
        "m": ms * len(cfg.k),
        "eps_star": [cx.eps for cx in found],
        "loss": [cx.loss for cx in found],
        "gain": [cx.gain for cx in found],
        "margin": margins,
        "regular_ok": regular_ok,
        "mhr_violated": mhr_violated,
        "pass": [
            margin > margin_target and ok and violated
            for margin, ok, violated in zip(margins, regular_ok, mhr_violated)
        ],
    }
    return columns, {"r": r, "margin_target": margin_target}


def _single_item(cfg):
    if cfg.t != 1:
        raise ConfigError(f"{cfg.experiment} is single-item: t must be 1, got {cfg.t}")


def _run_ratio(cfg, dist):
    _single_item(cfg)
    ests = simulate.efficiency_ratio(dist, cfg.k, cfg.n_trials, cfg.seed)
    eff_floors = [1.0 - ALPHA**k for k in cfg.k]
    rev_floors = [1.0 - ALPHA ** (k - 1) for k in cfg.k]
    columns = {
        "k": cfg.k,
        "eff_ratio": [est["eff_ratio"].value for est in ests],
        "eff_floor": eff_floors,
        "eff_std_err": [est["eff_ratio"].std_err for est in ests],
        "rev_ratio": [est["rev_ratio"].value for est in ests],
        "rev_floor": rev_floors,
        "rev_std_err": [est["rev_ratio"].std_err for est in ests],
        "pass": [
            _not_below(est["eff_ratio"], eff_floor) and _not_below(est["rev_ratio"], rev_floor)
            for est, eff_floor, rev_floor in zip(ests, eff_floors, rev_floors)
        ],
    }
    return columns, {}


def _run_bk(cfg, dist):
    _single_item(cfg)
    ests = simulate.revenue_compare_bk(dist, cfg.k, cfg.n_trials, cfg.seed)
    columns = {
        "k": cfg.k,
        **_estimate_columns(ests, "diff"),
        "rev_ema_mean": [est["rev_ema"].value for est in ests],
        "rev_rma_mean": [est["rev_rma"].value for est in ests],
        "pass": [_not_below(est["diff"], 0.0) for est in ests],
    }
    return columns, {}


@dataclass(frozen=True)
class _Experiment:
    """`run(cfg, dist)` gives the columns and extra JSON params; `defaults`
    are the config values the experiment starts from; it passes when
    `check(columns)` holds, by default when every row's `pass` is true.
    Without `--out`, the CSV goes to stdout unless `csv_to_stdout` is false
    (the runner prints its own result)."""

    run: Callable
    defaults: dict
    check: Callable = lambda columns: all(columns["pass"])
    csv_to_stdout: bool = True


_EXPERIMENTS = {
    "reserve": _Experiment(_run_reserve, {}, check=lambda columns: True, csv_to_stdout=False),
    "gainloss": _Experiment(_run_gainloss, {"k": "1..8"}),
    "bounds": _Experiment(
        _run_bounds,
        {"k": "1..100"},
        check=lambda columns: all(map(operator.le, columns["m_lower"], columns["m_upper"])),
    ),
    "thm1": _Experiment(_paired_runner(analysis.upper_bound_m, suffices=True), {"k": [1, 2, 5, 10]}),
    # the strict shortfall is a claim about the extremal family
    "thm2": _Experiment(
        _paired_runner(analysis.lower_bound_m, suffices=False),
        {"k": [3, 5, 8], "distribution": {"family": "g", "phi": ALPHA, "r": 1.0, "eps": 1e-6}},
    ),
    "thm3": _Experiment(_run_thm3, {"k": [20]}),
    "regular_cx": _Experiment(_run_regular_cx, {"k": "1..5", "m": "1..10"}),
    "ratio": _Experiment(_run_ratio, {"k": [1, 2, 5, 10]}),
    "bk": _Experiment(_run_bk, {"k": [1, 3, 5]}),
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute one experiment; write reports; return the exit status."""
    experiment = _EXPERIMENTS[cfg.experiment]
    try:
        if not cfg.k:  # an experiment without rows has no columns to report
            raise ConfigError("k range must be nonempty")
        if cfg.output_path == "":  # a prefix that names no file
            raise ConfigError("the output prefix is empty")
        columns, extra_params = experiment.run(cfg, from_spec(cfg.distribution))
    except (ConfigError, MechEffError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passed = experiment.check(columns)
    int_columns = _int_columns(columns)
    csv_text = _columns_to_csv(columns, int_columns)
    head = {
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
    }
    if cfg.output_path:
        # the prefix is taken literally: a dot in its last part is no suffix
        csv_path, json_path = Path(cfg.output_path + ".csv"), Path(cfg.output_path + ".json")
        json_text = _summary_json(head, columns, int_columns) + "\n"
        try:
            csv_path.parent.mkdir(parents=True, exist_ok=True)
            csv_path.write_text(csv_text, encoding="utf-8")
            json_path.write_text(json_text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write the reports: {exc}", file=sys.stderr)
            return 2
        print(f"{cfg.experiment}: {'PASS' if passed else 'FAIL'} -> {csv_path}")
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
    parser.add_argument("experiment", choices=list(_EXPERIMENTS), help="the experiment to run")
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    for f in _OPTIONS:
        parser.add_argument(f.metadata["flag"], dest=f.name, help=f.metadata["help"])
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
    if raw.get("experiment") not in (None, experiment):
        raise ConfigError(
            f"config experiment {raw['experiment']!r} conflicts with experiment name {experiment!r}"
        )
    return raw


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment's defaults, then the config file's fields, then the
    flags; a field that is absent or null keeps the value before it. A
    value's range is checked by the experiment that reads it."""
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
