import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mecheff import cli, simulate
from mecheff.analysis import lower_bound_m, multi_item_s, upper_bound_m
from mecheff.cli import main, parse_dist_arg


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.setdefault("MECH_EFF_THREADS", "2")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "mecheff.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_parse_dist_compact_forms():
    assert parse_dist_arg("exponential:1") == {"family": "exponential", "rate": 1.0}
    assert parse_dist_arg("uniform:1") == {"family": "uniform", "lo": 0.0, "hi": 1.0}
    assert parse_dist_arg("uniform:0:2") == {"family": "uniform", "lo": 0.0, "hi": 2.0}
    assert parse_dist_arg("g:0.5:1:1e-6") == {"family": "g", "phi": 0.5, "r": 1.0, "eps": 1e-6}
    assert parse_dist_arg("p:0.1:1") == {"family": "p", "eps": 0.1, "r": 1.0}
    assert parse_dist_arg('{"family":"exponential","rate":2.0}') == {
        "family": "exponential",
        "rate": 2.0,
    }
    # defaults: a float default is written out, g's eps only when given,
    # and a lone uniform argument is hi
    assert parse_dist_arg("g:0.5:1") == {"family": "g", "phi": 0.5, "r": 1.0}
    assert parse_dist_arg("exponential") == {"family": "exponential", "rate": 1.0}
    assert parse_dist_arg("uniform:2") == {"family": "uniform", "lo": 0.0, "hi": 2.0}
    assert parse_dist_arg("uniform") == {"family": "uniform", "lo": 0.0, "hi": 1.0}
    # a colon always takes its numbers: none given is no default
    for bad in ("cauchy:1", "exponential:x", "exponential:1:2", "p:0.1:1:5", "exponential:", "uniform:"):
        with pytest.raises(cli.ConfigError):
            parse_dist_arg(bad)


def test_reserve_prints_value(capsys):
    assert main(["reserve", "--dist", "exponential:1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1.0"


def test_reserve_report_bytes(tmp_path):
    # the dist cell is a JSON record, so csv quotes it and doubles its quotes
    out = tmp_path / "reserve"
    assert main(["reserve", "--dist", "exponential:1", "--out", str(out)]) == 0
    dist = {"family": "exponential", "rate": 1.0}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dist", "reserve"])
    writer.writerow([json.dumps(dist), "1"])
    assert (tmp_path / "reserve.csv").read_text(encoding="utf-8") == buf.getvalue()
    summary = {
        "experiment": "reserve",
        "pass": True,
        "params": {"distribution": dist, "k": [5], "t": 1, "m": "auto", "n_trials": 1_000_000, "seed": 12345},
        "rows": [{"dist": json.dumps(dist), "reserve": 1.0}],
    }
    want = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "reserve.json").read_text(encoding="utf-8") == want


def test_csv_on_stdout_only_without_out(tmp_path, capsys):
    # reserve prints its value instead of its CSV; every other experiment
    # prints the CSV it would write to <out>.csv
    out = tmp_path / "run"
    assert main(["reserve", "--dist", "exponential:1"]) == 0
    assert capsys.readouterr() == ("1.0\n", "reserve: PASS\n")
    assert main(["reserve", "--dist", "exponential:1", "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"1.0\nreserve: PASS -> {out}.csv\n", "")
    assert main(["bounds", "--k", "1..3", "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"bounds: PASS -> {out}.csv\n", "")
    assert main(["bounds", "--k", "1..3"]) == 0
    assert capsys.readouterr() == ((tmp_path / "run.csv").read_text(), "bounds: PASS\n")


def test_bounds_spot_rows(tmp_path):
    out = tmp_path / "bounds"
    assert main(["bounds", "--k", "1..100", "--out", str(out)]) == 0
    lines = (tmp_path / "bounds.csv").read_text().splitlines()
    assert lines[0] == "k,m_upper,m_lower"
    rows = {int(l.split(",")[0]): l for l in lines[1:]}
    assert rows[1] == "1,3,0"
    assert rows[8].startswith("8,8,")
    assert rows[100].startswith("100,13,")


def test_thm2_passes_and_reports(tmp_path):
    out = tmp_path / "t2"
    rc = main(["thm2", "--k", "3", "--n", "200000", "--seed", "42", "--out", str(out)])
    assert rc == 0
    summary = json.loads((tmp_path / "t2.json").read_text())
    assert summary["pass"] is True
    assert summary["params"]["extra_by_k"] == {"3": 1}
    assert summary["rows"][0]["diff_mean"] < 0


def test_thm1_passes(tmp_path):
    rc = main(
        ["thm1", "--dist", "exponential:1", "--k", "2", "--n", "100000", "--seed", "7",
         "--out", str(tmp_path / "t1")]
    )
    assert rc == 0


def test_gainloss_runs(tmp_path):
    out = tmp_path / "gl"
    rc = main(["gainloss", "--dist", "exponential:1", "--k", "1..4", "--out", str(out)])
    assert rc == 0
    lines = (tmp_path / "gl.csv").read_text().splitlines()
    assert lines[0].startswith("k,m,phi,r,gain,loss")
    assert len(lines) == 5


def test_gainloss_with_no_mass_below_the_reserve(tmp_path):
    # phi = 0 leaves nothing to condition on: the loss is 0, not an error
    assert main(["gainloss", "--dist", "g:0:1", "--k", "1..3", "--out", str(tmp_path / "gl")]) == 0
    rows = json.loads((tmp_path / "gl.json").read_text())["rows"]
    assert [row["k"] for row in rows] == [1, 2, 3]
    for row in rows:
        assert row["loss"] == 0.0 and row["loss_extremal"] == 0.0 and row["pass"] is True


@pytest.mark.parametrize(
    "argv, column, want",
    [
        (["thm1", "--k", "1,2", "--m", "3"], "extra", 3),
        (["thm2", "--m", "1"], "extra", 1),
        (["thm3", "--t", "2", "--m", "4"], "m", 4),
        (["gainloss", "--m", "2"], "m", 2),
    ],
)
def test_an_int_m_is_what_ran(tmp_path, argv, column, want):
    out = tmp_path / "run"
    rc = main([*argv, "--n", "200", "--seed", "3", "--out", str(out)])
    summary = json.loads((tmp_path / "run.json").read_text())
    assert rc == (0 if summary["pass"] else 1)
    assert summary["params"]["m"] == want
    assert summary["rows"] and all(row[column] == want for row in summary["rows"])
    if argv[0] == "thm3":
        assert all(row["s"] == multi_item_s(2, 4) for row in summary["rows"])


def test_regular_cx_small(tmp_path):
    rc = main(["regular_cx", "--k", "1..2", "--m", "1..3", "--out", str(tmp_path / "cx")])
    assert rc == 0
    summary = json.loads((tmp_path / "cx.json").read_text())
    assert all(row["pass"] for row in summary["rows"])
    assert all(row["mhr_violated"] for row in summary["rows"])


def test_regular_cx_default_m_is_what_ran(tmp_path):
    # the default m range lives in the experiment's table entry, so the JSON
    # echoes it; regular_cx has no bound for "auto" to resolve to
    assert main(["regular_cx", "--k", "1", "--out", str(tmp_path / "cx")]) == 0
    summary = json.loads((tmp_path / "cx.json").read_text())
    assert summary["params"]["m"] == "1..10"
    assert [row["m"] for row in summary["rows"]] == list(range(1, 11))
    assert main(["regular_cx", "--k", "1", "--m", "auto"]) == 2


def test_ratio_and_bk_smoke(tmp_path):
    assert main(["ratio", "--dist", "exponential:1", "--k", "2", "--n", "50000",
                 "--seed", "5", "--out", str(tmp_path / "r")]) == 0
    assert main(["bk", "--dist", "uniform:1", "--k", "1", "--n", "50000",
                 "--seed", "5", "--out", str(tmp_path / "b")]) == 0


def test_ratio_and_bk_refuse_multiple_items(tmp_path):
    # both estimators are single-item; a t they never read would still be echoed
    for name in ("ratio", "bk"):
        assert main([name, "--k", "2", "--n", "2000", "--t", "3", "--out", str(tmp_path / name)]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["thm1", "thm2", "thm3", "ratio", "bk"])
def test_monte_carlo_experiments_need_two_trials(tmp_path, capsys, name):
    # one trial gives no standard error, so no verdict; the floor is simulate's
    for n in ("1", "0"):
        assert main([name, "--k", "2", "--n", n, "--seed", "1", "--out", str(tmp_path / name)]) == 2
        assert f"n_trials must be at least 2 for a variance estimate, got {n}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    assert main([name, "--k", "2", "--n", "2", "--seed", "1", "--out", str(tmp_path / name)]) in (0, 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{name}.csv", f"{name}.json"]


@pytest.mark.parametrize("name", ["thm1", "thm2", "thm3"])
def test_no_items_exits_2(tmp_path, name):
    # t is checked by the estimator, or by thm3's multi_item_s, that reads it
    assert main([name, "--k", "2", "--t", "0", "--n", "2", "--out", str(tmp_path / name)]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["thm1", "thm2", "thm3", "ratio", "bk"])
@pytest.mark.parametrize("rate", ["1e200", "1e-200"])
def test_values_past_float64_range_exit_2(tmp_path, capsys, name, rate):
    # values near 1e-200 square to 0 and near 1e200 to inf: either way every
    # std_err read 0 and the 3-sigma test became a point comparison
    out = str(tmp_path / name)
    assert main([name, "--dist", f"exponential:{rate}", "--k", "2", "--n", "1000", "--out", out]) == 2
    assert "past float64's normal range" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "std_err, diff, thm1_passes",
    [(0.125, -0.375, True), (0.125, -0.5, False), (0.0, -0.0, True), (0.0, -1e-300, False)],
)
def test_thm1_and_thm2_verdicts_are_complementary_at_3_sigma(monkeypatch, std_err, diff, thm1_passes):
    # thm1 claims diff is not below 0 and thm2 that it is, both by `_not_below`;
    # exactly -3 sigma is not below
    est = simulate.Estimate(diff, std_err)

    def paired_compare(dist, pairs, t, n_trials, seed):
        return tuple({"diff": est, "eff_ema": est, "eff_rma": est} for _ in pairs)

    monkeypatch.setattr(cli.simulate, "paired_compare", paired_compare)
    assert main(["thm1", "--k", "1", "--n", "2"]) == (0 if thm1_passes else 1)
    assert main(["thm2", "--k", "1", "--n", "2"]) == (1 if thm1_passes else 0)


def test_seed_outside_64_bits_exits_2():
    for seed in ("-1", "18446744073709551616", "36893488147419103231"):
        assert main(["thm1", "--k", "2", "--n", "1000", "--seed", seed]) == 2


@pytest.mark.parametrize("threads", ["0", "-4", "two"])
def test_thread_cap_not_a_positive_integer_exits_2(monkeypatch, capsys, threads):
    monkeypatch.setenv("MECH_EFF_THREADS", threads)
    assert main(["bk", "--k", "1", "--n", "1000"]) == 2
    assert "MECH_EFF_THREADS must be a positive integer" in capsys.readouterr().err


def test_dotted_out_prefix_is_taken_literally(tmp_path, capsys):
    for prefix in ("run.v2", "r.1", "r.2"):
        assert main(["bounds", "--k", "1..3", "--out", str(tmp_path / prefix)]) == 0
        assert capsys.readouterr().out == f"bounds: PASS -> {tmp_path / prefix}.csv\n"
    names = ["r.1.csv", "r.1.json", "r.2.csv", "r.2.json", "run.v2.csv", "run.v2.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_thm3_smoke(tmp_path):
    rc = main(["thm3", "--dist", "exponential:1", "--k", "20", "--t", "2",
               "--n", "100000", "--seed", "5", "--out", str(tmp_path / "t3")])
    assert rc == 0
    summary = json.loads((tmp_path / "t3.json").read_text())
    row = summary["rows"][0]
    assert row["analytic_pass"] is True
    assert row["m"] == 10 and row["extra"] == row["m"] + row["s"]
    assert summary["params"]["epsilon_slack"] == 0.1


def test_k_comma_list(tmp_path):
    rc = main(["bounds", "--k", "1,8,100", "--out", str(tmp_path / "kb")])
    assert rc == 0
    lines = (tmp_path / "kb.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "8", "100"]


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "bounds",
        "k": "1..5",
        "seed": 1,
        "output_path": str(tmp_path / "from_file"),
    }))
    rc = main(["bounds", "--config", str(cfg), "--k", "1..3"])
    assert rc == 0
    summary = json.loads((tmp_path / "from_file.json").read_text())
    assert summary["params"]["k"] == [1, 2, 3]  # flag overrode the file


def test_config_file_and_flags_build_the_same_config(tmp_path):
    path = tmp_path / "cfg.json"

    def build(argv, record=None):
        if record is not None:
            path.write_text(json.dumps(record))
            argv = [*argv, "--config", str(path)]
        return cli.build_config(cli._build_parser().parse_args(["regular_cx", *argv]))

    flags = ["--dist", "g:0.5:1", "--k", "2..4", "--t", "2", "--m", "1..3",
             "--n", "1000", "--seed", "0", "--out", "x"]
    same = {"experiment": "regular_cx", "distribution": "g:0.5:1", "k": "2..4", "t": 2,
            "m": "1..3", "n_trials": 1000, "seed": 0, "output_path": "x"}
    other = {"distribution": {"family": "exponential", "rate": 2.0}, "k": [7], "t": 3,
             "m": 5, "n_trials": 9, "seed": 11, "output_path": "y"}
    from_flags = build(flags)
    assert (from_flags.seed, from_flags.m) == (0, "1..3")
    assert from_flags.distribution == {"family": "g", "phi": 0.5, "r": 1.0}
    assert build([], same) == from_flags
    assert build([], {**same, "experiment": None}) == from_flags  # null keeps the command's
    assert build(flags, other) == from_flags  # every flag, --seed 0 too, overrides the file
    assert build([], {"m": "5"}).m == 5
    assert build([], {"seed": None}).seed == build([]).seed  # null keeps the default


def test_config_errors_exit_2(tmp_path):
    assert main(["reserve", "--dist", "cauchy:1"]) == 2
    assert main(["reserve", "--dist", "g:0.9:1"]) == 2  # phi beyond 1-1/e
    assert main(["bounds", "--k", "5..2"]) == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": "thm1", "bogus_field": 1}))
    assert main(["thm1", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"experiment": "thm1"}))
    assert main(["thm2", "--config", str(cfg)]) == 2  # conflicting experiment


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["--dist", "{"], None, "bad distribution JSON"),
        (["--config", "missing.json"], None, "cannot read config"),
        (["--config", "list.json"], [1], "config file must hold a JSON object"),
    ],
)
def test_unreadable_configs_exit_2_without_reports(tmp_path, monkeypatch, capsys, argv, config, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / argv[-1]).write_text(json.dumps(config))
    before = sorted(tmp_path.iterdir())
    assert main(["reserve", *argv, "--out", "r"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_family_tag_not_a_string_exits_2(tmp_path, capsys):
    record = {"family": ["g"]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"distribution": record}))
    for argv in (["reserve", "--dist", json.dumps(record)], ["reserve", "--config", str(cfg)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: unknown family ['g']; expected one of ['exponential', 'g', 'p', 'uniform']\n"
        )


def test_unwritable_reports_exit_2(tmp_path, capsys):
    # the prefix's directory is a regular file, so mkdir fails
    (tmp_path / "F").write_text("")
    assert main(["bounds", "--k", "1..3", "--out", str(tmp_path / "F" / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the reports: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]


@pytest.mark.parametrize(
    "experiment, record",
    [
        ("thm1", {"t": 2.5}),
        ("thm1", {"k": [1.7]}),
        ("thm1", {"n_trials": 1000.9}),
        ("thm1", {"seed": True}),
        ("bounds", {"k": True}),
        ("thm1", {"m": 2.5}),
        ("thm1", {"m": [3]}),
        ("regular_cx", {"m": [1.5]}),
    ],
)
def test_config_integers_are_not_truncated(tmp_path, experiment, record):
    # a bool or a fractional number is a config error, not an int
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k": [1], "n_trials": 1000, **record}))
    assert main([experiment, "--config", str(path)]) == 2


def test_distribution_fields_must_be_numbers(tmp_path):
    # a bool or a number's text would run at float(value) and be echoed as given
    for dist in ('{"family": "exponential", "rate": true}', '{"family": "uniform", "hi": "2"}'):
        for name in ("reserve", "thm1"):
            assert main([name, "--dist", dist, "--k", "1", "--n", "1000", "--out", str(tmp_path / name)]) == 2
    assert not any(tmp_path.iterdir())


def test_config_integral_floats_are_ints(tmp_path):
    # the config file's numbers and the flags' text follow one rule
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"t": 2.0, "k": 3.0, "m": 5.0, "n_trials": 1e3, "seed": 7.0}))
    flags = ["--t", "2.0", "--k", "3.0", "--m", "5.0", "--n", "1e3", "--seed", "7.0"]
    for argv in (["thm1", "--config", str(path)], ["thm1", *flags]):
        cfg = cli.build_config(cli._build_parser().parse_args(argv))
        assert (cfg.t, cfg.k, cfg.m, cfg.n_trials, cfg.seed) == (2, [3], 5, 1000, 7)
        assert all(type(v) is int for v in (cfg.t, *cfg.k, cfg.m, cfg.n_trials, cfg.seed))


def test_integer_text_is_read_exactly():
    # text goes through Decimal, never float: 2**64 - 1 keeps every digit
    argv = ["thm1", "--n", "1e6", "--seed", "18446744073709551615.0"]
    cfg = cli.build_config(cli._build_parser().parse_args(argv))
    assert (cfg.n_trials, cfg.seed) == (1_000_000, 2**64 - 1)
    for bad in ("2.5", "1e-1", "nan", "inf", "True", "1e4300"):
        with pytest.raises(ValueError):
            cli._parse_int(bad)
        assert main(["thm1", "--k", "1", "--n", bad]) == 2


def test_empty_output_prefix_is_refused(tmp_path, monkeypatch, capsys):
    # an empty prefix names no report, so it is a config error, not stdout
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"output_path": ""}))
    for argv in (["bounds", "--k", "1..3", "--out", ""], ["bounds", "--k", "1..3", "--config", "cfg.json"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: the output prefix is empty\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("name", list(cli._EXPERIMENTS))
def test_every_experiment_refuses_bad_m_entries(tmp_path, name):
    # a range, comma list or list of m is checked entry by entry at config time
    path = tmp_path / "cfg.json"
    for bad in ("1..x", "x,y", ["x"], [1.5]):
        path.write_text(json.dumps({"m": bad}))
        argv = [name, "--k", "1", "--n", "1000", "--config", str(path), "--out", str(tmp_path / "r")]
        assert main(argv) == 2, bad
        if isinstance(bad, str):
            assert main([*argv, "--m", bad]) == 2, bad
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_run_time_config_error_exits_2():
    # the m range of regular_cx is parsed when the experiment runs
    assert main(["regular_cx", "--k", "1", "--m", "5..1"]) == 2
    assert main(["bounds", "--k", ","]) == 2
    assert main(["regular_cx", "--k", "1", "--m", ","]) == 2
    assert cli.run_experiment(cli.ExperimentConfig("bounds", k=[])) == 2


def test_internal_key_error_propagates(monkeypatch):
    def broken(cfg, dist):
        raise KeyError("missing internal column")

    monkeypatch.setitem(cli._EXPERIMENTS, "bounds", cli._Experiment(broken, {}))
    with pytest.raises(KeyError):
        main(["bounds", "--k", "1"])


def test_unequal_column_lengths_propagate(tmp_path, monkeypatch):
    def short(cfg, dist):
        return {"k": [1, 2], "pass": [True]}, {}

    monkeypatch.setitem(cli._EXPERIMENTS, "bounds", cli._Experiment(short, {}))
    for out in ([], ["--out", str(tmp_path / "b")]):
        with pytest.raises(ValueError):
            main(["bounds", "--k", "1..2", *out])
    assert list(tmp_path.iterdir()) == []
    columns, _ = short(None, None)
    with pytest.raises(ValueError):
        cli._columns_to_csv(columns, cli._int_columns(columns))
    with pytest.raises(ValueError):
        cli._summary_json({}, columns, cli._int_columns(columns))
    with pytest.raises(ValueError):
        cli._summary_json({}, {"k": [1], "pass": []}, frozenset({"k"}))


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", list(cli._EXPERIMENTS))
def test_every_experiment_name_parses(name):
    parser = cli._build_parser()
    args = parser.parse_args([name])
    assert args.experiment == name
    assert vars(args).keys() == {"experiment", "config", *(f.name for f in cli._OPTIONS)}
    # options may come before the name
    flags = ["--k", "3", "--seed", "9"]
    assert parser.parse_args([*flags, name]) == parser.parse_args([name, *flags])


def test_help_lists_every_experiment_and_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: mech-eff")
    for word in [*cli._EXPERIMENTS, "--config", *(f.metadata["flag"] for f in cli._OPTIONS)]:
        assert word in text


def battery_script():
    """scripts/run_experiments.py, imported by path."""
    path = Path(__file__).parents[1] / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_battery_jobs_parse(tmp_path):
    # every argv of scripts/run_experiments.py builds its config without running
    # and writes its own reports; gainloss runs on every family the benchmark runs it on
    jobs = battery_script().jobs(tmp_path, 7, 1000)
    assert {job[0] for job in jobs} == set(cli._EXPERIMENTS) - {"reserve"}
    outs = [argv[argv.index("--out") + 1] for argv in jobs]
    assert len(set(outs)) == len(outs)
    families = []
    for argv, out in zip(jobs, outs):
        cfg = cli.build_config(cli._build_parser().parse_args(argv))
        assert (cfg.experiment, cfg.seed, cfg.output_path) == (argv[0], 7, out)
        assert Path(out).parent == tmp_path and Path(out).name.startswith(argv[0])
        if cfg.experiment == "gainloss":
            families.append(cfg.distribution["family"])
    assert sorted(families) == ["exponential", "g", "uniform"]


def test_battery_prints_each_reports_sha256(tmp_path, capsys):
    # one `sha256sum`-style line per report written, in run order, so two
    # runs wrote the same bytes exactly when those lines match
    script = battery_script()
    failures = script.run(tmp_path, 7, 2000)
    lines = [line.split("  ") for line in capsys.readouterr().out.splitlines() if "->" not in line]
    names = [Path(job[job.index("--out") + 1]).name for job in script.jobs(tmp_path, 7, 2000)]
    assert [name for _, name in lines] == [f"{n}.{ext}" for n in names for ext in ("csv", "json")]
    for digest, name in lines:
        assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert all(rc == 1 for _, rc in failures)  # too few trials may fail a check, never a config


def test_failing_inequality_exits_1(tmp_path):
    # thm2's strict-loss assertion is false for the exponential family
    # (its upper tail is uncapped, so extra bidders recover the loss)
    rc = main(["thm2", "--dist", "exponential:1", "--k", "5", "--n", "100000",
               "--seed", "3", "--out", str(tmp_path / "f")])
    assert rc == 1
    summary = json.loads((tmp_path / "f.json").read_text())
    assert summary["pass"] is False


def test_csv_byte_identical_across_thread_caps(tmp_path):
    # t = 5 selects five values deep at width 50
    for args in (
        ["thm1", "--dist", "exponential:1", "--k", "1..3", "--n", "60000", "--seed", "99"],
        ["thm3", "--dist", "exponential:1", "--k", "20", "--t", "5", "--n", "40000", "--seed", "99"],
    ):
        r1 = run_cli(args + ["--out", str(tmp_path / "a")], {"MECH_EFF_THREADS": "1"})
        r2 = run_cli(args + ["--out", str(tmp_path / "b")], {"MECH_EFF_THREADS": "6"})
        assert r1.returncode == 0 and r2.returncode == 0, (r1.stderr, r2.stderr)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes(), args[0]


def test_csv_byte_identical_on_rerun(tmp_path):
    args = ["ratio", "--dist", "uniform:1", "--k", "2", "--n", "60000", "--seed", "123"]
    r1 = run_cli(args + ["--out", str(tmp_path / "a")])
    r2 = run_cli(args + ["--out", str(tmp_path / "b")])
    assert r1.returncode == 0 and r2.returncode == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_headers_match_readme(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## CSV schemas")[1].split("\n\n")[1]
    documented = {}
    for line in table.splitlines()[2:]:
        names, columns = line.strip("|").split("|")
        for name in names.split("/"):
            documented[name.strip()] = columns.strip().strip("`")
    assert set(documented) == set(cli._EXPERIMENTS)
    for name in cli._EXPERIMENTS:
        small = ["--m", "1"] if name == "regular_cx" else []
        main([name, "--k", "1", "--n", "2000", *small, "--out", str(tmp_path / name)])
        header = (tmp_path / f"{name}.csv").read_text().splitlines()[0]
        assert header == documented[name], name


def test_stdout_csv_when_no_out(capsys):
    assert main(["bounds", "--k", "1..2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "k,m_upper,m_lower"


# --- the JSON summary ----------------------------------------------------------

# text that would confuse a writer splicing rows by their separators or
# laying them out with %-formatting
tricky_text = st.lists(
    st.sampled_from(
        ["},\n      {", "}, {", '"', "\\", "\x00", "\x1f", "\n", "\u00e9", "\u2603", "\U0001f600", "%", "%s", "%%", "%(k)s"]
    )
    | st.text(max_size=4),
    max_size=4,
).map("".join)
scalars = st.one_of(
    tricky_text,
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, float("nan"), float("inf"), float("-inf")]),
    st.floats().map(np.float64),
    st.booleans(),
    st.none(),
)
row_lists = st.lists(st.dictionaries(tricky_text, scalars, min_size=1, max_size=6), min_size=1, max_size=5)


def rows_of(columns):
    """One dict per row, mapping each column name to the row's value."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def indented_dumps(head, columns):
    return json.dumps({**head, "rows": rows_of(columns)}, indent=2, sort_keys=True)


@st.composite
def column_sets(draw):
    names = draw(st.lists(tricky_text, min_size=1, max_size=6, unique=True))
    n = draw(st.integers(1, 5))
    return {name: draw(st.lists(scalars, min_size=n, max_size=n)) for name in names}


@given(column_sets(), scalars)
@settings(max_examples=200, deadline=None)
def test_summary_json_equals_indented_dumps(columns, param):
    head = {"experiment": "x", "pass": False, "params": {"k": [1, 2], "p": param}}
    assert cli._summary_json(head, columns, cli._int_columns(columns)) == indented_dumps(head, columns)


# summary heads of any shape: nested, long, empty, with or without rows
long_lists = st.integers(50, 120).map(lambda n: list(range(n))) | st.tuples(scalars, st.integers(50, 120)).map(
    lambda pair: [pair[0]] * pair[1]
)
rows_with_empty = st.lists(st.dictionaries(tricky_text, scalars, max_size=2), min_size=2, max_size=4)
json_values = st.recursive(
    scalars | row_lists | rows_with_empty | long_lists,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(tricky_text, children, max_size=4),
    max_leaves=12,
)


@given(st.dictionaries(tricky_text, json_values, max_size=5))
@settings(max_examples=200, deadline=None)
def test_summary_json_of_any_head_equals_indented_dumps(head):
    columns = {"k": [1, 2], "pass": [True, False]}
    assert cli._summary_json(head, columns, frozenset({"k"})) == indented_dumps(head, columns)


@pytest.mark.parametrize("name", list(cli._EXPERIMENTS))
def test_every_experiments_summary_equals_indented_dumps(tmp_path, monkeypatch, name):
    seen = []
    summary_json = cli._summary_json

    def spy(head, columns, int_columns):
        seen.append((head, columns))
        assert int_columns == cli._int_columns(columns)
        return summary_json(head, columns, int_columns)

    monkeypatch.setattr(cli, "_summary_json", spy)
    small = ["--m", "1..2"] if name == "regular_cx" else []
    main([name, "--k", "1..2", "--n", "64", *small, "--out", str(tmp_path / name)])
    [(head, columns)] = seen
    want = indented_dumps(head, columns) + "\n"
    text = (tmp_path / f"{name}.json").read_text(encoding="utf-8")
    assert text == want
    json.loads(text, parse_constant=not_json)  # strict JSON: no NaN or Infinity


def not_json(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ["--k", "1..3", "--n", "2", "--seed", "0"],
        ["--dist", "uniform:1", "--k", "1", "--n", "2", "--seed", "0"],
    ],
)
def test_undefined_ratio_exits_2_without_reports(tmp_path, capsys, argv):
    # both trials' values are below the reserve, so Rev(RMA) averages 0 and
    # rev_ratio has no value; warnings are errors here, so none may be raised
    assert main(["ratio", *argv, "--out", str(tmp_path / "r")]) == 2
    assert "rev_ratio" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# --- the CSV report ------------------------------------------------------------


def csv_per_cell(rows):
    """Every cell through `_fmt`, one row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=",", lineterminator="\n")
    writer.writerow(list(rows[0]))
    for row in rows:
        writer.writerow([cli._fmt(row[c]) for c in rows[0]])
    return buf.getvalue()


# text that csv must quote, or that a writer laying rows out with
# %-formatting would read as a directive; the empty text too
csv_text = st.lists(
    st.sampled_from([",", '"', "\n", "\r", " ", "a", "%", "%s", "%%", "%(k)s"]) | st.text(max_size=3),
    max_size=4,
).map("".join)
cells = [
    st.integers(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats().map(np.float64),
    csv_text,
]
# a column holds one kind of cell, or any mix of them
column_cells = st.sampled_from(cells + [st.one_of(cells)])


@st.composite
def csv_columns(draw):
    names = draw(st.lists(csv_text, min_size=1, max_size=5, unique=True))
    n = draw(st.integers(1, 6))
    return {c: draw(st.lists(draw(column_cells), min_size=n, max_size=n)) for c in names}


# in a one-column table each empty cell is a lone field, which csv quotes;
# beside other fields it stays empty
@given(csv_columns())
@example({"": ["", "%%", 7]})
@example({"%(k)s": ["", "%s"], "": ["\r", 2.5], "%": [3, ""]})
@settings(max_examples=200, deadline=None)
def test_rows_to_csv_equals_per_cell_writer(columns):
    assert cli._columns_to_csv(columns, cli._int_columns(columns)) == csv_per_cell(rows_of(columns))


def test_bounds_report_at_benchmark_size_equals_oracles(tmp_path):
    ks = list(range(1, 100_001))
    rows = [{"k": k, "m_upper": upper_bound_m(k), "m_lower": lower_bound_m(k)} for k in ks]
    summary = {
        "experiment": "bounds",
        "pass": True,
        "params": {
            "distribution": {"family": "exponential", "rate": 1.0},
            "k": ks,
            "t": 1,
            "m": "auto",
            "n_trials": 1_000_000,
            "seed": 12345,
        },
        "rows": rows,
    }
    assert main(["bounds", "--k", "1..100000", "--out", str(tmp_path / "bounds")]) == 0
    assert (tmp_path / "bounds.csv").read_text(encoding="utf-8") == csv_per_cell(rows)
    want = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "bounds.json").read_text(encoding="utf-8") == want


def test_one_thread_run_never_imports_the_pool(tmp_path):
    # `simulate` imports the thread pool where it first starts one: a whole
    # Monte Carlo run capped at one thread never loads `concurrent.futures`
    # (nor the `logging` and `queue` it pulls in); a run on two threads does
    code = (
        "import sys\n"
        "from mecheff.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print('concurrent.futures' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    for cap, loaded in (("1", "False"), ("2", "True")):
        argv = ["ratio", "--k", "1..2", "--n", "200", "--out", str(tmp_path / f"ratio{cap}")]
        env = {**os.environ, "MECH_EFF_THREADS": cap}
        command = [sys.executable, "-c", code, *argv]
        child = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines()[-1] == loaded
