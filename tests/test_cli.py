import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mecheff import cli
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
    for bad in ("cauchy:1", "exponential:x", "exponential:1:2", "p:0.1:1:5"):
        with pytest.raises(cli.ConfigError):
            parse_dist_arg(bad)


def test_reserve_prints_value(capsys):
    assert main(["reserve", "--dist", "exponential:1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1.0"


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


def test_regular_cx_small(tmp_path):
    rc = main(["regular_cx", "--k", "1..2", "--m", "1..3", "--out", str(tmp_path / "cx")])
    assert rc == 0
    summary = json.loads((tmp_path / "cx.json").read_text())
    assert all(row["pass"] for row in summary["rows"])
    assert all(row["mhr_violated"] for row in summary["rows"])


def test_ratio_and_bk_smoke(tmp_path):
    assert main(["ratio", "--dist", "exponential:1", "--k", "2", "--n", "50000",
                 "--seed", "5", "--out", str(tmp_path / "r")]) == 0
    assert main(["bk", "--dist", "uniform:1", "--k", "1", "--n", "50000",
                 "--seed", "5", "--out", str(tmp_path / "b")]) == 0


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


def test_config_integral_floats_are_ints(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"t": 2.0, "k": 3.0, "m": 5.0, "n_trials": 1e3, "seed": 7.0}))
    cfg = cli.build_config(cli._build_parser().parse_args(["thm1", "--config", str(path)]))
    assert (cfg.t, cfg.k, cfg.m, cfg.n_trials, cfg.seed) == (2, [3], 5, 1000, 7)
    assert all(type(v) is int for v in (cfg.t, *cfg.k, cfg.m, cfg.n_trials, cfg.seed))


def test_run_time_config_error_exits_2():
    # the m range of regular_cx is parsed when the experiment runs
    assert main(["regular_cx", "--k", "1", "--m", "5..1"]) == 2
    assert main(["bounds", "--k", ","]) == 2
    assert cli.run_experiment(cli.ExperimentConfig("bounds", k=[])) == 2


def test_internal_key_error_propagates(monkeypatch):
    def broken(cfg, dist):
        raise KeyError("missing internal column")

    monkeypatch.setitem(cli._EXPERIMENTS, "bounds", cli._Experiment(broken, {}))
    with pytest.raises(KeyError):
        main(["bounds", "--k", "1"])


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_failing_inequality_exits_1(tmp_path):
    # thm2's strict-loss assertion is false for the exponential family
    # (its upper tail is uncapped, so extra bidders recover the loss)
    rc = main(["thm2", "--dist", "exponential:1", "--k", "5", "--n", "100000",
               "--seed", "3", "--out", str(tmp_path / "f")])
    assert rc == 1
    summary = json.loads((tmp_path / "f.json").read_text())
    assert summary["pass"] is False


def test_csv_byte_identical_across_thread_caps(tmp_path):
    args = ["thm1", "--dist", "exponential:1", "--k", "1..3", "--n", "60000", "--seed", "99"]
    r1 = run_cli(args + ["--out", str(tmp_path / "a")], {"MECH_EFF_THREADS": "1"})
    r2 = run_cli(args + ["--out", str(tmp_path / "b")], {"MECH_EFF_THREADS": "6"})
    assert r1.returncode == 0 and r2.returncode == 0, (r1.stderr, r2.stderr)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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
