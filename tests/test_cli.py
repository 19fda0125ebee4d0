import ast
import copy
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import microstrat
from microstrat import _scipy
from microstrat.cli import main
from microstrat.config import _PARSE, RunConfig, _opt_float, load_config
from microstrat.errors import ConfigError, DataError
from microstrat.svgplot import line_chart


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    """Synthetic CSVs reused across tests, generated through the CLI itself."""
    d = tmp_path_factory.mktemp("cli-data")
    jobs = {
        "walk.csv": ["--seed", "0", "--count", "6000", "--alpha", "0.0",
                     "--beta", "0.0", "--omega", "2e-5"],
        "garch6k.csv": ["--seed", "0", "--count", "6000"],
        "garch20k.csv": ["--seed", "3", "--count", "20000"],
        "two_day.csv": ["--seed", "3", "--count", str(2 * 28800),
                        "--phi", "0.15", "--omega", "2e-8",
                        "--alpha", "0.08", "--beta", "0.88"],
        "four_day.csv": ["--seed", "3", "--count", str(4 * 28800),
                         "--phi", "0.15", "--omega", "2e-8",
                         "--alpha", "0.08", "--beta", "0.88"],
    }
    for name, args in jobs.items():
        assert run("--out", str(d), "generate", *args,
                   "-o", str(d / name)) == 0
    return d


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- exit codes and help ----------------------------------------------------


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("definitely-not-a-command")
    assert exc.value.code == 1


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("generate", "--frobnicate", "3")
    assert exc.value.code == 1


def test_help_lists_config_keys(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for line in ("data.seed = 0", "vpin.window = 50",
                 "backtest.fee_rate = 0.000687", "strategy.delta2 = 0.9",
                 "output.dir = out"):
        assert line in out
    # every listed default, set in an INI, resolves exactly as no INI does
    sections: dict[str, str] = {}
    for line in out.split("config keys and defaults:\n")[1].splitlines():
        key, _, value = line.partition("=")
        sect, name = key.strip().split(".")
        sections[sect] = sections.get(sect, f"[{sect}]\n") \
            + f"{name} = {value.strip()}\n"
    assert len(sections) == 7
    ini = tmp_path / "defaults.ini"
    ini.write_text("".join(sections.values()))
    resolved = []
    for name, head in (("plain", ()), ("ini", ("--config", str(ini)))):
        out_dir = tmp_path / name
        assert run(*head, "--out", str(out_dir), "generate", "-o",
                   str(out_dir / "ticks.csv")) == 0
        resolved.append((out_dir / "resolved_config.json").read_bytes())
    assert resolved[0] == resolved[1]
    values = json.loads(resolved[1])
    # the INI's output.dir neither overrides --out nor is logged in its place
    assert "dir" not in values["output"]
    assert isinstance(values["backtest"]["capital"], float)
    assert values["backtest"]["maintenance_rate"] is None
    assert values["garch"]["mean_model"] == "ar1"


def test_missing_input_names_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert run("--out", str(tmp_path), "diagnose", missing) == 2
    assert "nope.csv" in capsys.readouterr().err


def test_non_finite_ticks_are_data_errors(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    good = "34200000000000,3000.0,5,2999.9,3000.1\n"
    for row in ("34201000000000,inf,5,2999.9,3000.1\n",
                "34201000000000,3000.0,5,2999.9,inf\n",
                "34201000000000,3000.0,5,-5,3000.1\n"):
        path.write_text("ts_ns,price,volume,bid1,ask1\n" + good + row)
        assert run("--out", str(tmp_path), "vpin", str(path)) == 2
        assert "finite" in capsys.readouterr().err


def test_fractional_bucket_volume_is_a_data_error(shared, tmp_path, capsys):
    assert run("--out", str(tmp_path), "vpin", str(shared / "two_day.csv"),
               "--bucket-volume", "0.5") == 2
    assert "whole number of contracts" in capsys.readouterr().err


def test_generate_constraint_error(shared, tmp_path, capsys):
    code = run("--out", str(tmp_path), "generate",
               "--alpha", "0.5", "--beta", "0.6")
    assert code == 2
    assert "alpha + beta" in capsys.readouterr().err
    # a bad value fails when the config resolves, before anything is written
    assert not (tmp_path / "resolved_config.json").exists()
    assert run("--out", str(tmp_path), "generate", "--spread", "nan") == 2
    assert "data.spread" in capsys.readouterr().err
    # an 8,000 s tick interval leaves each 2-hour session without a tick slot
    assert run("--out", str(tmp_path), "generate", "--tick-interval-ms", "8000000",
               "-o", str(tmp_path / "x.csv")) == 2
    assert "tick_interval_ms" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "resolved_config.json").exists()
    ini = tmp_path / "bad.ini"
    ini.write_text("[strategy]\ndelta2 = 0.1\ndelta3 = 0.2\n")
    out = tmp_path / "o"
    assert run("--config", str(ini), "--out", str(out), "backtest",
               str(shared / "two_day.csv")) == 2
    assert "delta3 <= delta2" in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


@pytest.mark.parametrize("section, key, value", [
    ("svm", "kernel_sigma", "-1"), ("svm", "c", "-1"), ("svm", "tol", "0"),
    ("svm", "min_rows", "5"), ("svm", "max_rows", "59"),
    ("backtest", "delta1_every", "0"), ("backtest", "garch_refit_every", "0"),
    ("backtest", "delta1_window", "29"), ("backtest", "sigma_window", "-5"),
    ("backtest", "garch_min_obs", "3000"), ("backtest", "garch_min_obs", "-1"),
    ("backtest", "trading_days_per_year", "0"), ("backtest", "tick_size", "-0.2"),
    # bars under 100 ms or over a day, and a delta1 grid of 1.98e9 points
    ("backtest", "bar_interval_ns", "1000000"), ("backtest", "bar_interval_ns", "1"),
    ("backtest", "bar_interval_ns", str(10**30)), ("backtest", "bar_interval_ns", str(2**63)),
    ("strategy", "delta1_step", "1e-9"),
    ("vpin", "window", "0"), ("vpin", "buckets_per_day", "0")])
def test_bad_engine_value_fails_before_the_run(shared, tmp_path, capsys,
                                              section, key, value):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    assert run("--config", str(ini), "--out", str(tmp_path), "backtest",
               "--variants", str(shared / "two_day.csv")) == 2
    assert key.split("_")[0] in capsys.readouterr().err
    assert not (tmp_path / "resolved_config.json").exists()


@pytest.mark.parametrize("argv, data, code", [
    (("garch",), "garch6k.csv", 0),
    (("backtest",), "two_day.csv", 2),
    (("backtest", "--variants"), "two_day.csv", 2)],
    ids=["garch", "backtest", "backtest-variants"])
def test_garch_orders_bound_only_the_backtest_min_obs(shared, tmp_path, capsys,
                                                      argv, data, code):
    # [garch] p and q set both commands' model: the garch command fits
    # GARCH(2,3), while the backtest stops before its run, since every refit
    # on fewer than 50 * (2 + 3) returns would fail
    ini = tmp_path / "orders.ini"
    ini.write_text("[garch]\np = 2\nq = 3\n")
    out = tmp_path / "o"
    assert run("--config", str(ini), "--out", str(out), *argv,
               str(shared / data)) == code
    if code:
        assert "garch_min_obs >= 250, got 200" in capsys.readouterr().err
        assert not (out / "report.csv").exists()
    else:
        names = [row["parameter"] for row in read_csv(out / "garch.csv")]
        assert {"alpha2", "gamma3"} <= set(names)


# -- config -----------------------------------------------------------------


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.synth.seed == 0
    assert cfg.costs.fee_rate == 6.87e-4
    assert cfg.engine.vpin_window == 50


def test_config_file_overrides(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[data]\nseed = 5\ncount = 777\n"
                   "[strategy]\nuse_svm = false\ndelta2 = 0.05\ndelta3 = 0.01\n"
                   "[backtest]\nmaintenance_rate = 0.5\n")
    cfg = load_config(str(ini))
    assert cfg.synth.seed == 5
    assert cfg.synth.count == 777
    assert cfg.strategy.use_svm is False
    # both thresholds move below the default delta3 = 0.1 together
    assert (cfg.strategy.delta2, cfg.strategy.delta3) == (0.05, 0.01)
    assert cfg.costs.maintenance == 0.5


def test_unknown_key_rejected(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[data]\nseeed = 5\n")
    with pytest.raises(ConfigError, match="seeed"):
        load_config(str(ini))
    ini.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="nonsense"):
        load_config(str(ini))
    ini.write_text("[strategy]\nuse_garch = true\n")
    with pytest.raises(ConfigError, match="use_garch"):
        load_config(str(ini))


@pytest.mark.parametrize("key", [key for key, parse in _PARSE.items()
                                 if parse in (float, _opt_float)])
def test_non_finite_float_key_rejected(tmp_path, key):
    sect, name = key.split(".")
    ini = tmp_path / "bad.ini"
    for value in ("nan", "inf", "-inf"):
        ini.write_text(f"[{sect}]\n{name} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(str(ini))


_NUMERIC_KEYS = [key for key, parse in _PARSE.items() if parse in (int, float, _opt_float)]
# zero, negative, tiny and huge, in each key's own type
_EXTREMES = {int: (0, -1, 1, int(1e300), 10**30),
             float: (0.0, -1.0, 5e-324, 1e300, 1e30)}


# 255 (key, value) pairs, few enough that hypothesis tries every one
@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(_NUMERIC_KEYS), st.integers(0, 4))
def test_extreme_numeric_values_resolve_or_fail_as_config_errors(key, k):
    value = _EXTREMES[int if _PARSE[key] is int else float][k]
    try:
        cfg = load_config(None, {key: value})
    except (ConfigError, DataError):
        return
    assert isinstance(cfg, RunConfig)


def test_env_var_supplies_config(tmp_path, monkeypatch):
    ini = tmp_path / "env.ini"
    ini.write_text("[data]\nseed = 9\n")
    monkeypatch.setenv("MICROSTRAT_CONFIG", str(ini))
    out = tmp_path / "o"
    assert run("--out", str(out), "generate", "--count", "100") == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["data"]["seed"] == 9


def test_resolved_config_reflects_cli_overrides(tmp_path):
    def resolved(name, *argv):
        out = tmp_path / name
        run("--out", str(out), *argv)
        return json.loads((out / "resolved_config.json").read_text())

    # the config is written before a command reads its (here missing) input
    missing = str(tmp_path / "missing.csv")
    defaults = resolved("defaults", "report", missing)
    assert defaults.pop("command") == {"name": "report"}
    assert defaults["output"] == {"plots": True}
    cases = [
        (("generate", "--seed", "7", "--count", "100", "--omega", "2e-6",
          "--alpha", "0.06", "--beta", "0.85", "--mu", "1e-4", "--phi", "0.1",
          "--start-price", "2000", "--tick-interval-ms", "250",
          "--spread", "0.4"),
         {"data.seed": 7, "data.count": 100, "data.omega": 2e-6,
          "data.alpha": 0.06, "data.beta": 0.85, "data.mu": 1e-4,
          "data.phi": 0.1, "data.start_price": 2000.0,
          "data.tick_interval_ms": 250, "data.spread": 0.4}),
        (("vpin", missing, "--window", "30", "--buckets-per-day", "60"),
         {"vpin.window": 30, "vpin.buckets_per_day": 60}),
        (("garch", missing, "--p", "2", "--q", "3", "--leverage",
          "--mean", "zero"),
         {"garch.p": 2, "garch.q": 3, "garch.leverage": True,
          "garch.mean_model": "zero"}),
        (("svm-train", missing, "--c", "2.5", "--sigma", "0.5",
          "--tol", "0.01"),
         {"svm.c": 2.5, "svm.kernel_sigma": 0.5, "svm.tol": 0.01}),
        (("backtest", missing, "--no-plot"), {"output.plots": False}),
    ]
    for i, (argv, flags) in enumerate(cases):
        want = copy.deepcopy(defaults)
        for key, value in flags.items():
            sect, name = key.split(".")
            assert want[sect][name] != value
            want[sect][name] = value
        got = resolved(f"case{i}", *argv)
        assert got.pop("command")["name"] == argv[0]
        assert got == want


def test_resolved_config_logs_command_options(tmp_path):
    missing = str(tmp_path / "missing.csv")
    cases = [
        (("vpin", missing, "--bucket-volume", "20", "-o", "v.csv"),
         {"name": "vpin", "bucket_volume": 20.0}),
        (("vpin", missing), {"name": "vpin", "bucket_volume": None}),
        (("diagnose", missing, "--lags", "5", "--granger", missing),
         {"name": "diagnose", "lags": 5, "granger_lag": 2}),
        (("denoise", missing, "--level", "3", "--mode", "estimated"),
         {"name": "denoise", "level": 3, "mode": "estimated",
          "threshold": None}),
        (("svm-train", missing, "--kernel", "linear", "--max-iter", "50"),
         {"name": "svm-train", "kernel": "linear", "max_iter": 50}),
        (("backtest", missing, "--variants"),
         {"name": "backtest", "variants": True, "strict": False}),
        (("generate", "--count", "100", "-o", str(tmp_path / "g.csv")),
         {"name": "generate"}),
    ]
    for i, (argv, want) in enumerate(cases):
        out = tmp_path / f"case{i}"
        # the log is written before the command fails on its missing input
        run("--out", str(out), "-v", *argv)
        logged = json.loads((out / "resolved_config.json").read_text())
        assert logged["command"] == want


# -- generate ---------------------------------------------------------------


def test_generate_deterministic_and_schema(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run("--out", str(tmp_path), "generate", "--seed", "7",
                   "--count", "1000", "-o", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = read_csv(a)
    assert len(rows) == 1000
    assert set(rows[0]) == {"ts_ns", "price", "volume", "bid1", "ask1"}


# -- diagnose ---------------------------------------------------------------


def test_diagnose_random_walk_not_rejected(shared, tmp_path):
    out = tmp_path / "o"
    assert run("--out", str(out), "diagnose", str(shared / "walk.csv")) == 0
    rows = {r["test"]: r for r in read_csv(out / "diagnostics.csv")}
    assert rows["adf_price"]["reject_at_5pct"] == "False"
    assert rows["arch_effect_returns"]["reject_at_5pct"] == "False"
    assert 0.0 <= float(rows["jarque_bera_returns"]["p_value"]) <= 1.0


def test_diagnose_garch_data_shows_arch(shared, tmp_path):
    out = tmp_path / "o"
    assert run("--out", str(out), "diagnose", str(shared / "garch6k.csv"),
               "--granger", str(shared / "walk.csv")) == 0
    rows = {r["test"]: r for r in read_csv(out / "diagnostics.csv")}
    assert rows["arch_effect_returns"]["reject_at_5pct"] == "True"
    assert "granger_data_causes_other" in rows
    assert "granger_other_causes_data" in rows


def test_diagnose_granger_needs_ticks_at_the_same_times(shared, tmp_path,
                                                       capsys):
    # walk.csv has 6,000 ticks and garch20k.csv 20,000 on the same clock
    out = tmp_path / "o"
    assert run("--out", str(out), "diagnose", str(shared / "walk.csv"),
               "--granger", str(shared / "garch20k.csv")) == 2
    err = capsys.readouterr().err
    assert "garch20k.csv differ in time at tick 6000;" in err
    assert not (out / "diagnostics.csv").exists()


# -- vpin -------------------------------------------------------------------


def test_vpin_balanced_data_stays_low(shared, tmp_path):
    out = tmp_path / "o"
    assert run("--out", str(out), "vpin", str(shared / "two_day.csv")) == 0
    rows = read_csv(out / "vpin.csv")
    assert len(rows) >= 30
    values = [float(r["vpin"]) for r in rows]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert max(values) < 0.05  # symmetric synthetic flow has no information
    assert (out / "vpin.svg").exists()


# -- garch ------------------------------------------------------------------


def test_garch_parameter_file_recovers(shared, tmp_path):
    out = tmp_path / "o"
    assert run("--out", str(out), "garch", str(shared / "garch20k.csv")) == 0
    rows = {r["parameter"]: r for r in read_csv(out / "garch.csv")}
    assert abs(float(rows["alpha1"]["estimate"]) - 0.05) < 0.03
    assert abs(float(rows["gamma1"]["estimate"]) - 0.90) < 0.03
    assert float(rows["persistence"]["estimate"]) < 1.0
    assert float(rows["alpha1"]["std_error"]) > 0.0


# -- svm-train --------------------------------------------------------------


def write_features(path, n=120, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, 3))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, 1.0, -1.0)
    np.savetxt(path, np.column_stack([X, y]), delimiter=",",
               header="f0,f1,f2,label", comments="")


def test_svm_train_report(tmp_path):
    feats = tmp_path / "features.csv"
    write_features(feats)
    out = tmp_path / "o"
    assert run("--out", str(out), "svm-train", str(feats)) == 0
    rows = {r["key"]: r["value"] for r in read_csv(out / "svm.csv")}
    assert float(rows["training_accuracy"]) == 1.0
    assert int(rows["support_vectors"]) >= 2
    assert float(rows["max_kkt_violation"]) <= 1e-3


def test_svm_train_rejects_bad_labels(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("f0,label\n1.0,2.0\n0.5,1.0\n")
    assert run("--out", str(tmp_path), "svm-train", str(bad)) == 2
    assert f"{bad}: labels must be -1 or 1" in capsys.readouterr().err


def test_svm_train_rejects_a_label_only_csv(tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("label\n1\n-1\n")
    assert run("--out", str(tmp_path), "svm-train", str(labels)) == 2
    assert f"{labels}: feature CSV needs" in capsys.readouterr().err


def test_svm_train_rejects_a_header_only_csv(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("a,label\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("--out", str(tmp_path), "svm-train", str(empty)) == 2
    assert f"{empty}: no data rows" in capsys.readouterr().err


@pytest.mark.parametrize("max_iter", ["0", "-4"])
def test_svm_train_rejects_non_positive_max_iter(tmp_path, capsys, max_iter):
    feats = tmp_path / "features.csv"
    write_features(feats)
    assert run("--out", str(tmp_path), "svm-train", str(feats),
               "--max-iter", max_iter) == 2
    assert "max_iter" in capsys.readouterr().err
    assert not (tmp_path / "svm.csv").exists()


# -- denoise ----------------------------------------------------------------


def test_denoise_output_schema(shared, tmp_path):
    out = tmp_path / "o"
    assert run("--out", str(out), "denoise", str(shared / "walk.csv"),
               "--level", "4") == 0
    rows = read_csv(out / "denoised.csv")
    assert len(rows) == 6000
    assert set(rows[0]) == {"ts_ns", "price", "denoised"}
    assert all(float(r["denoised"]) > 0 for r in rows[:100])


def test_denoise_rejects_nan_threshold(shared, tmp_path, capsys):
    out = tmp_path / "o"
    assert run("--out", str(out), "denoise", str(shared / "walk.csv"),
               "--threshold", "nan") == 2
    assert "threshold" in capsys.readouterr().err
    assert not (out / "denoised.csv").exists()


# -- backtest and report ----------------------------------------------------


def test_backtest_variants_and_report(shared, tmp_path, capsys):
    out = tmp_path / "o"
    assert run("--out", str(out), "backtest", str(shared / "two_day.csv"),
               "--variants") == 0
    rows = read_csv(out / "report.csv")
    assert [r["variant"] for r in rows] == ["G", "G+S", "G+V", "G+V+S"]
    for tag in ("G", "GS", "GV", "GVS"):
        assert (out / f"trades_{tag}.csv").exists()
        assert (out / f"equity_{tag}.csv").exists()
        assert (out / f"signals_{tag}.csv").exists()
        assert (out / f"equity_{tag}.svg").exists()
    sig = read_csv(out / "signals_GVS.csv")
    assert set(sig[0]) == {"ts", "side", "quote", "delta1", "vpin",
                           "layer_trace"}
    eq = read_csv(out / "equity_G.csv")
    assert set(eq[0]) == {"ts", "equity"}
    capsys.readouterr()
    assert run("--out", str(out), "report", str(out / "report.csv")) == 0
    text = capsys.readouterr().out
    assert "G+V+S" in text and "Max drawdown" in text
    assert (out / "report.txt").read_text() in text + text  # same content
    # a missing metric column or a metric that is not a number: exit 2
    bad = tmp_path / "r.csv"
    bad.write_text("variant,total_return\nG,0.1\n")
    assert run("--out", str(out), "report", str(bad)) == 2
    err = capsys.readouterr().err
    assert "r.csv" in err and "annualized_return" in err
    rows[0]["sharpe"] = "abc"
    with open(bad, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert run("--out", str(out), "report", str(bad)) == 2
    err = capsys.readouterr().err
    assert "r.csv" in err and "sharpe" in err and "abc" in err


def test_backtest_single_run_uses_flag_tag(shared, tmp_path):
    out = tmp_path / "o"
    ini = tmp_path / "run.ini"
    ini.write_text("[strategy]\nuse_vpin = false\nuse_svm = false\n")
    assert run("--config", str(ini), "--out", str(out), "backtest",
               str(shared / "two_day.csv")) == 0
    rows = read_csv(out / "report.csv")
    assert len(rows) == 1 and rows[0]["variant"] == "G"
    trades = read_csv(out / "trades_G.csv")
    assert set(trades[0]) == {"ts", "side", "qty", "price", "fee",
                              "position_after", "cash_after"}


def test_strict_flag_escalates_margin_calls(shared, tmp_path, capsys):
    ini = tmp_path / "risky.ini"
    ini.write_text("[strategy]\nposition_fraction = 1.0\nsize_cap = 1.0\n"
                   "[backtest]\nmaintenance_rate = 1.0\n")
    out = tmp_path / "o"
    args = ["--config", str(ini), "--out", str(out), "backtest",
            str(shared / "four_day.csv")]
    assert run(*args) == 0  # margin calls alone do not fail the run
    assert run(*args, "--strict") == 3
    assert "margin" in capsys.readouterr().err.lower()


# -- svg writer -------------------------------------------------------------


def test_line_chart_bytes_stable(tmp_path):
    x = np.arange(5000, dtype=np.float64)
    y = np.sin(x / 100.0)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    line_chart(str(a), "wave", [("sin", x, y)])
    line_chart(str(b), "wave", [("sin", x, y)])
    assert a.read_bytes() == b.read_bytes()
    assert a.stat().st_size < 200_000  # long series are thinned


def test_line_chart_validation(tmp_path):
    path = str(tmp_path / "c.svg")
    with pytest.raises(DataError):
        line_chart(path, "t", [("bad", np.arange(3), np.arange(4))])
    with pytest.raises(DataError):
        line_chart(path, "t", [("nan", np.arange(3),
                                np.full(3, np.nan))])
    with pytest.raises(DataError):
        line_chart(path, "t", [])


# -- imports ------------------------------------------------------------------

# Runs in a fresh interpreter: records the scipy modules loaded after
# `import microstrat.cli` and after each command, the microstrat modules the
# import loaded and the OPENBLAS_THREAD_TIMEOUT it left, as JSON in argv[1];
# commands write under argv[2].
_IMPORT_PROBE = """
import json, os, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import microstrat.cli as cli

seen = {"import": scipy_loaded(), "modules": sorted(sys.modules),
        "openblas_thread_timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT")}
out = sys.argv[2]
report = os.path.join(out, "report.csv")
with open(report, "w") as fh:
    fh.write(",".join(cli.REPORT_HEADER) + "\\n")
    fh.write(",".join(["G"] + ["0"] * (len(cli.REPORT_HEADER) - 1)) + "\\n")
ticks = os.path.join(out, "ticks.csv")
# another shock seed, ticking at the same instants as ticks.csv
other = os.path.join(out, "other.csv")
two_days = os.path.join(out, "two_days.csv")
g_only = os.path.join(out, "g_only.ini")
with open(g_only, "w") as fh:
    fh.write("[strategy]\\nuse_vpin = false\\nuse_svm = false\\n")
assert cli.main(["--out", out, "generate", "--count", "5760",
                 "--tick-interval-ms", "5000", "--phi", "0.15", "-o", two_days]) == 0
commands = [
    ("generate", ["generate", "--count", "3000", "--phi", "0.15", "-o", ticks]),
    ("report", ["report", report]),
    ("vpin", ["vpin", ticks, "--window", "10"]),
    ("garch", ["garch", ticks]),
    # G only on two days: the GARCH refits start on the second day
    ("backtest", ["--config", g_only, "backtest", two_days]),
    ("diagnose", ["diagnose", ticks]),
    ("generate_other", ["generate", "--count", "3000", "--phi", "0.15",
                        "--seed", "4", "-o", other]),
    ("granger", ["diagnose", ticks, "--granger", other])]
for name, argv in commands:
    assert cli.main(["--out", out, *argv]) == 0, name
    seen[name] = scipy_loaded()
with open(sys.argv[1], "w") as fh:
    json.dump(seen, fh)
"""


def _run_import_probe(tmp_path, openblas_thread_timeout):
    """The probe's record, run with OPENBLAS_THREAD_TIMEOUT set to the given
    value, or unset for None (importing microstrat.cli here has set it)."""
    src = os.path.dirname(os.path.dirname(microstrat.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if openblas_thread_timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = openblas_thread_timeout
    record = tmp_path / "seen.json"
    subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(record),
                    str(tmp_path)], env=env, check=True, capture_output=True)
    return json.loads(record.read_text())


def test_scipy_loads_only_in_the_functions_that_use_it(tmp_path):
    # the benchmark's tracer wraps these modules right after `import
    # microstrat.cli`, so that import must still load every one of them
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", tracer)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    seen = _run_import_probe(tmp_path, None)
    assert seen["import"] == [] and seen["generate"] == [] \
        and seen["report"] == []
    assert {f"microstrat.{name}" for name in module.TARGETS} \
        <= set(seen["modules"])
    # VPIN, the GARCH filter and the fit each load one compiled module
    # without its package, whose init imports other scipy subpackages
    assert "scipy.signal" not in seen["vpin"]
    assert "scipy.optimize" not in seen["vpin"]
    assert "scipy.signal" not in seen["garch"]
    assert "scipy.signal._sigtools" in seen["garch"]
    if _scipy.setulb() is None:
        # another L-BFGS-B kernel signature: the fit calls scipy's minimize
        assert "scipy.optimize" in seen["garch"]
        return
    assert "scipy.optimize._lbfgsb" in seen["garch"]
    # resolve the ufuncs first: that is what loads _special_ufuncs here when
    # no test before this one has
    found = {name: _scipy.special(name) for name in ("ndtr", "gammaincc")}
    ufuncs = sys.modules.get("scipy.special._special_ufuncs")
    if not all(f is getattr(ufuncs, name, None) for name, f in found.items()):
        # no ndtr or gammaincc outside scipy.special: VPIN or the
        # diagnostics import the package
        assert "scipy.special" in seen["diagnose"]
        return
    assert "scipy.special._special_ufuncs" in seen["vpin"]
    # the commands run in turn in one interpreter, so each record holds the
    # modules of the commands before it too
    packages = {"scipy.special", "scipy.linalg", "scipy.optimize",
                "scipy.signal"}
    # the F tail is the in-repo incomplete beta, so the Granger test loads
    # no package either
    for name in ("vpin", "garch", "backtest", "diagnose", "granger"):
        assert not packages & set(seen[name]), name


def test_diagnostics_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 20,000 ticks is above OpenBLAS's threading cutoff, where a threaded
    # ddot splits its sum and moves the last bits
    data, other = tmp_path / "data.csv", tmp_path / "other.csv"
    for seed, path in (("3", data), ("4", other)):
        assert run("--out", str(tmp_path), "generate", "--seed", seed,
                   "--count", "20000", "--phi", "0.15", "--omega", "2e-8",
                   "--alpha", "0.08", "--beta", "0.88", "-o", str(path)) == 0
    src = os.path.dirname(os.path.dirname(microstrat.__file__))
    written = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = tmp_path / f"threads_{threads}"
        subprocess.run([sys.executable, "-m", "microstrat.cli", "--out",
                        str(out), "diagnose", str(data), "--granger",
                        str(other)], env=env, check=True, capture_output=True)
        written.append((out / "diagnostics.csv").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("preset,expected", [(None, "4"), ("28", "28")])
def test_cli_import_shortens_openblas_thread_timeout_unless_set(
        tmp_path, preset, expected):
    # idle OpenBLAS workers spin ~2**28 cycles by default; the CLI sets the
    # least timeout before numpy loads, and keeps a value the user has set
    assert _run_import_probe(tmp_path, preset)["openblas_thread_timeout"] \
        == expected


def test_every_public_name_is_reached_from_the_package():
    # a public top-level function or class stays only if some code in the
    # package refers to it (a name, an attribute or an import) outside its
    # own definition
    pkg = Path(microstrat.__file__).parent
    public, refs = set(), set()
    for path in sorted(pkg.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                owner = f"{path.stem}.{stmt.name}"
                public.add((owner, stmt.name))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                if name is not None:
                    refs.add((name, owner))
    unreached = sorted(owner for owner, name in public
                       if not any(n == name and o != owner for n, o in refs))
    assert unreached == []


def test_scipy_is_reached_only_through_its_accessors():
    # outside `_scipy`, no module imports scipy or holds a string that names
    # a scipy module, such as one handed to a loader; the one exception is
    # the GARCH fit's `minimize`, for a scipy whose L-BFGS-B kernel the
    # in-repo driver was not written against
    pkg = Path(microstrat.__file__).parent
    found = set()
    for path in sorted(pkg.glob("*.py")):
        if path.name == "_scipy.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # each node's innermost function: the walk is breadth first, so an
        # inner function overwrites its outer one
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            found |= {(f"{path.stem}.{owner.get(node, '')}", name)
                      for name in names if re.fullmatch(r"scipy(\.\w+)*", name)}
    assert found == {("volatility._minimize", "scipy.optimize")}
