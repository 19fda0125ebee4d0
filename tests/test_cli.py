import csv
import json
import os

import numpy as np
import pytest

from microstrat.cli import main
from microstrat.config import load_config
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


def test_help_lists_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for line in ("data.seed = 0", "vpin.window = 50",
                 "backtest.fee_rate = 0.000687", "strategy.delta2 = 0.9",
                 "output.dir = out"):
        assert line in out


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


def test_generate_constraint_error(tmp_path, capsys):
    code = run("--out", str(tmp_path), "generate",
               "--alpha", "0.5", "--beta", "0.6")
    assert code == 2
    assert "alpha + beta" in capsys.readouterr().err


# -- config -----------------------------------------------------------------


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.seed == 0
    assert cfg.cost_model().fee_rate == 6.87e-4
    assert cfg.engine_config().vpin_window == 50
    assert cfg.strategy_config(use_svm=False).use_svm is False


def test_config_file_overrides(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[data]\nseed = 5\ncount = 777\n"
                   "[strategy]\nuse_svm = false\n"
                   "[backtest]\nmaintenance_rate = 0.5\n")
    cfg = load_config(str(ini))
    assert cfg.seed == 5
    assert cfg.get("data", "count") == 777
    assert cfg.strategy_config().use_svm is False
    assert cfg.cost_model().maintenance == 0.5


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


def test_env_var_supplies_config(tmp_path, monkeypatch):
    ini = tmp_path / "env.ini"
    ini.write_text("[data]\nseed = 9\n")
    monkeypatch.setenv("MICROSTRAT_CONFIG", str(ini))
    out = tmp_path / "o"
    assert run("--out", str(out), "generate", "--count", "100") == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["data"]["seed"] == 9


def test_resolved_config_reflects_cli_overrides(tmp_path):
    out = tmp_path / "o"
    assert run("--out", str(out), "generate", "--seed", "7",
               "--count", "100") == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["data"]["seed"] == 7
    assert resolved["data"]["count"] == 100


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
    assert "label" in capsys.readouterr().err


# -- denoise ----------------------------------------------------------------


def test_denoise_output_schema(shared, tmp_path):
    out = tmp_path / "o"
    assert run("--out", str(out), "denoise", str(shared / "walk.csv"),
               "--level", "4") == 0
    rows = read_csv(out / "denoised.csv")
    assert len(rows) == 6000
    assert set(rows[0]) == {"ts_ns", "price", "denoised"}
    assert all(float(r["denoised"]) > 0 for r in rows[:100])


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
