"""Tests of the benchmark's own logic; not part of the program's test suite.

    python3 -m pytest bench/test_bench.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from tracer import Tracer  # noqa: E402


def span(name, start, end, parent=None, **extra):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": "r", "error": False, "extra": extra}


def test_self_time_subtracts_direct_children_only():
    tree = [span("backtest.run_backtest", 0.0, 10.0),
            span("volatility.fit_garch", 1.0, 4.0, parent=0),
            span("volatility.garch_loglik", 2.0, 3.0, parent=1),
            span("svm.train_smo", 5.0, 6.0, parent=0)]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [span("cli.main", 0.0, 4.0),
            span("marketdata.load_ticks", 1.0, 3.0, parent=0),
            span("marketdata.load_ticks", 2.0, 5.0, parent=0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_tail_needs_ten_samples_beyond():
    assert spans.tail([1.0] * 19) is None   # the tail would sit below the median
    value, pct = spans.tail(list(range(20)))
    assert value == 9 and pct == pytest.approx(50.0)
    samples = [float(i) for i in range(80)]
    value, pct = spans.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(87.5)


def test_layer_metrics_ratios_and_kernel_split():
    tree = [span("svm.train_smo", 0.0, 2.0, input_hash="a", rows=100,
                 iterations=50, support_vectors=30),
            span("svm.kernel_matrix", 0.0, 0.5, parent=0),
            span("svm.train_smo", 3.0, 4.0, input_hash="a", rows=100,
                 iterations=40, support_vectors=30),
            span("svm.decision_value", 5.0, 5.25),
            span("svm.kernel_matrix", 5.0, 5.125, parent=3)]
    tree[2]["error"] = True
    m = spans.layer_metrics([tree])
    assert m["svm.train_smo.calls"] == 2
    assert m["svm.train_smo.distinct_ratio"] == 0.5
    assert m["svm.train_smo.failures"] == 1
    assert m["svm.train_smo.iterations"] == 90
    assert m["svm.kernel_matrix.train_s"] == pytest.approx(0.5)
    assert m["svm.kernel_matrix.gate_s"] == pytest.approx(0.125)
    assert m["volatility.fit_garch.calls"] == 0


def test_tracer_records_nesting_and_failures():
    tracer = Tracer("r")

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_inner = tracer.wrap("m.inner", inner, None)
    outer = tracer.wrap("m.outer", lambda x: traced_inner(x), None)
    assert outer(1) == 1
    with pytest.raises(ValueError):
        outer(-1)
    names = [(s["name"], s["parent"], s["error"]) for s in tracer.spans]
    assert names == [("m.outer", None, False), ("m.inner", 0, False),
                     ("m.outer", None, True), ("m.inner", 2, True)]


REPORT = ("variant,total_return,sharpe,trade_count\n"
          "G,-0.32874,-7.834123456,1377\n")


def test_output_check_accepts_reordering_noise():
    noisy = REPORT.replace("-7.834123456", "-7.834123457")
    assert check.compare_csv(noisy, REPORT, check.TOLERANCES["report"]) is None


@pytest.mark.parametrize("corrupt", [
    REPORT.replace("-7.834123456", "-7.83"),         # a different Sharpe
    REPORT.replace("1377", "1376"),                 # a different trade count
    REPORT.replace("G,", "G+S,"),                   # a different variant
    REPORT + "G+S,0.1,0.2,3\n",                      # an extra row
])
def test_output_check_rejects_corrupted_report(corrupt):
    assert check.compare_csv(corrupt, REPORT, check.TOLERANCES["report"])


def test_output_check_exempts_only_the_named_row():
    want = "parameter,estimate,std_error\nomega,2e-08,1e-09\niterations,79,\n"
    assert check.compare_csv(want.replace("79", "80"), want,
                             check.TOLERANCES["garch"]) is None
    assert check.compare_csv(want.replace("2e-08", "3e-08"), want,
                             check.TOLERANCES["garch"])


def test_failed_command_and_corrupted_output_are_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(check, "REF_DIR", tmp_path / "reference")
    good = tmp_path / "report.csv"
    good.write_text(REPORT)
    check.record("w", {"report.csv": good})
    runner = run.Runner("variants", 3, "3000", record=False)
    runner.manifest = check.load_manifest("w")

    with open(tmp_path / "log", "w") as log:
        cmd = run.run_command([sys.executable, "-c", "raise SystemExit(3)"],
                              runner.env, log)
    runner._judge(cmd, {}, [])
    assert runner.failed == 1 and "exit code 3" in runner.problems[0]

    out = tmp_path / "out.csv"
    out.write_text(REPORT.replace("1377", "1378"))
    runner._judge(run.Command(1.0, 1.0, 1.0, []), {"report.csv": out}, [])
    out.write_text(REPORT)
    runner._judge(run.Command(1.0, 1.0, 1.0, []), {"report.csv": out},
                  [tmp_path / "missing.svg"])
    runner._judge(run.Command(1.0, 1.0, 1.0, []), {"report.csv": out}, [])
    assert (runner.attempted, runner.failed) == (4, 3)
