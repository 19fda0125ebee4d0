"""Per-layer metrics derived from the spans a traced run records.

A span is a dict with ``name`` (``module.function``), ``start`` and ``end``
(seconds), ``parent`` (index of the enclosing span in the same list, or
None), ``run`` (the id shared by every span of one workload repetition),
``error`` (the call raised) and ``extra`` (counts taken from the call's
arguments and result). One list holds the spans of one process.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# A tail percentile is reported only where at least this many calls lie
# beyond it, so that it rests on more than a handful of samples.
TAIL_BEYOND = 10


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp["parent"] is not None:
            children[sp["parent"]].append((sp["start"], sp["end"]))
    out = []
    for i, sp in enumerate(spans):
        covered, reach = 0.0, sp["start"]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, sp["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp["end"] - sp["start"] - covered)
    return out


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND
    samples beyond it, or None when that would not reach the median."""
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return None
    return sorted(values)[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


class _Calls:
    def __init__(self) -> None:
        self.durations: list[float] = []
        self.self_s = 0.0
        self.failures = 0
        self.hashes: set[str] = set()
        self.extra: dict[str, float] = defaultdict(float)

    def add(self, sp: dict, self_s: float) -> None:
        self.durations.append(sp["end"] - sp["start"])
        self.self_s += self_s
        self.failures += bool(sp.get("error"))
        for key, val in sp.get("extra", {}).items():
            if key == "input_hash":
                self.hashes.add(val)
            else:
                self.extra[key] += val


def _timing(c: _Calls, prefix: str) -> dict[str, float]:
    out = {f"{prefix}.calls": len(c.durations), f"{prefix}.s": sum(c.durations)}
    t = tail(c.durations)
    out[f"{prefix}.p50_ms"] = 1e3 * statistics.median(c.durations) if c.durations else 0.0
    out[f"{prefix}.tail_ms"] = 1e3 * t[0] if t else 0.0
    out[f"{prefix}.tail_pct"] = t[1] if t else 0.0
    out[f"{prefix}.failures"] = c.failures
    out[f"{prefix}.distinct_ratio"] = len(c.hashes) / len(c.durations) if c.durations else 0.0
    return out


def layer_metrics(processes: list[list[dict]]) -> dict[str, float]:
    """The per-layer metrics of one workload repetition.

    `processes` holds one span list per CLI process the repetition ran.
    Calls that recorded no span count as zero, so every metric is present
    on every workload.
    """
    calls: dict[str, _Calls] = defaultdict(_Calls)
    kernel_train = kernel_gate = 0.0
    for tree in processes:
        for sp, own in zip(tree, self_times(tree)):
            calls[sp["name"]].add(sp, own)
            if sp["name"] == "svm.kernel_matrix" and sp["parent"] is not None:
                parent = tree[sp["parent"]]["name"]
                if parent == "svm.train_smo":
                    kernel_train += sp["end"] - sp["start"]
                elif parent == "svm.decision_value":
                    kernel_gate += sp["end"] - sp["start"]

    def n(name: str) -> int:
        return len(calls[name].durations)

    def s(name: str) -> float:
        return sum(calls[name].durations)

    m: dict[str, float] = {}
    garch = calls["volatility.fit_garch"]
    m.update(_timing(garch, "volatility.fit_garch"))
    m["volatility.fit_garch.iterations"] = garch.extra["iterations"]
    m["volatility.garch_loglik.calls"] = n("volatility.garch_loglik")
    m["volatility.garch_loglik.s"] = s("volatility.garch_loglik")

    smo = calls["svm.train_smo"]
    m.update(_timing(smo, "svm.train_smo"))
    for key in ("iterations", "rows", "support_vectors"):
        m[f"svm.train_smo.{key}"] = smo.extra[key]
    m["svm.kernel_matrix.calls"] = n("svm.kernel_matrix")
    m["svm.kernel_matrix.train_s"] = kernel_train
    m["svm.kernel_matrix.gate_s"] = kernel_gate
    m["svm.decision_value.calls"] = n("svm.decision_value")
    m["svm.decision_value.s"] = s("svm.decision_value")

    m["backtest.run_backtest.calls"] = n("backtest.run_backtest")
    m["backtest.run_backtest.s"] = s("backtest.run_backtest")
    m["backtest.run_backtest.self_s"] = calls["backtest.run_backtest"].self_s
    m["backtest.run_variants.s"] = s("backtest.run_variants")
    m["backtest.compute_metrics.s"] = s("backtest.compute_metrics")

    for name in ("calibrate_delta1", "calibrate_vpin_thresholds"):
        m[f"strategy.{name}.calls"] = n(f"strategy.{name}")
        m[f"strategy.{name}.s"] = s(f"strategy.{name}")
    gate = calls["strategy.svm_gate"]
    m["strategy.svm_gate.calls"] = len(gate.durations)
    m["strategy.svm_gate.vetoes"] = gate.extra["vetoes"]
    m["strategy.svm_gate.veto_ratio"] = (gate.extra["vetoes"] / gate.extra["proposed"]
                                         if gate.extra["proposed"] else 0.0)

    m["marketdata.load_ticks.calls"] = n("marketdata.load_ticks")
    m["marketdata.load_ticks.s"] = s("marketdata.load_ticks")
    m["marketdata.load_ticks.mb"] = calls["marketdata.load_ticks"].extra["mb"]
    m["marketdata.save_ticks.s"] = s("marketdata.save_ticks")
    m["marketdata.save_ticks.mb"] = calls["marketdata.save_ticks"].extra["mb"]
    m["marketdata.synth_ticks.s"] = s("marketdata.synth_ticks")
    m["marketdata.resample.calls"] = n("marketdata.resample")
    m["marketdata.resample.s"] = s("marketdata.resample")
    m["marketdata.log_returns.s"] = s("marketdata.log_returns")

    for name in ("bucket_fill", "classify_buckets", "compute_vpin", "sigma_delta_p"):
        m[f"vpin.{name}.s"] = s(f"vpin.{name}")
    m["vpin.bucket_fill.calls"] = n("vpin.bucket_fill")
    m["vpin.buckets"] = calls["vpin.classify_buckets"].extra["buckets"]

    m["stats.adf_test.s"] = s("stats.adf_test")
    m["stats.ols.calls"] = n("stats.ols")
    m["stats.ols.s"] = s("stats.ols")
    for name in ("jarque_bera", "arch_effect_test", "granger_test"):
        m[f"stats.{name}.s"] = s(f"stats.{name}")

    m["svgplot.line_chart.s"] = s("svgplot.line_chart")
    m["svgplot.stacked_chart.s"] = s("svgplot.stacked_chart")
    m["cli.main.self_s"] = calls["cli.main"].self_s
    return m
