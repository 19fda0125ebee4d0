"""Command-line front end.

Subcommands cover the pipeline end to end: synthetic data generation,
stationarity/normality diagnostics, VPIN, GARCH fitting, SVM training,
wavelet denoising, the backtest itself, and report rendering. Every run
writes the fully-resolved configuration, with the command and its own
options, next to its outputs, and all output files are deterministic for a
fixed config, seed, and input.

Exit codes: 0 ok, 1 usage, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .backtest import (VARIANTS, BacktestResult, Metrics, run_backtest, run_variants,
                       variant_tag)
from .config import KEYS, RunConfig, config_key_help, load_config
from .denoise import DEFAULT_LEVEL, denoise
from .errors import DataError, NumericalError
from .marketdata import load_ticks, log_returns, save_ticks, synth_ticks
from .stats import TestResult, adf_test, arch_effect_test, granger_test, jarque_bera
from .svgplot import line_chart, stacked_chart
from .svm import Kernel, Scaler, predict, train_smo
from .volatility import fit_garch
from .vpin import vpin_from_ticks

log = logging.getLogger(__name__)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3
ENV_CONFIG = "MICROSTRAT_CONFIG"

NS_PER_HOUR = 3_600_000_000_000


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented usage code is 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _hours(ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=np.float64)
    return (ts - ts[0]) / NS_PER_HOUR


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    # repr round-trips floats exactly, keeping reruns byte-identical
    return repr(float(value)) if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args, cfg: RunConfig, out_dir: str) -> int:
    ticks = synth_ticks(cfg.synth)
    path = args.output or os.path.join(out_dir, "ticks.csv")
    save_ticks(path, ticks)
    print(f"wrote {len(ticks)} ticks to {path}")
    return EXIT_OK


def _test_rows(name: str, res: TestResult):
    yield (name, _fmt(res.statistic), _fmt(res.p_value), str(res.reject_at_5pct))


def cmd_diagnose(args, cfg: RunConfig, out_dir: str) -> int:
    ticks = load_ticks(args.data)
    other = load_ticks(args.granger) if args.granger else None
    if other is not None:
        # returns pair by time, so both files must tick at the same instants
        n = min(len(ticks), len(other))
        differ = np.flatnonzero(ticks.ts[:n] != other.ts[:n])
        if differ.size or len(ticks) != len(other):
            i = int(differ[0]) if differ.size else n
            raise DataError(f"{args.data} and {args.granger} differ in time "
                            f"at tick {i}; the Granger test pairs returns by time")
    r = log_returns(ticks.price)
    rows = []
    rows += _test_rows("adf_price", adf_test(ticks.price))
    rows += _test_rows("jarque_bera_returns", jarque_bera(r))
    rows += _test_rows("arch_effect_returns", arch_effect_test(r, lags=args.lags))
    if other is not None:
        pair = granger_test(r, log_returns(other.price), lag=args.granger_lag)
        rows += _test_rows("granger_data_causes_other", pair.x_causes_y)
        rows += _test_rows("granger_other_causes_data", pair.y_causes_x)
    path = args.output or os.path.join(out_dir, "diagnostics.csv")
    _write_csv(path, ("test", "statistic", "p_value", "reject_at_5pct"), rows)
    for name, stat, p, reject in rows:
        print(f"{name}: statistic {float(stat):.4f} p {float(p):.4g} "
              f"reject@5% {reject}")
    return EXIT_OK


def cmd_vpin(args, cfg: RunConfig, out_dir: str) -> int:
    ticks = load_ticks(args.data)
    series = vpin_from_ticks(ticks, bucket_volume=args.bucket_volume,
                             window=cfg.engine.vpin_window,
                             buckets_per_day=cfg.engine.buckets_per_day)
    path = args.output or os.path.join(out_dir, "vpin.csv")
    _write_csv(path, ("bucket_end_ts", "vpin"),
               ((int(ts), _fmt(float(v)))
                for ts, v in zip(series.end_ts, series.values)))
    if cfg.plots:
        svg = os.path.join(out_dir, "vpin.svg")
        stacked_chart(svg, [
            ("price", [("price", _hours(ticks.ts), ticks.price)]),
            ("VPIN", [("vpin", (series.end_ts - ticks.ts[0]) / NS_PER_HOUR,
                       series.values)]),
        ])
        print(f"plot {svg}")
    print(f"{series.values.shape[0]} vpin values to {path}; "
          f"max {float(series.values.max()):.4f}")
    return EXIT_OK


def cmd_garch(args, cfg: RunConfig, out_dir: str) -> int:
    ticks = load_ticks(args.data)
    r = log_returns(ticks.price)
    fit = fit_garch(r, spec=cfg.engine.garch_spec)
    table = fit.parameter_table(r)
    path = args.output or os.path.join(out_dir, "garch.csv")
    rows = [(name, _fmt(est), _fmt(se)) for name, est, se in table]
    rows += [("log_likelihood", _fmt(fit.log_likelihood), ""),
             ("persistence", _fmt(fit.persistence), ""),
             ("n_obs", str(r.shape[0]), ""),
             ("iterations", str(fit.iterations), "")]
    _write_csv(path, ("parameter", "estimate", "std_error"), rows)
    for name, est, se in table:
        print(f"{name}: {est:.6g} (se {se:.3g})")
    print(f"log-likelihood {fit.log_likelihood:.4f}, "
          f"persistence {fit.persistence:.4f}")
    return EXIT_OK


def cmd_svm_train(args, cfg: RunConfig, out_dir: str) -> int:
    try:
        table = np.loadtxt(args.data, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{args.data}: not a numeric feature CSV: {exc}") from exc
    if table.shape[1] < 2:
        raise DataError("feature CSV needs at least one feature and a label")
    X, y = table[:, :-1], table[:, -1]
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("labels must be -1 or 1")
    scaler = Scaler.fit(X)
    Xs = scaler.transform(X)
    eng = cfg.engine
    kernel = Kernel.linear() if args.kernel == "linear" \
        else Kernel.rbf(eng.svm_kernel_sigma)
    model = train_smo(Xs, y, c=eng.svm_c, kernel=kernel, tol=eng.svm_tol,
                      max_iter=args.max_iter)
    accuracy = float(np.mean(predict(model, Xs) == y))
    rep = model.report
    path = args.output or os.path.join(out_dir, "svm.csv")
    _write_csv(path, ("key", "value"), [
        ("rows", str(X.shape[0])),
        ("features", str(X.shape[1])),
        ("kernel", args.kernel),
        ("support_vectors", str(model.support_vectors.shape[0])),
        ("bias", _fmt(model.bias)),
        ("iterations", str(rep.iterations)),
        ("max_kkt_violation", _fmt(rep.max_kkt_violation)),
        ("dual_gap", _fmt(rep.gap)),
        ("training_accuracy", _fmt(accuracy)),
    ])
    print(f"{model.support_vectors.shape[0]} support vectors, "
          f"training accuracy {accuracy:.3f}, report {path}")
    return EXIT_OK


def cmd_denoise(args, cfg: RunConfig, out_dir: str) -> int:
    ticks = load_ticks(args.data)
    smoothed, threshold = denoise(ticks.price, level=args.level,
                                  mode=args.mode, threshold=args.threshold)
    path = args.output or os.path.join(out_dir, "denoised.csv")
    _write_csv(path, ("ts_ns", "price", "denoised"),
               ((int(t), _fmt(float(p)), _fmt(float(d)))
                for t, p, d in zip(ticks.ts, ticks.price, smoothed)))
    print(f"threshold {threshold:.6g}; wrote {path}")
    return EXIT_OK


def _write_run(out_dir: str, tag: str, res: BacktestResult,
               plots: bool) -> None:
    safe = tag.replace("+", "")
    _write_csv(os.path.join(out_dir, f"trades_{safe}.csv"),
               ("ts", "side", "qty", "price", "fee", "position_after",
                "cash_after"),
               ((t.ts, t.side, t.qty, _fmt(t.price), _fmt(t.fee),
                 t.position_after, _fmt(t.cash_after)) for t in res.trades))
    _write_csv(os.path.join(out_dir, f"equity_{safe}.csv"), ("ts", "equity"),
               ((int(ts), _fmt(float(eq)))
                for ts, eq in zip(res.equity_ts, res.equity)))
    _write_csv(os.path.join(out_dir, f"signals_{safe}.csv"),
               ("ts", "side", "quote", "delta1", "vpin", "layer_trace"),
               ((s.ts, s.side, s.quote or "", _fmt(s.delta1), _fmt(s.vpin),
                 s.layer_trace) for s in res.signal_log))
    if plots:
        hours = _hours(res.equity_ts)
        line_chart(os.path.join(out_dir, f"equity_{safe}.svg"),
                   f"equity vs benchmark ({tag})",
                   [("strategy", hours, res.equity),
                    ("benchmark", hours, res.benchmark)])


METRIC_COLUMNS = tuple(f.name for f in fields(Metrics))
REPORT_HEADER = ("variant", *METRIC_COLUMNS, "trade_count", "margin_calls")


def cmd_backtest(args, cfg: RunConfig, out_dir: str) -> int:
    ticks = load_ticks(args.data)
    if args.variants:
        results = run_variants(ticks, cfg.strategy, costs=cfg.costs,
                               engine=cfg.engine)
        ordered = [(tag, results[tag]) for tag in VARIANTS]
    else:
        res = run_backtest(ticks, cfg.strategy, costs=cfg.costs,
                           engine=cfg.engine)
        ordered = [(variant_tag(cfg.strategy), res)]
    rows = []
    for tag, res in ordered:
        _write_run(out_dir, tag, res, cfg.plots)
        r = res.report
        rows.append((tag, *(_fmt(getattr(r, key)) for key in METRIC_COLUMNS),
                     r.trade_count, res.margin_calls))
        print(f"{tag}: total {r.total_return:+.2%} "
              f"annualized {r.annualized_return:+.2%} "
              f"mdd {r.max_drawdown:.2%} sharpe {r.sharpe:.3f} "
              f"trades {r.trade_count} margin-calls {res.margin_calls}")
    _write_csv(os.path.join(out_dir, "report.csv"), REPORT_HEADER, rows)
    calls = sum(res.margin_calls for _, res in ordered)
    if args.strict and calls > 0:
        print(f"margin calls occurred ({calls}) and --strict is set",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


PERCENT_ROWS = {"total_return", "annualized_return",
                "relative_return_vs_benchmark", "max_drawdown"}
ROW_LABELS = (("total_return", "Total return"),
              ("annualized_return", "Annualized return"),
              ("relative_return_vs_benchmark", "Relative vs benchmark"),
              ("alpha", "Alpha"), ("beta", "Beta"),
              ("max_drawdown", "Max drawdown"), ("sharpe", "Sharpe"),
              ("trade_count", "Trades"), ("margin_calls", "Margin calls"))


def cmd_report(args, cfg: RunConfig, out_dir: str) -> int:
    with open(args.report, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "variant" not in reader.fieldnames:
            raise DataError(f"{args.report}: not a backtest report")
        for key in METRIC_COLUMNS:
            if key not in reader.fieldnames:
                raise DataError(f"{args.report}: no {key} column")
        records = list(reader)
    if not records:
        raise DataError(f"{args.report}: empty report")

    def cell(rec, key):
        if key in ("trade_count", "margin_calls"):
            return rec.get(key, "")
        try:
            v = float(rec[key])
        except (TypeError, ValueError):  # TypeError: the row is short
            raise DataError(f"{args.report}: {key} is not a number: "
                            f"{rec[key]!r}") from None
        if math.isnan(v):
            return "n/a"
        return f"{v * 100:.2f}%" if key in PERCENT_ROWS else f"{v:.3f}"

    variants = [rec["variant"] for rec in records]
    table = [["indicator"] + variants]
    for key, label in ROW_LABELS:
        table.append([label] + [cell(rec, key) for rec in records])
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = []
    for row in table:
        lines.append("  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                               for i, (c, w) in enumerate(zip(row, widths))))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _key_flag(p: argparse.ArgumentParser, flag: str, key: str, **kw) -> None:
    """A flag that sets config ``key`` ("section.key"); ``--help`` shows the
    flag's own name as its metavar."""
    if "type" in kw:
        kw["metavar"] = flag.lstrip("-").replace("-", "_").upper()
    p.add_argument(flag, dest=key, **kw)


def build_parser() -> argparse.ArgumentParser:
    epilog = "config keys and defaults:\n" + "\n".join(config_key_help())
    parser = _Parser(prog="microstrat",
                     description="market microstructure signals and backtests",
                     epilog=epilog,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="INI config path (or set "
                        f"{ENV_CONFIG})")
    _key_flag(parser, "--out", "output.dir", metavar="OUT",
              help="output directory (default: output.dir)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic tick data CSV")
    _key_flag(p, "--seed", "data.seed", type=int)
    _key_flag(p, "--count", "data.count", type=int)
    _key_flag(p, "--omega", "data.omega", type=float)
    _key_flag(p, "--alpha", "data.alpha", type=float)
    _key_flag(p, "--beta", "data.beta", type=float)
    _key_flag(p, "--mu", "data.mu", type=float)
    _key_flag(p, "--phi", "data.phi", type=float)
    _key_flag(p, "--start-price", "data.start_price", type=float)
    _key_flag(p, "--tick-interval-ms", "data.tick_interval_ms", type=int)
    _key_flag(p, "--spread", "data.spread", type=float)
    p.add_argument("-o", "--output")

    p = sub.add_parser("diagnose", help="ADF, Jarque-Bera, ARCH, Granger")
    p.add_argument("data")
    p.add_argument("--lags", type=int, default=12,
                   help="ARCH-effect lag count")
    p.add_argument("--granger", help="second tick CSV for causality tests")
    p.add_argument("--granger-lag", type=int, default=2)
    p.add_argument("-o", "--output")

    p = sub.add_parser("vpin", help="volume-bucket VPIN series")
    p.add_argument("data")
    p.add_argument("--bucket-volume", type=float)
    _key_flag(p, "--window", "vpin.window", type=int)
    _key_flag(p, "--buckets-per-day", "vpin.buckets_per_day", type=int)
    p.add_argument("-o", "--output")

    p = sub.add_parser("garch", help="fit a GARCH model to tick returns")
    p.add_argument("data")
    _key_flag(p, "--p", "garch.p", type=int)
    _key_flag(p, "--q", "garch.q", type=int)
    _key_flag(p, "--leverage", "garch.leverage",
              action=argparse.BooleanOptionalAction)
    _key_flag(p, "--mean", "garch.mean_model",
              choices=("zero", "constant", "ar1"))
    p.add_argument("-o", "--output")

    p = sub.add_parser("svm-train", help="train on a feature CSV "
                       "(last column is the -1/+1 label)")
    p.add_argument("data")
    p.add_argument("--kernel", choices=("linear", "rbf"), default="rbf")
    _key_flag(p, "--c", "svm.c", type=float)
    _key_flag(p, "--sigma", "svm.kernel_sigma", type=float)
    _key_flag(p, "--tol", "svm.tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("-o", "--output")

    p = sub.add_parser("denoise", help="wavelet-denoise the price path")
    p.add_argument("data")
    p.add_argument("--level", type=int, default=DEFAULT_LEVEL)
    p.add_argument("--mode", choices=("unscaled", "estimated"),
                   default="unscaled")
    p.add_argument("--threshold", type=float)
    p.add_argument("-o", "--output")

    p = sub.add_parser("backtest", help="event-driven backtest")
    p.add_argument("data")
    p.add_argument("--variants", action="store_true",
                   help="run all four layer combinations")
    p.add_argument("--strict", action="store_true",
                   help="nonzero exit when a margin call occurs")
    _key_flag(p, "--plot", "output.plots",
              action=argparse.BooleanOptionalAction, help="override output.plots")

    p = sub.add_parser("report", help="render a backtest report table")
    p.add_argument("report")

    return parser


# argparse values left out of the resolved config's "command" section: the
# global options and the input and output paths, which differ between runs
# that compute the same thing
_UNLOGGED = {"config", "verbose", "command", "data", "granger", "report",
             "output"}

_DISPATCH = {
    "generate": cmd_generate,
    "diagnose": cmd_diagnose,
    "vpin": cmd_vpin,
    "garch": cmd_garch,
    "svm-train": cmd_svm_train,
    "denoise": cmd_denoise,
    "backtest": cmd_backtest,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        # the config flags given, folded in so the resolved log reflects them
        flags = {key: val for key, val in vars(args).items()
                 if key in KEYS and val is not None}
        cfg = load_config(args.config or os.environ.get(ENV_CONFIG), flags)
        command = {"name": args.command}
        command.update((key, val) for key, val in vars(args).items()
                       if key not in KEYS and key not in _UNLOGGED)
        out_dir = cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "resolved_config.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({**cfg.to_dict(), "command": command}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        return _DISPATCH[args.command](args, cfg, out_dir)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
