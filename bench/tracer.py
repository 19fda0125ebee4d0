"""Run one microstrat CLI command with its public functions traced.

    python3 bench/tracer.py SPANS.json RUN_ID -- <microstrat arguments>

The program's source is left untouched: each listed function is wrapped
here and the wrapper is bound in place of the original in every microstrat
module that holds a reference to it (``microstrat.backtest.fit_garch`` and
``microstrat.cli.fit_garch`` are separate bindings of
``microstrat.volatility.fit_garch``). Calls inside the defining module
resolve the module global at call time, so they are traced too. Spans are
kept in memory and written to SPANS.json when the command ends; the exit
code is the command's own. ``microstrat`` must be importable (PYTHONPATH).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import sys
import time

import numpy as np


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _garch_extra(bound, result) -> dict:
    r = bound.arguments["r"]
    x = np.asarray(getattr(r, "values", r), dtype=np.float64)
    out = {"input_hash": _digest(x, bound.arguments.get("spec"))}
    if result is not None:
        out["iterations"] = result.iterations
    return out


def _smo_extra(bound, result) -> dict:
    args = dict(bound.arguments)
    X = np.asarray(args.pop("X"), dtype=np.float64)
    y = np.asarray(args.pop("y"), dtype=np.float64)
    out = {"input_hash": _digest(X, y, sorted(args.items())), "rows": X.shape[0]}
    if result is not None:
        out["iterations"] = result.report.iterations
        out["support_vectors"] = result.support_vectors.shape[0]
    return out


def _gate_extra(bound, result) -> dict:
    proposed = bound.arguments["proposed"]
    acted = proposed.side != "none"
    return {"proposed": int(acted),
            "vetoes": int(acted and result is not None and result.side == "none")}


def _file_mb(bound, result) -> dict:
    return {"mb": os.path.getsize(bound.arguments["path"]) / 1e6}


def _bucket_count(bound, result) -> dict:
    return {"buckets": len(result) if result is not None else 0}


# module -> {function: extractor of counts from (bound arguments, result)}
TARGETS = {
    "marketdata": {"load_ticks": _file_mb, "save_ticks": _file_mb,
                   "synth_ticks": None, "resample": None, "log_returns": None},
    "vpin": {"bucket_fill": None, "classify_buckets": _bucket_count,
             "compute_vpin": None, "sigma_delta_p": None},
    "volatility": {"fit_garch": _garch_extra, "garch_loglik": None},
    "svm": {"train_smo": _smo_extra, "kernel_matrix": None,
            "decision_value": None},
    "strategy": {"calibrate_delta1": None, "calibrate_vpin_thresholds": None,
                 "svm_gate": _gate_extra},
    "backtest": {"run_backtest": None, "run_variants": None,
                 "compute_metrics": None},
    "stats": {"adf_test": None, "ols": None, "jarque_bera": None,
              "arch_effect_test": None, "granger_test": None},
    "svgplot": {"line_chart": None, "stacked_chart": None},
    "cli": {"main": None},
}


class Tracer:
    """Keeps the spans of one process and the stack of open ones."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, extract):
        sig = inspect.signature(fn) if extract else None

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": self._open[-1] if self._open else None,
                    "run": self.run_id, "error": False, "extra": {}}
            self.spans.append(span)
            self._open.append(idx)
            result = None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                # counted before any caller swallows it; re-raised unchanged
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                if extract:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["extra"] = extract(bound, result)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "microstrat" or key.startswith("microstrat.")]
        for short, funcs in TARGETS.items():
            home = sys.modules[f"microstrat.{short}"]
            for func, extract in funcs.items():
                orig = getattr(home, func)
                wrapper = self.wrap(f"{short}.{func}", orig, extract)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    out_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    import microstrat.cli  # noqa: F401  (loads every module to be wrapped)

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return sys.modules["microstrat.cli"].main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
