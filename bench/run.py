"""microstrat benchmark: drive the CLI the way a researcher does.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs one command after another, each starting when the
previous one has finished (a closed loop with one client). Every command is
a fresh ``python3 -m microstrat.cli`` process, so interpreter and numpy and
scipy import time count, as users pay them on every command.

Set-up writes the workload's input tick files with the program's own
``generate``; it runs three times and reports its median. The workload then
repeats, starting a new repetition while less than S seconds have passed,
and each end-to-end metric is the median over repetitions. After every command the exit code is checked,
every expected file must exist, and outputs are compared with references
recorded from the seed commit (see check.py).

With ``--trace 1`` set-up runs once, traced, and untraced and traced
repetitions alternate (see tracer.py). The per-layer metrics are medians
over traced repetitions, each including the traced set-up, and
``trace.overhead_s`` is the traced minus the untraced median ``run_s``.

The last line of standard output is the JSON result; a fuller record with
provenance and every sample goes to ``bench/_work/<workload>/result.json``.
``--data-seed`` replaces the baseline shock seed, and ``--record`` stores a
run's outputs as the references instead of checking them: run both on the
parent commit to re-check a claim on an unseen path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

SETUP_REPEATS = 3
TICKS_PER_DAY = 28_800
# ROADMAP baseline process and shock seed; everything else is the
# program's default config.
SYNTH = ("--phi", "0.15", "--omega", "2e-8", "--alpha", "0.08", "--beta", "0.88")
BASELINE_SEED = 3
# The benchmark seed picks the start price of the synthetic path. That
# changes every price, quote, position size, trade and output, but leaves
# the log returns, and so the optimizers' work, as they are: a different
# shock seed moved the GARCH fit's iteration count, and the run time, by up
# to half, more than any bound could absorb. 3000 is the ROADMAP baseline.
START_PRICES = ("3000", "2500", "3500", "4000")
G_ONLY_INI = "[strategy]\nuse_vpin = false\nuse_svm = false\n"
SIGNALS_DAYS = 5
TAGS = ("G", "GS", "GV", "GVS")


@dataclass(frozen=True)
class Step:
    """One CLI command. In args, `{out}` is the output directory, `{seed}`
    and `{price}` the synthetic path's, and `{<file>}` an input file."""

    args: tuple[str, ...]
    outputs: tuple[str, ...] = ()   # compared with the reference
    present: tuple[str, ...] = ()   # only have to exist


@dataclass(frozen=True)
class Workload:
    steps: tuple[Step, ...]
    inputs: tuple[tuple[str, int, int], ...]  # (file, shock seed offset, days)
    config: str | None = None


def _generate(days: int, seed: str, output: str) -> tuple[str, ...]:
    return ("generate", "--seed", seed, "--start-price", "{price}",
            "--count", str(days * TICKS_PER_DAY), *SYNTH, "-o", output)


# Why each workload exists is in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "variants": Workload(
        (Step(("backtest", "--variants", "{ticks.csv}"),
              ("report.csv",) + tuple(f"{kind}_{tag}.csv" for tag in TAGS
                                      for kind in ("trades", "equity", "signals")),
              tuple(f"equity_{tag}.svg" for tag in TAGS)),),
        inputs=(("ticks.csv", 0, 8),)),
    "backtest_g": Workload(
        (Step(("backtest", "{ticks.csv}"),
              ("report.csv", "trades_G.csv", "equity_G.csv", "signals_G.csv"),
              ("equity_G.svg",)),),
        inputs=(("ticks.csv", 0, 8),), config=G_ONLY_INI),
    "signals": Workload(
        (Step(_generate(SIGNALS_DAYS, "{seed}", "{out}/ticks.csv"), ("ticks.csv",)),
         Step(("vpin", "{out}/ticks.csv"), ("vpin.csv",), ("vpin.svg",)),
         Step(("garch", "{out}/ticks.csv"), ("garch.csv",)),
         Step(("diagnose", "{a.csv}", "--granger", "{b.csv}"), ("diagnostics.csv",))),
        inputs=(("a.csv", 0, 1), ("b.csv", 1, 1))),
}


@dataclass
class Command:
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]


@dataclass
class Rep:
    commands: list[Command] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.commands)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.commands)


def run_command(argv: list[str], env: dict, log) -> Command:
    """Run one process to completion; wall, user+sys CPU and peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log, cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = [] if proc.returncode == 0 else \
        [f"{' '.join(argv[-3:])}: exit code {proc.returncode}"]
    return Command(wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss * 1024 / 1e6, problems)


class Runner:
    def __init__(self, name: str, data_seed: int, price: str, record: bool) -> None:
        self.name = name
        self.wl = WORKLOADS[name]
        self.data_seed = data_seed
        self.price = price
        self.key = f"{name}-{data_seed}-{price}"
        self.recording = record
        self.work = WORK / name
        self.inputs = self.work / "inputs"
        self.out = self.work / "out"
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.manifest = None if record else check.load_manifest(self.key)
        self.recorded: dict[str, Path] = {}
        self.reps = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _argv(self, step_args, spans_to: Path | None) -> list[str]:
        subs = {"out": str(self.out), "seed": str(self.data_seed), "price": self.price}
        subs.update({name: str(self.inputs / name) for name, _, _ in self.wl.inputs})
        args = []
        for arg in step_args:
            for key, val in subs.items():
                arg = arg.replace("{" + key + "}", val)
            args.append(arg)
        head = ["--out", str(self.out)]
        if self.wl.config:
            head += ["--config", str(self.work / "config.ini")]
        if spans_to is None:
            return [sys.executable, "-m", "microstrat.cli", *head, *args]
        return [sys.executable, str(BENCH / "tracer.py"), str(spans_to),
                f"{self.key}-{self.reps}", "--", *head, *args]

    def _judge(self, cmd: Command, files: dict[str, Path], present: list[Path]) -> None:
        """Fold one command's exit code and output check into the counts."""
        self.attempted += 1
        for path in present:
            if not path.is_file():
                cmd.problems.append(f"{path.name}: missing")
        for name, path in files.items():
            if self.recording:
                self.recorded[name] = path
            elif self.manifest is None:
                cmd.problems.append(f"no reference {self.key}; record one with "
                                    "--record on the parent commit")
            elif name not in self.manifest:
                cmd.problems.append(f"{name}: not in the reference")
            else:
                problem = check.check_file(name, path, self.manifest[name])
                if problem:
                    cmd.problems.append(problem)
        if cmd.problems:
            self.failed += 1
            self.problems.extend(cmd.problems)

    def _run(self, args, traced: bool, traces: list[list[dict]], log) -> Command:
        spans_to = self.work / "spans.json"
        spans_to.unlink(missing_ok=True)
        cmd = run_command(self._argv(args, spans_to if traced else None), self.env, log)
        if traced and spans_to.exists():
            traces.append(json.loads(spans_to.read_text()))
        return cmd

    def setup(self, log, traced: bool) -> tuple[float, list[list[dict]]]:
        """Write the input files; seconds taken and spans."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self.out.mkdir(parents=True, exist_ok=True)
        if self.wl.config:
            (self.work / "config.ini").write_text(self.wl.config)
        traces: list[list[dict]] = []
        total = 0.0
        for name, offset, days in self.wl.inputs:
            cmd = self._run(_generate(days, str(self.data_seed + offset),
                                      str(self.inputs / name)), traced, traces, log)
            total += cmd.wall_s
            self._judge(cmd, {name: self.inputs / name}, [])
        return total, traces

    def rep(self, log, traced: bool, setup_traces: list[list[dict]]) -> Rep:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.reps += 1
        rep = Rep()
        traces = list(setup_traces)
        for step in self.wl.steps:
            cmd = self._run(step.args, traced, traces, log)
            rep.commands.append(cmd)
            self._judge(cmd, {name: self.out / name for name in step.outputs},
                        [self.out / name for name in step.present]
                        + [self.out / "resolved_config.json"])
            if cmd.problems:
                break
        if traced:
            rep.layers = spans.layer_metrics(traces)
            rep.layers["cli.outputs.mb"] = sum(
                p.stat().st_size for p in self.out.iterdir() if p.is_file()) / 1e6
        return rep


def _median(values) -> float:
    return float(statistics.median(values))


def provenance(runner: Runner, seed: int, seconds: float) -> dict:
    import numpy
    import scipy

    git = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        git = res.stdout.strip() or None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    threads = {var: os.environ.get(var) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    threads["openblas_runtime"] = _openblas_threads()
    files = {name: (runner.inputs / name, runner.data_seed + offset, days)
             for name, offset, days in runner.wl.inputs}
    if runner.name == "signals":
        files["ticks.csv"] = (runner.out / "ticks.csv", runner.data_seed, SIGNALS_DAYS)
    inputs = {name: {"days": days, "ticks": days * TICKS_PER_DAY, "seed": s,
                     "start_price": float(runner.price),
                     "bytes": path.stat().st_size if path.exists() else None}
              for name, (path, s, days) in files.items()}
    return {"workload": runner.name, "seed": seed,
            "data_seed": runner.data_seed, "start_price": float(runner.price),
            "seconds": seconds, "git_commit": git, "src_digest": _src_digest(),
            "inputs": inputs, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": threads, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loop": "closed, one client, one process per command"}


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, as found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            try:
                return int(getattr(ctypes.CDLL(lib), sym)())
            except (OSError, AttributeError):
                continue
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _unit(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_ms"):
        return "ms"
    if last == "s" or last.endswith("_s"):
        return "s"
    if last == "mb":
        return "MB"
    if last.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--data-seed", type=int, default=BASELINE_SEED,
                    help="shock seed of the synthetic path (default: baseline)")
    ap.add_argument("--record", action="store_true",
                    help="store the outputs as references instead of checking")
    args = ap.parse_args(argv)
    if not (SRC / "microstrat" / "cli.py").is_file():
        print(f"error: {SRC / 'microstrat'} not found; run from a microstrat checkout",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.data_seed,
                    START_PRICES[args.seed % len(START_PRICES)], args.record)
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir(parents=True)
    traced = bool(args.trace)
    setups: list[float] = []
    plain: list[Rep] = []
    with_trace: list[Rep] = []
    with open(runner.work / "commands.log", "w") as log:
        for _ in range(1 if traced else SETUP_REPEATS):
            secs, setup_traces = runner.setup(log, traced)
            setups.append(secs)
        begin = time.perf_counter()
        while True:
            plain.append(runner.rep(log, False, []))
            if traced:
                with_trace.append(runner.rep(log, True, setup_traces))
            if runner.failed or time.perf_counter() - begin >= args.seconds:
                break
    if args.record and not runner.failed:
        check.record(runner.key, runner.recorded)

    if traced:
        values = {k: _median([r.layers[k] for r in with_trace])
                  for k in with_trace[0].layers}
        values["trace.overhead_s"] = (_median([r.wall_s for r in with_trace])
                                      - _median([r.wall_s for r in plain]))
        # the percentile each tail_ms sits at goes with the record, not the
        # metrics: it has no better or worse direction
        tails = {k: values.pop(k) for k in list(values) if k.endswith(".tail_pct")}
        units = {k: _unit(k) for k in values}
    else:
        values = {"run_s": _median([r.wall_s for r in plain]),
                  "cpu_s": _median([r.cpu_s for r in plain]),
                  "peak_rss_mb": _median([r.rss_mb for r in plain]),
                  "setup_s": _median(setups)}
        units = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        tails = {}
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in values}
    failed_frac = runner.failed / runner.attempted
    full = {"provenance": provenance(runner, args.seed, args.seconds),
            "samples": {"setup_s": setups,
                        "run_s": [r.wall_s for r in plain],
                        "cpu_s": [r.cpu_s for r in plain],
                        "peak_rss_mb": [r.rss_mb for r in plain],
                        "traced_run_s": [r.wall_s for r in with_trace]},
            "failed_frac": failed_frac, "problems": runner.problems,
            "metrics": metrics, "tail_percentiles": tails}
    (runner.work / "result.json").write_text(json.dumps(full, indent=1) + "\n")

    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:14.6f} {m['unit']}")
    for k, pct in tails.items():
        print(f"{k:40s} {pct:14.6f} %")
    print(f"{'failed_frac':40s} {failed_frac:14.6f} ratio "
          f"({runner.failed} of {runner.attempted} commands)")
    print(f"samples: {len(setups)} set-ups, {len(plain)} untraced and "
          f"{len(with_trace)} traced repetitions")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(json.dumps(full["provenance"], sort_keys=True))
    ok = runner.failed == 0
    print(json.dumps({"correct": ok and not args.record,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
