"""Run configuration shared by every subcommand.

One INI file drives the whole pipeline. Sections mirror the modules they
feed (``data``, ``vpin``, ``garch``, ``svm``, ``strategy``, ``backtest``,
``output``); defaults are pulled from the dataclasses themselves so the
file and the code cannot drift apart. Unknown sections or keys abort the
load, and the fully-resolved values serialize to stable JSON so every run
can log exactly what it ran with.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass

from .backtest import CostModel, EngineConfig
from .errors import ConfigError
from .marketdata import SynthSpec
from .strategy import StrategyConfig
from .svm import DEFAULT_TOL
from .volatility import GarchSpec

_SYNTH = SynthSpec()
_STRAT = StrategyConfig()
_ENGINE = EngineConfig()
_COSTS = CostModel()

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _bool(raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"not a boolean: {raw!r}") from None


def _opt_float(raw: str) -> float | None:
    return None if raw.strip() == "" else float(raw)


# section -> key -> (parser, default); order here is the --help order
_SCHEMA: dict[str, dict[str, tuple]] = {
    "data": {
        "seed": (int, _SYNTH.seed),
        "count": (int, _SYNTH.count),
        "omega": (float, _SYNTH.omega),
        "alpha": (float, _SYNTH.alpha),
        "beta": (float, _SYNTH.beta),
        "mu": (float, _SYNTH.mu),
        "phi": (float, _SYNTH.phi),
        "start_price": (float, _SYNTH.start_price),
        "tick_interval_ms": (int, _SYNTH.tick_interval_ms),
        "spread": (float, _SYNTH.spread),
        "volume_log_mean": (float, _SYNTH.volume_log_mean),
        "volume_log_sigma": (float, _SYNTH.volume_log_sigma),
        "start_day": (int, _SYNTH.start_day),
    },
    "vpin": {
        "buckets_per_day": (int, _ENGINE.buckets_per_day),
        "window": (int, _ENGINE.vpin_window),
    },
    "garch": {
        "p": (int, _ENGINE.garch_spec.p),
        "q": (int, _ENGINE.garch_spec.q),
        "leverage": (_bool, _ENGINE.garch_spec.leverage),
        "mean_model": (str, _ENGINE.garch_spec.mean_model),
    },
    "svm": {
        "c": (float, _ENGINE.svm_c),
        "kernel_sigma": (float, _ENGINE.svm_kernel_sigma),
        "tol": (float, DEFAULT_TOL),
        "min_rows": (int, _ENGINE.svm_min_rows),
        "max_rows": (int, _ENGINE.svm_max_rows),
    },
    "strategy": {
        "delta1_lo": (float, _STRAT.delta1_lo),
        "delta1_hi": (float, _STRAT.delta1_hi),
        "delta1_step": (float, _STRAT.delta1_step),
        "delta2": (float, _STRAT.delta2),
        "delta3": (float, _STRAT.delta3),
        "fluct_hi": (float, _STRAT.fluct_hi),
        "fluct_lo": (float, _STRAT.fluct_lo),
        "basket_delay": (int, _STRAT.basket_delay),
        "position_fraction": (float, _STRAT.position_fraction),
        "size_reduce": (float, _STRAT.size_reduce),
        "size_boost": (float, _STRAT.size_boost),
        "size_cap": (float, _STRAT.size_cap),
        "stop_loss_sigmas": (float, _STRAT.stop_loss_sigmas),
        "use_vpin": (_bool, _STRAT.use_vpin),
        "use_svm": (_bool, _STRAT.use_svm),
    },
    "backtest": {
        "capital": (float, _COSTS.capital),
        "margin_rate": (float, _COSTS.margin_rate),
        "fee_rate": (float, _COSTS.fee_rate),
        "multiplier": (float, _COSTS.multiplier),
        "tick_size": (float, _COSTS.tick_size),
        "maintenance_rate": (_opt_float, _COSTS.maintenance_rate),
        "bar_interval_ns": (int, _ENGINE.bar_interval_ns),
        "warmup_days": (int, _ENGINE.warmup_days),
        "garch_window": (int, _ENGINE.garch_window),
        "garch_refit_every": (int, _ENGINE.garch_refit_every),
        "garch_min_obs": (int, _ENGINE.garch_min_obs),
        "delta1_every": (int, _ENGINE.delta1_every),
        "delta1_window": (int, _ENGINE.delta1_window),
        "initial_delta1": (float, _ENGINE.initial_delta1),
        "sigma_window": (int, _ENGINE.sigma_window),
        "trading_days_per_year": (int, _ENGINE.trading_days_per_year),
    },
    "output": {
        "dir": (str, "out"),
        "plots": (_bool, True),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved configuration; builders hand out the module objects."""

    values: dict

    def get(self, section: str, key: str):
        return self.values[section][key]

    @property
    def seed(self) -> int:
        return self.values["data"]["seed"]

    @property
    def out_dir(self) -> str:
        return self.values["output"]["dir"]

    @property
    def plots(self) -> bool:
        return self.values["output"]["plots"]

    def synth_spec(self) -> SynthSpec:
        return SynthSpec(**self.values["data"])

    def garch_spec(self) -> GarchSpec:
        g = self.values["garch"]
        return GarchSpec(p=g["p"], q=g["q"], leverage=g["leverage"],
                         mean_model=g["mean_model"])

    def strategy_config(self, **overrides) -> StrategyConfig:
        return StrategyConfig(**{**self.values["strategy"], **overrides})

    def cost_model(self) -> CostModel:
        b = self.values["backtest"]
        return CostModel(capital=b["capital"], margin_rate=b["margin_rate"],
                         fee_rate=b["fee_rate"], multiplier=b["multiplier"],
                         tick_size=b["tick_size"],
                         maintenance_rate=b["maintenance_rate"])

    def engine_config(self) -> EngineConfig:
        b = self.values["backtest"]
        s = self.values["svm"]
        v = self.values["vpin"]
        return EngineConfig(bar_interval_ns=b["bar_interval_ns"],
                            warmup_days=b["warmup_days"],
                            garch_spec=self.garch_spec(),
                            garch_window=b["garch_window"],
                            garch_refit_every=b["garch_refit_every"],
                            garch_min_obs=b["garch_min_obs"],
                            delta1_every=b["delta1_every"],
                            delta1_window=b["delta1_window"],
                            initial_delta1=b["initial_delta1"],
                            sigma_window=b["sigma_window"],
                            buckets_per_day=v["buckets_per_day"],
                            vpin_window=v["window"],
                            svm_kernel_sigma=s["kernel_sigma"],
                            svm_c=s["c"],
                            svm_tol=s["tol"],
                            svm_min_rows=s["min_rows"],
                            svm_max_rows=s["max_rows"],
                            trading_days_per_year=b["trading_days_per_year"])

    def with_overrides(self, overrides: dict) -> RunConfig:
        """New config with ``{(section, key): value}`` applied; None skipped."""
        values = {sect: dict(keys) for sect, keys in self.values.items()}
        for (sect, key), val in overrides.items():
            if val is None:
                continue
            if sect not in _SCHEMA or key not in _SCHEMA[sect]:
                raise ConfigError(f"unknown config key [{sect}] {key}")
            values[sect][key] = val
        return RunConfig(values)

    def to_json(self) -> str:
        return json.dumps(self.values, indent=2, sort_keys=True) + "\n"


def default_config() -> RunConfig:
    return RunConfig({sect: {key: default for key, (_, default) in keys.items()}
                      for sect, keys in _SCHEMA.items()})


def load_config(path: str | None) -> RunConfig:
    """Defaults, overlaid with an INI file when one is given.

    Unknown sections or keys are rejected by name so a typo cannot silently
    fall back to a default.
    """
    cfg = default_config()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    values = {sect: dict(keys) for sect, keys in cfg.values.items()}
    for sect in parser.sections():
        if sect not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{sect}]")
        for key, raw in parser.items(sect):
            if key not in _SCHEMA[sect]:
                raise ConfigError(f"{path}: unknown key [{sect}] {key}")
            parse = _SCHEMA[sect][key][0]
            try:
                values[sect][key] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for [{sect}] {key}: {raw!r}"
                                ) from exc
    return RunConfig(values)


def config_key_help() -> list[str]:
    """One ``section.key = default`` line per key, in schema order."""
    lines = []
    for sect, keys in _SCHEMA.items():
        for key, (_, default) in keys.items():
            shown = "" if default is None else default
            lines.append(f"  {sect}.{key} = {shown}")
    return lines
