"""Run configuration shared by every subcommand.

One INI file drives the whole pipeline. ``RunConfig`` holds the objects a
run is built from: the synthetic-data spec, the strategy, the cost model and
the engine (whose ``garch_spec`` holds ``[garch]``), plus the output
settings. ``KEYS`` is the one table that says which field each
``[section] key`` sets; sections that are exactly a dataclass (``[data]``,
``[garch]``, ``[strategy]`` and the cost half of ``[backtest]``) take their
keys from its fields. A key's default is its value on ``RunConfig()``, which
is not always its field's default: ``garch.mean_model`` is ``"ar1"`` from
``EngineConfig.garch_spec``, where ``GarchSpec()`` has ``"constant"``. Its
parser follows the field's annotation. The INI loader, ``to_dict``, the
``--help`` key list and the CLI flags (each stores under its
``section.key``) all read this table.

Unknown sections or keys abort the load. Each object is built, and so
validated, once with all of its new values, so checks across fields see the
final values and a bad value fails before any command runs. The resolved
values serialize to stable JSON, which the CLI logs with the command's own
options so every run records exactly what it ran with.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from operator import attrgetter

from .backtest import CostModel, EngineConfig
from .errors import ConfigError
from .marketdata import SynthSpec
from .strategy import StrategyConfig
from .volatility import GarchSpec

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _bool(raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"not a boolean: {raw!r}") from None


def _opt_float(raw: str) -> float | None:
    return None if raw.strip() == "" else float(raw)


# field annotation -> INI value parser
_PARSERS = {"int": int, "float": float, "bool": _bool, "str": str,
            "float | None": _opt_float}


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved configuration: the objects a run is built from."""

    synth: SynthSpec = SynthSpec()
    strategy: StrategyConfig = StrategyConfig()
    costs: CostModel = CostModel()
    engine: EngineConfig = EngineConfig()
    out_dir: str = "out"
    plots: bool = True

    def to_dict(self) -> dict[str, dict]:
        """Every key but ``output.dir`` by section: the log is written into
        that directory, and runs into different directories log the same
        bytes."""
        values: dict[str, dict] = {}
        for key, path in KEYS.items():
            if key == "output.dir":
                continue
            sect, name = key.split(".")
            values.setdefault(sect, {})[name] = attrgetter(path)(self)
        return values


_DEFAULTS = RunConfig()


def _fields_of(sect: str, owner: str, cls) -> dict[str, str]:
    return {f"{sect}.{f.name}": f"{owner}.{f.name}" for f in fields(cls)}


# "section.key" -> dotted path of the RunConfig field it sets; this order is
# the --help order
KEYS: dict[str, str] = {
    **_fields_of("data", "synth", SynthSpec),
    "vpin.buckets_per_day": "engine.buckets_per_day",
    "vpin.window": "engine.vpin_window",
    **_fields_of("garch", "engine.garch_spec", GarchSpec),
    "svm.c": "engine.svm_c",
    "svm.kernel_sigma": "engine.svm_kernel_sigma",
    "svm.tol": "engine.svm_tol",
    "svm.min_rows": "engine.svm_min_rows",
    "svm.max_rows": "engine.svm_max_rows",
    **_fields_of("strategy", "strategy", StrategyConfig),
    **_fields_of("backtest", "costs", CostModel),
    "backtest.bar_interval_ns": "engine.bar_interval_ns",
    "backtest.warmup_days": "engine.warmup_days",
    "backtest.garch_window": "engine.garch_window",
    "backtest.garch_refit_every": "engine.garch_refit_every",
    "backtest.garch_min_obs": "engine.garch_min_obs",
    "backtest.delta1_every": "engine.delta1_every",
    "backtest.delta1_window": "engine.delta1_window",
    "backtest.initial_delta1": "engine.initial_delta1",
    "backtest.sigma_window": "engine.sigma_window",
    "backtest.trading_days_per_year": "engine.trading_days_per_year",
    "output.dir": "out_dir",
    "output.plots": "plots",
}

_SECTIONS = {key.split(".")[0] for key in KEYS}


def _parser(path: str):
    owner, _, name = path.rpartition(".")
    obj = attrgetter(owner)(_DEFAULTS) if owner else _DEFAULTS
    return _PARSERS[next(f.type for f in fields(obj) if f.name == name)]


_PARSE = {key: _parser(path) for key, path in KEYS.items()}


def _build(values: dict) -> RunConfig:
    """The defaults with ``{"section.key": value}`` applied.

    Every object goes through one ``replace`` call holding all of its new
    values, which runs its validation on the final values. A NaN or infinite
    float fails first, by key: the objects' checks are comparisons, which
    NaN passes.
    """
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    by_path = {KEYS[key]: value for key, value in values.items()}

    def build(obj, prefix: str):
        new = {}
        for f in fields(obj):
            path = prefix + f.name
            if path in by_path:
                new[f.name] = by_path[path]
            elif is_dataclass(sub := getattr(obj, f.name)):
                new[f.name] = build(sub, path + ".")
        return replace(obj, **new)

    return build(_DEFAULTS, "")


def _read_ini(path: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    values = {}
    for sect in parser.sections():
        if sect not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{sect}]")
        for name, raw in parser.items(sect):
            key = f"{sect}.{name}"
            if key not in KEYS:
                raise ConfigError(f"{path}: unknown key [{sect}] {name}")
            try:
                values[key] = _PARSE[key](raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for [{sect}] {name}: {raw!r}"
                                  ) from exc
    return values


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Defaults, overlaid with an INI file when one is given, then with
    ``overrides`` (parsed values by ``section.key``, such as CLI flags).

    Unknown sections or keys are rejected by name so a typo cannot silently
    fall back to a default; a value its object rejects raises ``DataError``.
    """
    values = {} if path is None else _read_ini(path)
    values.update(overrides or {})
    return _build(values)


def config_key_help() -> list[str]:
    """One ``section.key = default`` line per key, in table order."""
    lines = []
    for key, path in KEYS.items():
        value = attrgetter(path)(_DEFAULTS)
        lines.append(f"  {key} = {'' if value is None else value}")
    return lines
