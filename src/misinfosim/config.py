"""INI configuration for experiments and simulations.

Sections (all optional unless a command needs them):

    [dataset]   interactions=..., labels=...   paths to TSV files
    [synth]     users, items, mean_profile_size, misinfo_item_fraction,
                popularity_exponent, misinfo_popularity_boost, seed
    [ratios]    ratios = none, 1/5, 1/2, 4/5
    [grid.mf]   factors, lambda, iters (comma lists), alpha, init_scale
    [grid.ub]   k, sim, q (comma lists)
    [grid.ib]   k, sim, q (comma lists)
    [metrics]   cutoffs = 5, 10, 20
    [sim]       cycles, accept, schedule, probes (comma lists of
                recommender kinds, run at their typical settings)

Exactly one of [dataset] and [synth] selects where interactions come from.
"""

from __future__ import annotations

import configparser
import os
from typing import Callable, Optional, Sequence, TypeVar

from .dataset import Dataset, load_dataset
from .errors import ConfigError
from .experiment import (
    DEFAULT_CUTOFFS,
    DEFAULT_RATIOS,
    ExperimentConfig,
    knn_grid,
    mf_grid,
    typical_grid,
)
from .profiles import RatioSpec
from .recommenders import RecommenderConfig
from .similarity import SimilarityKind
from .simulate import SimConfig
from .synth import SynthConfig, generate_synthetic

T = TypeVar("T")


def load_config(path: str) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parser


def _split(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _parse_list(raw: str, convert: Callable[[str], T], what: str) -> list[T]:
    tokens = _split(raw)
    if not tokens:
        raise ConfigError(f"{what} must list at least one value")
    try:
        values = [convert(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"bad {what} value: {exc}") from exc
    _reject_repeats(tokens, values, what)
    return values


def _reject_repeats(tokens: Sequence[str], values: Sequence, what: str) -> None:
    """A repeated value would repeat report rows; parsed values compare, so 1/5 equals 0.2."""
    for idx, value in enumerate(values):
        if value in values[:idx]:
            raise ConfigError(f"{what} lists the value {tokens[idx]!r} more than once")


def _value(section: configparser.SectionProxy, key: str, convert: Callable[[str], T]) -> T:
    try:
        return convert(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {section.name}.{key}: {exc}") from exc


def _get(section: configparser.SectionProxy, key: str, convert: Callable[[str], T], default: T) -> T:
    return _value(section, key, convert) if key in section else default


def synth_config(parser: configparser.ConfigParser) -> SynthConfig:
    if not parser.has_section("synth"):
        raise ConfigError("config has no [synth] section")
    sec = parser["synth"]
    cfg = SynthConfig(
        user_count=_get(sec, "users", int, 0),
        item_count=_get(sec, "items", int, 0),
        mean_profile_size=_get(sec, "mean_profile_size", float, 0.0),
        misinfo_item_fraction=_get(sec, "misinfo_item_fraction", float, 0.0),
        popularity_exponent=_get(sec, "popularity_exponent", float, 1.0),
        misinfo_popularity_boost=_get(sec, "misinfo_popularity_boost", float, 1.0),
        seed=_get(sec, "seed", int, 0),
    )
    cfg.validate()
    return cfg


def resolve_dataset(parser: configparser.ConfigParser) -> Dataset:
    """Load the configured dataset, from files or by synthesis."""
    has_files = parser.has_section("dataset")
    has_synth = parser.has_section("synth")
    if has_files and has_synth:
        raise ConfigError("config sets both [dataset] and [synth]; pick one")
    if has_files:
        sec = parser["dataset"]
        for key in ("interactions", "labels"):
            if key not in sec:
                raise ConfigError(f"[dataset] is missing the {key!r} path")
        return load_dataset(sec["interactions"], sec["labels"])
    if has_synth:
        return generate_synthetic(synth_config(parser))
    raise ConfigError("config needs a [dataset] or [synth] section")


def ratios_config(parser: configparser.ConfigParser) -> tuple[RatioSpec, ...]:
    raw: Sequence[str] = DEFAULT_RATIOS
    if parser.has_section("ratios") and "ratios" in parser["ratios"]:
        raw = _split(parser["ratios"]["ratios"])
        if not raw:
            raise ConfigError("[ratios] ratios must list at least one value")
    ratios = tuple(RatioSpec.parse(tok) for tok in raw)
    _reject_repeats(raw, ratios, "[ratios] ratios")
    return ratios


def cutoffs_config(parser: configparser.ConfigParser) -> tuple[int, ...]:
    if parser.has_section("metrics") and "cutoffs" in parser["metrics"]:
        cutoffs = tuple(_parse_list(parser["metrics"]["cutoffs"], int, "[metrics] cutoffs"))
        if any(c < 1 for c in cutoffs):
            raise ConfigError("[metrics] cutoffs must be positive")
        return cutoffs
    return DEFAULT_CUTOFFS


def _mf_section(parser: configparser.ConfigParser, seed: int) -> list[RecommenderConfig]:
    args: dict = {}
    if parser.has_section("grid.mf"):
        sec = parser["grid.mf"]
        for key, arg, convert in (
            ("factors", "factors", int), ("lambda", "regularizations", float), ("iters", "iterations", int)
        ):
            if key in sec:
                args[arg] = _parse_list(sec[key], convert, f"grid.mf {key}")
        for key in ("alpha", "init_scale"):
            if key in sec:
                args[key] = _value(sec, key, float)
    return mf_grid(seed=seed, **args)  # keys the INI leaves out keep mf_grid's defaults


def _knn_section(parser: configparser.ConfigParser, kind: str, seed: int) -> list[RecommenderConfig]:
    section = f"grid.{kind.lower()}"
    args: dict = {}
    if parser.has_section(section):
        sec = parser[section]
        for key, arg, convert in (
            ("k", "neighbor_counts", int), ("sim", "similarities", SimilarityKind.parse), ("q", "exponents", int)
        ):
            if key in sec:
                args[arg] = _parse_list(sec[key], convert, f"{section} {key}")
    return knn_grid(kind, seed=seed, **args)  # keys the INI leaves out keep knn_grid's defaults


def grid_config(
    parser: configparser.ConfigParser, seed: int, typical_only: bool = False
) -> tuple[RecommenderConfig, ...]:
    if typical_only:
        return tuple(typical_grid(seed=seed))
    grid = _mf_section(parser, seed)
    grid += _knn_section(parser, "UB", seed)
    grid += _knn_section(parser, "IB", seed)
    grid.append(RecommenderConfig(kind="Rnd", seed=seed))
    grid.append(RecommenderConfig(kind="Pop", seed=seed))
    return tuple(grid)


def experiment_config(
    parser: configparser.ConfigParser, seed: int, typical_only: bool = False
) -> ExperimentConfig:
    return ExperimentConfig(
        ratios=ratios_config(parser),
        recommenders=grid_config(parser, seed, typical_only),
        cutoffs=cutoffs_config(parser),
        master_seed=seed,
    )


def _kind_schedule(tokens: Sequence[str], seed: int, what: str) -> tuple[RecommenderConfig, ...]:
    by_kind = {cfg.kind: cfg for cfg in typical_grid(seed=seed)}
    out = []
    for tok in tokens:
        if tok not in by_kind:
            raise ConfigError(f"{what} lists unknown recommender {tok!r}")
        out.append(by_kind[tok])
    return tuple(out)


def sim_config(parser: configparser.ConfigParser, seed: int) -> SimConfig:
    if not parser.has_section("sim"):
        raise ConfigError("config has no [sim] section")
    sec = parser["sim"]
    cycles = _get(sec, "cycles", int, 1)
    accept = _get(sec, "accept", int, 3)
    if "schedule" not in sec:
        raise ConfigError("[sim] needs a schedule of recommender kinds")
    schedule = _kind_schedule(_split(sec["schedule"]), seed, "[sim] schedule")
    probes: Optional[tuple[RecommenderConfig, ...]] = None
    if "probes" in sec:
        probes = _kind_schedule(_split(sec["probes"]), seed, "[sim] probes")
    cfg = SimConfig(
        cycles=cycles,
        schedule=schedule,
        probes=probes,
        accept_count=accept,
        cutoffs=cutoffs_config(parser),
        master_seed=seed,
    )
    cfg.validate()
    return cfg
