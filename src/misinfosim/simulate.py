"""Closed feedback loop: recommend, accept the top few, refit, remeasure.

Each cycle one scheduled recommender is fit on the current dataset, every
user accepts their top `accept_count` recommendations, and the accepted
pairs become new interactions. A fixed set of probe recommenders is then
refit on the grown dataset and measured at the configured cutoffs, so the
probes can differ from the recommender that drove the growth. Cycle 0
reports the probes on the untouched dataset.

All per-cycle randomness is derived from the master seed and the cycle
number, so a run is reproducible end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset, DatasetStats, compute_stats
from .errors import ConfigError
from .metrics import DEFAULT_CUTOFFS, MetricReport, aggregate_report
from .recommenders import RecommenderConfig, fit_recommender
from .seeds import derive_seed


@dataclass(frozen=True)
class SimConfig:
    cycles: int
    schedule: tuple[RecommenderConfig, ...]
    probes: Optional[tuple[RecommenderConfig, ...]] = None
    accept_count: int = 3
    cutoffs: tuple[int, ...] = DEFAULT_CUTOFFS
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ConfigError("cycles must be at least 1")
        if self.accept_count < 1:
            raise ConfigError("accept_count must be at least 1")
        if len(self.schedule) < self.cycles:
            raise ConfigError(
                f"schedule lists {len(self.schedule)} recommenders but {self.cycles} cycles were requested"
            )
        if not self.cutoffs or any(c < 1 for c in self.cutoffs):
            raise ConfigError("cutoffs must be positive")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        if not self.resolved_probes():
            raise ConfigError("no probe recommenders resolved")

    def resolved_probes(self) -> tuple[RecommenderConfig, ...]:
        """Probes default to the distinct scheduled recommenders, in order."""
        if self.probes is not None:
            return self.probes
        seen: list[RecommenderConfig] = []
        for cfg in self.schedule[: self.cycles]:
            if not any(c.kind == cfg.kind and c.params_label() == cfg.params_label() for c in seen):
                seen.append(cfg)
        return tuple(seen)


@dataclass(frozen=True)
class CycleReport:
    cycle: int
    stats: DatasetStats
    new_interactions: int
    metrics: tuple[tuple[RecommenderConfig, MetricReport], ...]


def run_cycle(
    ds: Dataset, rec_cfg: RecommenderConfig, accept_count: int, seed: int
) -> tuple[Dataset, dict[int, np.ndarray]]:
    """One growth step: everyone accepts their top `accept_count` items.

    Returns the grown dataset and the accepted items per user. Users whose
    candidate pool is exhausted simply accept nothing. The recommender is
    reseeded with `seed` before fitting.
    """
    if accept_count < 1:
        raise ConfigError("accept_count must be at least 1")
    rec = fit_recommender(ds, rec_cfg.reseeded(seed))
    accepted: dict[int, np.ndarray] = {}
    rows: list[int] = []
    cols: list[int] = []
    for lst in rec.recommend_all(accept_count):
        if len(lst) == 0:
            continue
        accepted[lst.user] = lst.items
        rows.extend([lst.user] * len(lst))
        cols.extend(int(i) for i in lst.items)
    return ds.with_added_interactions(rows, cols), accepted


def _measure(
    ds: Dataset,
    probes: tuple[RecommenderConfig, ...],
    cutoffs: tuple[int, ...],
    master_seed: int,
    cycle: int,
) -> tuple[tuple[RecommenderConfig, MetricReport], ...]:
    results = []
    top = max(cutoffs)
    for idx, probe in enumerate(probes):
        fitted = fit_recommender(ds, probe.reseeded(derive_seed(master_seed, cycle, idx + 1)))
        lists = fitted.recommend_all(top)
        for cutoff in cutoffs:
            results.append((probe, aggregate_report(ds, lists, cutoff)))
    return tuple(results)


def run_simulation(ds: Dataset, cfg: SimConfig) -> list[CycleReport]:
    """Run the loop for cfg.cycles cycles; element c of the result is the
    state after c growth steps (element 0 is the baseline)."""
    probes = cfg.resolved_probes()
    reports = []
    current = ds
    for cycle in range(cfg.cycles + 1):
        before = current.n_interactions
        if cycle:
            seed = derive_seed(cfg.master_seed, cycle, 0)
            current, _ = run_cycle(current, cfg.schedule[cycle - 1], cfg.accept_count, seed)
        reports.append(
            CycleReport(
                cycle=cycle,
                stats=compute_stats(current),
                new_interactions=current.n_interactions - before,
                metrics=_measure(current, probes, cfg.cutoffs, cfg.master_seed, cycle),
            )
        )
    return reports
