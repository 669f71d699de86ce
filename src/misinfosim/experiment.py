"""Grid experiments: run recommender configurations across profile ratios.

A grid run rebuilds the dataset at each requested misinformation ratio,
fits every configured recommender on the rebuilt data, and reports the
three exposure metrics at each cutoff. UB (or IB) configs of one similarity
run as one task that builds their neighborhood once, at their largest k.
Ratios that no user can satisfy produce an error row instead of aborting the
run. Rows are emitted in a canonical order so equal inputs give
byte-identical reports regardless of worker count.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .als import ALSConfig
from .dataset import Dataset
from .errors import ConfigError, DataError, MisinfoSimError
from .metrics import aggregate_report
from .profiles import RatioSpec, build_ratio_dataset
from .recommenders import (
    RecommenderConfig,
    build_recommender,
    parse_params_label,
    shared_neighborhoods,
)
from .similarity import NeighborhoodPrefixes, SimilarityKind

REPORT_CSV_HEADER = "ratio,rec,params,cutoff,MC,MRD,MG"
AGGREGATE_CSV_HEADER = "rec,level,ratio,MC@10"

DEFAULT_CUTOFFS = (5, 10, 20)
DEFAULT_RATIOS = ("none", "1/5", "1/2", "4/5")

_KIND_ORDER = {"MF": 0, "UB": 1, "IB": 2, "Rnd": 3, "Pop": 4}


@dataclass(frozen=True)
class ExperimentConfig:
    ratios: tuple[RatioSpec, ...]
    recommenders: tuple[RecommenderConfig, ...]
    cutoffs: tuple[int, ...] = DEFAULT_CUTOFFS
    master_seed: int = 0

    def validate(self) -> None:
        if not self.ratios:
            raise ConfigError("no ratios configured")
        if not self.recommenders:
            raise ConfigError("no recommenders configured")
        if not self.cutoffs or any(c < 1 for c in self.cutoffs):
            raise ConfigError("cutoffs must be positive")
        for rc in self.recommenders:
            rc.validate()


@dataclass(frozen=True)
class ResultRow:
    ratio: str
    rec: str
    params: str
    cutoff: Optional[int]
    mc: Optional[float] = None
    mrd: Optional[float] = None
    mg: Optional[float] = None
    error: Optional[str] = None


def mf_grid(
    factors: Sequence[int] = (20, 50, 100),
    regularizations: Sequence[float] = (0.1, 0.01),
    iterations: Sequence[int] = (20, 100),
    alpha: float = 40.0,
    init_scale: float = 0.1,
    seed: int = 0,
) -> list[RecommenderConfig]:
    out = []
    for f in factors:
        for reg in regularizations:
            for iters in iterations:
                als = ALSConfig(
                    factors=f,
                    regularization=reg,
                    iterations=iters,
                    alpha=alpha,
                    init_scale=init_scale,
                    seed=seed,
                )
                out.append(RecommenderConfig(kind="MF", seed=seed, als=als))
    return out


def knn_grid(
    kind: str,
    neighbor_counts: Sequence[int] = (10, 50, 100),
    similarities: Sequence[SimilarityKind] = tuple(SimilarityKind),
    exponents: Sequence[int] = (1, 2, 3),
    seed: int = 0,
) -> list[RecommenderConfig]:
    if kind not in ("UB", "IB"):
        raise ValueError(f"knn_grid kind must be UB or IB, got {kind!r}")
    return [
        RecommenderConfig(kind=kind, neighbors=k, similarity=sim, exponent=q, seed=seed)
        for k in neighbor_counts
        for sim in similarities
        for q in exponents
    ]


def typical_grid(seed: int = 0, alpha: float = 40.0, init_scale: float = 0.1) -> list[RecommenderConfig]:
    """One representative configuration per recommender family."""
    als = ALSConfig(
        factors=50, regularization=0.1, iterations=20, alpha=alpha, init_scale=init_scale, seed=seed
    )
    return [
        RecommenderConfig(kind="MF", seed=seed, als=als),
        RecommenderConfig(kind="UB", neighbors=50, similarity=SimilarityKind.PEARSON, exponent=1, seed=seed),
        RecommenderConfig(kind="IB", neighbors=50, similarity=SimilarityKind.PEARSON, exponent=1, seed=seed),
        RecommenderConfig(kind="Rnd", seed=seed),
        RecommenderConfig(kind="Pop", seed=seed),
    ]


def _config_rows(
    ratio_label: str,
    ds_r: Dataset,
    rec_cfg: RecommenderConfig,
    cutoffs: tuple[int, ...],
    shared: Optional[NeighborhoodPrefixes],
) -> list[ResultRow]:
    label = rec_cfg.params_label()
    try:
        rec = build_recommender(rec_cfg, shared).fit(ds_r)
        lists = rec.recommend_all(max(cutoffs))
        rows = []
        for cutoff in cutoffs:
            rep = aggregate_report(ds_r, lists, cutoff)
            rows.append(
                ResultRow(
                    ratio=ratio_label,
                    rec=rec_cfg.kind,
                    params=label,
                    cutoff=cutoff,
                    mc=rep.mc,
                    mrd=rep.mrd,
                    mg=rep.mg,
                )
            )
        return rows
    except MisinfoSimError as exc:
        message = f"{rec_cfg.kind}[{label}]: {exc}"
        return [ResultRow(ratio=ratio_label, rec="error", params=message, cutoff=None, error=message)]


def _run_cell(args: tuple) -> list[ResultRow]:
    """One pool task: a single config, or UB/IB configs that share one neighborhood build."""
    ratio_label, ds_r, rec_cfgs, cutoffs = args
    shared = shared_neighborhoods(ds_r, rec_cfgs) if len(rec_cfgs) > 1 else None
    return [row for rc in rec_cfgs for row in _config_rows(ratio_label, ds_r, rc, cutoffs, shared)]


def _tasks(recommenders: Sequence[RecommenderConfig]) -> list[tuple[RecommenderConfig, ...]]:
    """UB (or IB) configs of one similarity form one task; every other config is its own."""
    tasks: dict[object, list[RecommenderConfig]] = {}
    for idx, rc in enumerate(recommenders):
        key = (rc.kind, rc.similarity) if rc.kind in ("UB", "IB") else idx
        tasks.setdefault(key, []).append(rc)
    return [tuple(configs) for configs in tasks.values()]


def run_grid(ds: Dataset, cfg: ExperimentConfig, workers: int = 1) -> list[ResultRow]:
    """Run every (ratio, recommender) cell; rows come back canonically sorted.

    `workers` > 1 fans tasks out to a process pool. The result is
    independent of worker count.
    """
    cfg.validate()
    if workers < 1:
        raise ConfigError("workers must be at least 1")

    indexed_rows: list[tuple[int, ResultRow]] = []
    cells: list[tuple[int, tuple]] = []
    tasks = _tasks(cfg.recommenders)
    for ridx, ratio in enumerate(cfg.ratios):
        label = ratio.label()
        try:
            ds_r = build_ratio_dataset(ds, ratio, cfg.master_seed)
        except DataError as exc:
            message = f"ratio {label} unattainable: {exc}"
            indexed_rows.append(
                (ridx, ResultRow(ratio=label, rec="error", params=message, cutoff=None, error=message))
            )
            continue
        for configs in tasks:
            cells.append((ridx, (label, ds_r, configs, cfg.cutoffs)))
    cells.sort(key=lambda cell: len(cell[1][2]), reverse=True)  # longest first; sort is stable

    if workers == 1 or len(cells) <= 1:
        produced = [_run_cell(args) for _, args in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            produced = list(pool.map(_run_cell, [args for _, args in cells], chunksize=1))
    for (ridx, _), rows in zip(cells, produced):
        indexed_rows.extend((ridx, row) for row in rows)

    def sort_key(entry: tuple[int, ResultRow]):
        ridx, row = entry
        return (
            ridx,
            _KIND_ORDER.get(row.rec, len(_KIND_ORDER)),
            row.params,
            row.cutoff if row.cutoff is not None else -1,
        )

    indexed_rows.sort(key=sort_key)
    return [row for _, row in indexed_rows]


def _sanitize(text: str) -> str:
    return text.replace(",", ";").replace("\n", " ")


def _row_fields(row: ResultRow) -> tuple[str, ...]:
    if row.error is not None:
        return (row.ratio, "error", _sanitize(row.params), "", "", "", "")
    assert row.cutoff is not None and row.mc is not None
    assert row.mrd is not None and row.mg is not None
    return (
        row.ratio,
        row.rec,
        row.params,
        str(row.cutoff),
        f"{row.mc:.3f}",
        f"{row.mrd:.3f}",
        f"{row.mg:.3f}",
    )


def emit_report(rows: Sequence[ResultRow], fmt: str = "csv") -> str:
    """Render result rows as `csv` or aligned `text`; metrics use 3 decimals."""
    if not rows:
        raise ValueError("no rows to report")
    header = REPORT_CSV_HEADER.split(",")
    table = [header] + [list(_row_fields(r)) for r in rows]
    return render_table(table, fmt)


def render_table(table: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        return "\n".join(",".join(fields) for fields in table) + "\n"
    if fmt == "text":
        widths = [max(len(row[col]) for row in table) for col in range(len(table[0]))]
        lines = ["  ".join(field.ljust(w) for field, w in zip(row, widths)).rstrip() for row in table]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


@dataclass(frozen=True)
class AggregateRow:
    rec: str
    level: str
    ratio: str
    mc: float


_SIZE_LEVELS = {
    "MF": {"100": "High", "50": "Med", "20": "Low"},
    "UB": {"100": "High", "50": "Med", "10": "Low"},
    "IB": {"100": "High", "50": "Med", "10": "Low"},
}
_SIZE_KEY = {"MF": "factors", "UB": "k", "IB": "k"}
_MF_ITER_LEVELS = {"100": "High", "20": "Low"}
_LEVEL_ORDER = {"High": 0, "Med": 1, "Low": 2, "q=1": 3, "q=2": 4, "q=3": 5}


def aggregate_levels(rows: Sequence[ResultRow], dimension: str, cutoff: int = 10) -> list[AggregateRow]:
    """Average the count-share metric into coarse model-capacity groups.

    dimension "size" groups MF by factor count and the neighborhood models
    by neighbor count into High/Med/Low; dimension "extra" groups MF by
    iteration count (High/Low) and the neighborhood models by their
    similarity exponent (q=1..). Rows outside the known grid values are
    skipped with a warning.
    """
    if dimension not in ("size", "extra"):
        raise ValueError(f"dimension must be 'size' or 'extra', got {dimension!r}")
    groups: dict[tuple[str, str, str], list[float]] = {}
    ratio_order: dict[str, int] = {}
    for row in rows:
        if row.error is not None or row.cutoff != cutoff or row.rec not in _SIZE_LEVELS:
            continue
        fields = parse_params_label(row.params)
        if dimension == "size":
            value = fields.get(_SIZE_KEY[row.rec], "")
            level = _SIZE_LEVELS[row.rec].get(value)
        elif row.rec == "MF":
            level = _MF_ITER_LEVELS.get(fields.get("iters", ""))
        else:
            level = f"q={fields.get('q', '')}" if fields.get("q", "") in ("1", "2", "3") else None
        if level is None:
            warnings.warn(
                f"row ({row.rec}, {row.params}) outside the known grid levels; skipped",
                stacklevel=2,
            )
            continue
        ratio_order.setdefault(row.ratio, len(ratio_order))
        assert row.mc is not None
        groups.setdefault((row.rec, level, row.ratio), []).append(row.mc)

    out = [
        AggregateRow(rec=rec, level=level, ratio=ratio, mc=sum(values) / len(values))
        for (rec, level, ratio), values in groups.items()
    ]
    out.sort(
        key=lambda r: (
            _KIND_ORDER.get(r.rec, len(_KIND_ORDER)),
            _LEVEL_ORDER.get(r.level, len(_LEVEL_ORDER)),
            ratio_order[r.ratio],
        )
    )
    return out


def emit_aggregate(rows: Sequence[AggregateRow], fmt: str = "csv") -> str:
    if not rows:
        raise ValueError("no aggregate rows to report")
    table = [AGGREGATE_CSV_HEADER.split(",")] + [
        [r.rec, r.level, r.ratio, f"{r.mc:.3f}"] for r in rows
    ]
    return render_table(table, fmt)
