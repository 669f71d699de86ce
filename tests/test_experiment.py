import pickle
from collections import Counter
from configparser import ConfigParser

import numpy as np
import pytest

from misinfosim import (
    ALSConfig,
    ConfigError,
    RatioSpec,
    RecommenderConfig,
    SimilarityKind,
    UndefinedMetricError,
    aggregate_report,
    build_ratio_dataset,
    fit_recommender,
)
from misinfosim import experiment, recommenders
from misinfosim.config import grid_config
from misinfosim.similarity import NeighborhoodPrefixes
from misinfosim.experiment import (
    AGGREGATE_CSV_HEADER,
    REPORT_CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    aggregate_levels,
    emit_aggregate,
    emit_report,
    knn_grid,
    run_grid,
    typical_grid,
)

from conftest import make_dataset, random_dataset
from oracles import per_config_grid_rows


@pytest.fixture()
def grid_ds():
    return make_dataset(
        {
            "a": ["m0", "n0"],
            "b": ["m0", "n1"],
            "c": ["m1", "n0", "n1"],
            "d": ["n0", "n1", "n2"],
            "e": ["m0", "m1", "n2"],
        },
        misinfo=["m0", "m1"],
    )


SMALL_MF = RecommenderConfig(
    kind="MF", als=ALSConfig(factors=4, regularization=0.1, iterations=3, seed=0)
)
SMALL_UB = RecommenderConfig(kind="UB", neighbors=3, similarity=SimilarityKind.JACCARD)
RND = RecommenderConfig(kind="Rnd", seed=1)
POP = RecommenderConfig(kind="Pop")


# -- grids ------------------------------------------------------------------------


def test_full_grid_composition():
    grid = grid_config(ConfigParser(), 4)  # the grid `sweep` runs without [grid.*] sections
    assert len(grid) == 68
    counts = Counter(cfg.kind for cfg in grid)
    assert counts == {"MF": 12, "UB": 27, "IB": 27, "Rnd": 1, "Pop": 1}
    # MF axes: factors x lambda x iters
    mf_axes = {
        (c.als.factors, c.als.regularization, c.als.iterations)
        for c in grid
        if c.kind == "MF"
    }
    assert mf_axes == {(f, r, i) for f in (20, 50, 100) for r in (0.1, 0.01) for i in (20, 100)}
    ub_axes = {(c.neighbors, c.similarity, c.exponent) for c in grid if c.kind == "UB"}
    assert len(ub_axes) == 27


def test_typical_grid_is_one_per_family():
    grid = typical_grid()
    assert [c.kind for c in grid] == ["MF", "UB", "IB", "Rnd", "Pop"]
    mf = grid[0]
    assert (mf.als.factors, mf.als.regularization, mf.als.iterations) == (50, 0.1, 20)
    for c in grid[1:3]:
        assert (c.neighbors, c.similarity, c.exponent) == (50, SimilarityKind.PEARSON, 1)


def test_config_from_row_round_trips_every_grid_cell():
    """A report row's (rec, params) pair names exactly one cell of its grid.

    Report rows tell configurations apart only by that pair; ``params_label``
    alone is not enough, because UB and IB share labels.
    """
    for grid in (grid_config(ConfigParser(), 4), typical_grid(seed=4)):
        by_label = {(cfg.kind, cfg.params_label()): cfg for cfg in grid}
        assert len(by_label) == len(grid)
        for cfg in grid:
            assert by_label[cfg.kind, cfg.params_label()] is cfg


# -- run_grid ---------------------------------------------------------------------


def test_run_grid_shape_and_canonical_order(grid_ds):
    cfg = ExperimentConfig(
        ratios=(RatioSpec.parse("none"), RatioSpec.parse("1/2")),
        recommenders=(POP, SMALL_UB, RND),
        cutoffs=(2, 4),
    )
    rows = run_grid(grid_ds, cfg)
    assert len(rows) == 2 * 3 * 2
    assert all(row.error is None for row in rows)
    # ratios keep their configured order, kinds follow the fixed family order
    keys = [(r.ratio, r.rec, r.cutoff) for r in rows]
    assert keys == [
        ("none", "UB", 2),
        ("none", "UB", 4),
        ("none", "Rnd", 2),
        ("none", "Rnd", 4),
        ("none", "Pop", 2),
        ("none", "Pop", 4),
        ("1/2", "UB", 2),
        ("1/2", "UB", 4),
        ("1/2", "Rnd", 2),
        ("1/2", "Rnd", 4),
        ("1/2", "Pop", 2),
        ("1/2", "Pop", 4),
    ]
    for row in rows:
        assert 0.0 <= row.mc <= 1.0
        assert -1.0 <= row.mrd <= 1.0
        assert 0.0 <= row.mg <= 1.0


def test_run_grid_worker_count_does_not_change_output(grid_ds):
    cfg = ExperimentConfig(
        ratios=(RatioSpec.parse("none"), RatioSpec.parse("1/2")),
        recommenders=(POP, RND, SMALL_UB),
        cutoffs=(3,),
    )
    serial = run_grid(grid_ds, cfg, workers=1)
    parallel = run_grid(grid_ds, cfg, workers=2)
    assert serial == parallel
    assert emit_report(serial) == emit_report(parallel)


def test_run_grid_unattainable_ratio_becomes_error_row(grid_ds):
    cfg = ExperimentConfig(
        ratios=(RatioSpec.parse("9/10"), RatioSpec.parse("none")),
        recommenders=(POP,),
        cutoffs=(2,),
    )
    rows = run_grid(grid_ds, cfg)
    assert rows[0].rec == "error"
    assert rows[0].error is not None and "9/10" in rows[0].error
    # the run continues with the remaining ratios
    assert [r.ratio for r in rows[1:]] == ["none"]
    assert rows[1].error is None


def test_run_grid_validates_inputs(grid_ds):
    with pytest.raises(ConfigError):
        run_grid(grid_ds, ExperimentConfig(ratios=(), recommenders=(POP,)))
    with pytest.raises(ConfigError):
        run_grid(grid_ds, ExperimentConfig(ratios=(RatioSpec.parse("none"),), recommenders=()))
    with pytest.raises(ConfigError):
        run_grid(
            grid_ds,
            ExperimentConfig(ratios=(RatioSpec.parse("none"),), recommenders=(POP,), cutoffs=(0,)),
        )
    with pytest.raises(ConfigError):
        run_grid(grid_ds, ExperimentConfig(ratios=(RatioSpec.parse("none"),), recommenders=(POP,)), workers=0)


def test_run_grid_opens_no_more_workers_than_tasks(grid_ds, monkeypatch):
    opened = []

    class SerialPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
    cfg = ExperimentConfig(ratios=(RatioSpec.parse("none"),), recommenders=(RND, POP), cutoffs=(2,))
    rows = run_grid(grid_ds, cfg, workers=64)
    assert opened == [2]  # one task per config, one ratio
    assert rows == run_grid(grid_ds, cfg, workers=1)


@pytest.fixture()
def knn_sweep_cfg():
    """The full 27 + 27 UB/IB grid with MF, Rnd and Pop, at two attainable ratios and one that is not."""
    return ExperimentConfig(
        ratios=(RatioSpec.parse("none"), RatioSpec.parse("99/100"), RatioSpec.parse("1/2")),
        recommenders=(SMALL_MF, *knn_grid("UB"), *knn_grid("IB"), RND, POP),
        cutoffs=(3, 5),
        master_seed=5,
    )


@pytest.fixture()
def sweep_ds():
    return random_dataset(np.random.default_rng(31), n_users=60, n_items=80, p=0.15)


@pytest.fixture()
def builds(monkeypatch):
    """Counts neighborhood builds by (axis, k, similarity)."""
    counts = Counter()
    real_build = recommenders.neighborhood_matrix

    def counted(ds, axis, k, kind):
        counts[axis, k, kind] += 1
        return real_build(ds, axis, k, kind)

    monkeypatch.setattr(recommenders, "neighborhood_matrix", counted)
    return counts


def test_run_grid_builds_each_neighborhood_once_per_similarity(sweep_ds, knn_sweep_cfg, builds):
    rows = run_grid(sweep_ds, knn_sweep_cfg, workers=1)
    assert sum(row.error is not None for row in rows) == 1  # the unattainable ratio
    # 2 attainable ratios x 2 axes x 3 similarities, each built once at the largest k
    assert builds == {(axis, 100, kind): 2 for axis in ("users", "items") for kind in SimilarityKind}


def test_single_config_tasks_build_at_their_own_k_without_truncation(sweep_ds, builds, monkeypatch):
    def no_truncation(self, k):
        raise AssertionError("a one-config task truncated its neighborhood")

    monkeypatch.setattr(NeighborhoodPrefixes, "truncated", no_truncation)
    cfg = ExperimentConfig(ratios=(RatioSpec.parse("none"),), recommenders=tuple(typical_grid()), cutoffs=(3,))
    assert all(row.error is None for row in run_grid(sweep_ds, cfg, workers=1))
    assert builds == {("users", 50, SimilarityKind.PEARSON): 1, ("items", 50, SimilarityKind.PEARSON): 1}


def test_run_grid_matches_one_fit_per_config(sweep_ds, knn_sweep_cfg):
    assert run_grid(sweep_ds, knn_sweep_cfg, workers=1) == per_config_grid_rows(sweep_ds, knn_sweep_cfg)


def test_failed_config_reports_alone_in_its_group(sweep_ds, knn_sweep_cfg, monkeypatch):
    failing = RecommenderConfig(kind="UB", neighbors=50, similarity=SimilarityKind.COSINE, exponent=2)
    fitting = []
    real_fit, real_report = experiment.fit_recommender, experiment.aggregate_report

    def fit(ds, cfg, shared=None):
        fitting.append(cfg)
        return real_fit(ds, cfg, shared)

    def report(ds, lists, cutoff):
        if fitting[-1] == failing:
            raise UndefinedMetricError("forced failure")
        return real_report(ds, lists, cutoff)

    monkeypatch.setattr(experiment, "fit_recommender", fit)
    monkeypatch.setattr(experiment, "aggregate_report", report)
    rows = run_grid(sweep_ds, knn_sweep_cfg, workers=1)
    expected = per_config_grid_rows(sweep_ds, knn_sweep_cfg)
    for ratio in ("none", "1/2"):
        errors = [r.error for r in rows if r.ratio == ratio and r.error is not None]
        assert errors == ["UB[k=50;sim=cos;q=2]: forced failure"]
        # every other config, its group siblings included, reports as a per-config run would
        kept = [
            r for r in expected
            if r.ratio == ratio and r.error is None and (r.rec, r.params) != ("UB", failing.params_label())
        ]
        assert [r for r in rows if r.ratio == ratio and r.error is None] == kept


def test_result_rows_pickle_round_trip(grid_ds):
    cfg = ExperimentConfig(ratios=(RatioSpec.parse("none"),), recommenders=(POP,), cutoffs=(2,))
    rows = run_grid(grid_ds, cfg)
    assert pickle.loads(pickle.dumps(rows)) == rows


def test_rows_regenerate_from_their_own_labels(grid_ds):
    """A row's (ratio, rec, params) is enough to reproduce its metrics."""
    cfg = ExperimentConfig(
        ratios=(RatioSpec.parse("none"), RatioSpec.parse("1/2")),
        recommenders=(SMALL_MF, SMALL_UB, RND, POP),
        cutoffs=(3,),
        master_seed=7,
    )
    rows = run_grid(grid_ds, cfg)
    by_label = {(rc.kind, rc.params_label()): rc for rc in cfg.recommenders}
    for row in rows:
        assert row.error is None
        rebuilt_cfg = by_label[row.rec, row.params]
        ds_r = build_ratio_dataset(grid_ds, RatioSpec.parse(row.ratio), cfg.master_seed)
        rec = fit_recommender(ds_r, rebuilt_cfg)
        rep = aggregate_report(ds_r, rec.recommend_all(row.cutoff), row.cutoff)
        assert f"{rep.mc:.3f}" == f"{row.mc:.3f}"
        assert f"{rep.mrd:.3f}" == f"{row.mrd:.3f}"
        assert f"{rep.mg:.3f}" == f"{row.mg:.3f}"


# -- report rendering ----------------------------------------------------------------


def test_emit_report_csv_formatting():
    rows = [
        ResultRow(ratio="1/2", rec="UB", params="k=50;sim=pearson;q=1", cutoff=10, mc=2 / 3, mrd=0.1234, mg=0.5),
        ResultRow(ratio="4/5", rec="error", params="ratio 4/5 unattainable: a, b", cutoff=None, error="x"),
    ]
    text = emit_report(rows, fmt="csv")
    lines = text.splitlines()
    assert lines[0] == REPORT_CSV_HEADER
    assert lines[1] == "1/2,UB,k=50;sim=pearson;q=1,10,0.667,0.123,0.500"
    # error rows still have seven comma-separated fields
    assert lines[2].count(",") == 6
    assert "unattainable" in lines[2] and "a; b" in lines[2]


def test_emit_report_text_alignment():
    rows = [
        ResultRow(ratio="none", rec="Pop", params="-", cutoff=5, mc=0.1, mrd=0.0, mg=0.9),
        ResultRow(ratio="none", rec="Rnd", params="seed=1", cutoff=5, mc=0.2, mrd=0.0, mg=0.8),
    ]
    text = emit_report(rows, fmt="text")
    lines = text.splitlines()
    assert lines[0].startswith("ratio")
    # params column aligned: "Pop" padded to the width of "Rnd" rows etc.
    assert lines[1].index("0.100") == lines[2].index("0.200")


def test_emit_report_rejects_bad_input():
    with pytest.raises(ValueError):
        emit_report([])
    row = ResultRow(ratio="none", rec="Pop", params="-", cutoff=5, mc=0.1, mrd=0.0, mg=0.9)
    with pytest.raises(ValueError):
        emit_report([row], fmt="markdown")


# -- level aggregation ----------------------------------------------------------------


def _mc_row(rec, params, mc, ratio="none", cutoff=10):
    return ResultRow(ratio=ratio, rec=rec, params=params, cutoff=cutoff, mc=mc, mrd=0.0, mg=0.5)


def test_aggregate_levels_by_size():
    mf20 = SMALL_MF.als
    rows = [
        _mc_row("MF", f"factors=100;lambda=0.1;iters=20;alpha=40;scale=0.1;seed=0", 0.4),
        _mc_row("MF", f"factors=100;lambda=0.01;iters=20;alpha=40;scale=0.1;seed=0", 0.6),
        _mc_row("MF", f"factors=20;lambda=0.1;iters=20;alpha=40;scale=0.1;seed=0", 0.2),
        _mc_row("UB", "k=10;sim=jac;q=1", 0.1),
        _mc_row("UB", "k=10;sim=cos;q=1", 0.3),
        _mc_row("UB", "k=10;sim=jac;q=1", 0.5, cutoff=5),  # wrong cutoff: ignored
        _mc_row("Rnd", "seed=0", 0.9),  # baselines are not grouped
    ]
    agg = aggregate_levels(rows, "size")
    assert [(a.rec, a.level) for a in agg] == [("MF", "High"), ("MF", "Low"), ("UB", "Low")]
    assert agg[0].mc == pytest.approx(0.5)
    assert agg[1].mc == pytest.approx(0.2)
    assert agg[2].mc == pytest.approx(0.2)


def test_aggregate_levels_by_extra_dimension():
    rows = [
        _mc_row("MF", "factors=50;lambda=0.1;iters=100;alpha=40;scale=0.1;seed=0", 0.4),
        _mc_row("MF", "factors=50;lambda=0.1;iters=20;alpha=40;scale=0.1;seed=0", 0.1),
        _mc_row("IB", "k=50;sim=pearson;q=3", 0.6),
        _mc_row("IB", "k=50;sim=jac;q=3", 0.2),
        _mc_row("IB", "k=50;sim=jac;q=1", 0.3),
    ]
    agg = aggregate_levels(rows, "extra")
    assert [(a.rec, a.level, a.mc) for a in agg] == [
        ("MF", "High", pytest.approx(0.4)),
        ("MF", "Low", pytest.approx(0.1)),
        ("IB", "q=1", pytest.approx(0.3)),
        ("IB", "q=3", pytest.approx(0.4)),
    ]


def test_aggregate_levels_ratio_ordering_follows_first_appearance():
    rows = [
        _mc_row("UB", "k=10;sim=jac;q=1", 0.1, ratio="none"),
        _mc_row("UB", "k=10;sim=jac;q=1", 0.2, ratio="1/5"),
        _mc_row("UB", "k=100;sim=jac;q=1", 0.3, ratio="1/5"),
    ]
    agg = aggregate_levels(rows, "size")
    assert [(a.level, a.ratio) for a in agg] == [("High", "1/5"), ("Low", "none"), ("Low", "1/5")]


def test_aggregate_levels_warns_on_offgrid_rows():
    rows = [
        _mc_row("UB", "k=30;sim=jac;q=1", 0.1),
        _mc_row("UB", "k=10;sim=jac;q=1", 0.2),
    ]
    with pytest.warns(UserWarning, match="outside the known grid"):
        agg = aggregate_levels(rows, "size")
    assert len(agg) == 1 and agg[0].level == "Low"


def test_aggregate_levels_rejects_unknown_dimension():
    with pytest.raises(ValueError):
        aggregate_levels([], "depth")


def test_emit_aggregate_formatting():
    rows = [_mc_row("UB", "k=10;sim=jac;q=1", 1 / 3), _mc_row("UB", "k=100;sim=jac;q=1", 0.5)]
    agg = aggregate_levels(rows, "size")
    text = emit_aggregate(agg)
    lines = text.splitlines()
    assert lines[0] == AGGREGATE_CSV_HEADER
    assert lines[1] == "UB,High,none,0.500"
    assert lines[2] == "UB,Low,none,0.333"
    with pytest.raises(ValueError):
        emit_aggregate([])
