import numpy as np
import pytest

from misinfosim import (
    ConfigError,
    RecommenderConfig,
    SimConfig,
    aggregate_report,
    fit_recommender,
    run_cycle,
    run_simulation,
)
from misinfosim.seeds import derive_seed

from conftest import random_dataset


@pytest.fixture()
def loop_ds():
    return random_dataset(np.random.default_rng(7), n_users=12, n_items=30, p=0.25)


POP = RecommenderConfig(kind="Pop")
RND = RecommenderConfig(kind="Rnd", seed=3)
UB = RecommenderConfig(kind="UB", neighbors=5)


def test_run_cycle_accounting(loop_ds):
    grown, accepted = run_cycle(loop_ds, POP, accept_count=2, seed=9)
    added = sum(len(items) for items in accepted.values())
    assert added > 0
    assert grown.n_interactions == loop_ds.n_interactions + added
    # identity of the catalog is untouched
    assert grown.user_ids == loop_ds.user_ids
    assert grown.item_ids == loop_ds.item_ids
    assert np.array_equal(grown.item_misinfo, loop_ds.item_misinfo)
    for u, items in accepted.items():
        assert len(items) <= 2
        before = set(loop_ds.profile(u).tolist())
        after = set(grown.profile(u).tolist())
        for i in items:
            assert i not in before
            assert i in after
        assert after == before | set(int(i) for i in items)


def test_run_cycle_survives_exhausted_pools():
    # one user has seen everything; they simply accept nothing
    from conftest import make_dataset

    ds = make_dataset({"a": ["x", "y"], "b": ["x"]}, misinfo=["x"])
    grown, accepted = run_cycle(ds, POP, accept_count=5, seed=0)
    assert 0 not in accepted  # user a: no unseen items
    assert accepted[1].tolist() == [ds.item_index("y")]
    assert grown.n_interactions == ds.n_interactions + 1


def test_run_cycle_rejects_bad_accept_count(loop_ds):
    with pytest.raises(ConfigError):
        run_cycle(loop_ds, POP, accept_count=0, seed=0)


def test_simulation_structure_and_growth(loop_ds):
    cfg = SimConfig(cycles=2, schedule=(POP, POP), accept_count=2, cutoffs=(3, 5), master_seed=1)
    reports = run_simulation(loop_ds, cfg)
    assert [r.cycle for r in reports] == [0, 1, 2]
    assert reports[0].new_interactions == 0
    assert reports[0].stats.interaction_count == loop_ds.n_interactions
    for prev, cur in zip(reports, reports[1:]):
        assert cur.stats.interaction_count == prev.stats.interaction_count + cur.new_interactions
        assert cur.new_interactions > 0
        # catalog size never changes, only the interaction count
        assert cur.stats.user_count == prev.stats.user_count
        assert cur.stats.item_count == prev.stats.item_count
        assert cur.stats.misinfo_item_count == prev.stats.misinfo_item_count
    # one metrics entry per probe per cutoff
    assert all(len(r.metrics) == len(cfg.cutoffs) for r in reports)
    assert {rep.cutoff for _, rep in reports[0].metrics} == {3, 5}


def test_simulation_is_deterministic(loop_ds):
    cfg = SimConfig(
        cycles=2, schedule=(RND, POP), probes=(RND, POP), accept_count=2, master_seed=5
    )
    a = run_simulation(loop_ds, cfg)
    b = run_simulation(loop_ds, cfg)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.stats == rb.stats
        assert ra.new_interactions == rb.new_interactions
        for (cfg_a, rep_a), (cfg_b, rep_b) in zip(ra.metrics, rb.metrics):
            assert cfg_a == cfg_b
            assert rep_a.mc == rep_b.mc
            assert rep_a.mrd == rep_b.mrd
            assert rep_a.mg == rep_b.mg
            assert np.array_equal(rep_a.per_user_mc, rep_b.per_user_mc)


def test_cycle_zero_matches_direct_measurement(loop_ds):
    cfg = SimConfig(cycles=1, schedule=(POP,), probes=(RND,), cutoffs=(4, 6), master_seed=2)
    reports = run_simulation(loop_ds, cfg)
    fitted = fit_recommender(loop_ds, RND.reseeded(derive_seed(2, 0, 1)))
    lists = fitted.recommend_all(6)
    for (probe, measured), cutoff in zip(reports[0].metrics, (4, 6)):
        assert probe == RND
        want = aggregate_report(loop_ds, lists, cutoff)
        assert measured.mc == want.mc
        assert measured.mrd == want.mrd
        assert measured.mg == want.mg


def test_probes_can_differ_from_schedule(loop_ds):
    cfg = SimConfig(cycles=1, schedule=(POP,), probes=(RND,), cutoffs=(5,), master_seed=0)
    reports = run_simulation(loop_ds, cfg)
    assert reports[1].new_interactions > 0  # growth came from the schedule
    assert all(probe.kind == "Rnd" for rep in reports for probe, _ in rep.metrics)


def test_resolved_probes_default_dedups_schedule():
    cfg = SimConfig(cycles=2, schedule=(POP, POP, UB))
    assert cfg.resolved_probes() == (POP,)  # UB is beyond the requested cycles
    cfg3 = SimConfig(cycles=3, schedule=(POP, POP, UB))
    assert cfg3.resolved_probes() == (POP, UB)
    explicit = SimConfig(cycles=2, schedule=(POP, POP), probes=(RND,))
    assert explicit.resolved_probes() == (RND,)


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(cycles=0, schedule=(POP,))
    with pytest.raises(ConfigError):
        SimConfig(cycles=2, schedule=(POP,))
    with pytest.raises(ConfigError):
        SimConfig(cycles=1, schedule=(POP,), accept_count=0)
    with pytest.raises(ConfigError):
        SimConfig(cycles=1, schedule=(POP,), cutoffs=())
    with pytest.raises(ConfigError):
        SimConfig(cycles=1, schedule=(POP,), cutoffs=(0,))
    with pytest.raises(ConfigError):
        SimConfig(cycles=1, schedule=(POP,), master_seed=-1)
    with pytest.raises(ConfigError, match="no probe recommenders"):
        SimConfig(cycles=1, schedule=(POP,), probes=())
    SimConfig(cycles=1, schedule=(POP,))
