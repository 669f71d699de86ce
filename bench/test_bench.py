"""Tests of the benchmark itself: it measures the CLI's path, its checks can
fail, and its inputs come from the seed.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import traced
import workloads
from misinfosim import Dataset, RecommenderConfig, SimilarityKind, fit_recommender, run_cycle
from misinfosim.cli import main as cli_main
from misinfosim.recommenders import RecommendationList

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def small(name: str) -> workloads.Workload:
    """The workload with its dataset cut to 40 users and 160 items."""
    w = workloads.WORKLOADS[name]
    if w.synth is not None:
        return dataclasses.replace(w, synth=dict(w.synth, users=40, items=160))
    return dataclasses.replace(w, tsv=dict(w.tsv, users=40, items=160))


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """name -> (workload, config, report text) for the small version of each workload."""
    out = {}
    for name in workloads.WORKLOADS:
        directory = tmp_path_factory.mktemp(name)
        w = small(name)
        config = workloads.write_inputs(w, SEED, directory)
        report = directory / "report.csv"
        assert cli_main(w.cli_args(config, report, SEED, workers=1)) == 0
        out[name] = (w, config, report.read_text(encoding="utf-8"))
    return out


def corrupt(report: str, predicate, field: str, value: str) -> str:
    """Replace `field` in the first row matching `predicate`."""
    lines = report.split("\n")
    header = lines[0].split(",")
    for n, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) == len(header) and predicate(dict(zip(header, fields))):
            fields[header.index(field)] = value
            lines[n] = ",".join(fields)
            return "\n".join(lines)
    raise AssertionError("no row matched")


# -- the benchmark measures the CLI's path ----------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_and_traced_reports_equal_the_cli_output(name, tmp_path):
    w = small(name)
    config = workloads.write_inputs(w, SEED, tmp_path)
    env = run.child_env()
    outs = {kind: tmp_path / f"{kind}.csv" for kind in ("cli", "timed", "traced")}
    commands = {
        "cli": ["-m", "misinfosim.cli", *w.cli_args(config, outs["cli"], SEED)],
        "timed": [str(HERE / "child.py"), str(time.monotonic_ns()), str(tmp_path / "timed.json"),
                  *w.cli_args(config, outs["timed"], SEED)],
        "traced": [str(HERE / "traced.py"), str(tmp_path / "traced.json"),
                   *w.cli_args(config, outs["traced"], SEED, workers=1)],
    }
    for args in commands.values():
        subprocess.run([sys.executable, *args], env=env, cwd=ROOT, check=True, capture_output=True)
    assert outs["timed"].read_bytes() == outs["cli"].read_bytes()
    assert outs["traced"].read_bytes() == outs["cli"].read_bytes()
    timing = json.loads((tmp_path / "timed.json").read_text())
    assert timing["setup_s"] > 0 and timing["report_s"] > 0
    layers = json.loads((tmp_path / "traced.json").read_text())
    assert layers["failures"] == [] and layers["missing"] == []
    assert set(layers["metrics"]) == set(run.PER_LAYER) - {"experiment.pool_overhead_s"}


def test_checks_pass_on_every_small_workload(reports):
    for name, (w, config, report) in reports.items():
        assert checks.verify(w.command, config, report, SEED) > 0, name
        attempted, failed = checks.operations(w.command, config, report)
        assert attempted > 0 and failed == 0, name


# -- every independent check rejects a corrupted row or list ------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("field", ["MC", "MRD", "MG"])
def test_pop_check_rejects_a_corrupted_pop_row(reports, name, field):
    w, config, report = reports[name]
    is_pop = lambda row: row["rec"] == "Pop" and row["cutoff"] == "10"  # noqa: E731
    row = next(r for r in checks.parse_report(report) if is_pop(r))
    bad = corrupt(report, is_pop, field, f"{float(row[field]) + 0.002:.3f}")
    with pytest.raises(checks.CheckFailed, match="Pop@10"):
        checks.verify(w.command, config, bad, SEED)


@pytest.mark.parametrize("field,value", [("MC", "1.200"), ("MRD", "-1.500"), ("MG", "-0.100")])
def test_range_check_rejects_an_out_of_range_metric(reports, field, value):
    w, config, report = reports["knn-sweep"]
    bad = corrupt(report, lambda row: row["rec"] == "UB", field, value)
    with pytest.raises(checks.CheckFailed, match="out of range"):
        checks.verify(w.command, config, bad, SEED)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_row_count_check_rejects_a_missing_row(reports, name):
    w, config, report = reports[name]
    lines = report.rstrip("\n").split("\n")
    with pytest.raises(checks.CheckFailed, match="rows, expected"):
        checks.verify(w.command, config, "\n".join(lines[:-1]) + "\n", SEED)


def _ds(profiles, misinfo):
    return Dataset.from_profiles(profiles, misinfo_items=misinfo)


ORIGINAL = {"a": ["m1", "m2", "n1", "n2", "n3", "n4"], "b": ["m1", "n1", "n2"], "c": ["n1", "n2"]}
MISINFO = ["m1", "m2"]


def test_ratio_check_accepts_an_exact_rebuild():
    # ratio 1/3: a keeps 2 + 4, b keeps 1 + 2, c has no labelled item and is dropped
    rebuilt = _ds({"a": ["m1", "m2", "n1", "n2", "n3", "n4"], "b": ["m1", "n1", "n2"]}, MISINFO)
    checks.check_ratio_dataset(_ds(ORIGINAL, MISINFO), rebuilt, Fraction(1, 3))


@pytest.mark.parametrize(
    "profiles,message",
    [
        ({"a": ["m1", "m2", "n1", "n2", "n3"], "b": ["m1", "n1", "n2"]}, "labelled"),
        ({"a": ["m1", "n1", "n2"], "b": ["m1", "n1", "n2"]}, "largest exact profile"),
        ({"a": ["m1", "m2", "n1", "n2", "n3", "n4"]}, "dropped although"),
        ({"a": ["m1", "m2", "n1", "n2", "n3", "n4"], "b": ["m1", "n1", "n3"]}, "subset"),
    ],
)
def test_ratio_check_rejects_an_inexact_rebuild(profiles, message):
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_ratio_dataset(_ds(ORIGINAL, MISINFO), _ds(profiles, MISINFO), Fraction(1, 3))


def test_loaded_dataset_check_rejects_a_missing_pair(tmp_path):
    inter, labels = tmp_path / "i.tsv", tmp_path / "l.tsv"
    workloads.write_tsv_dataset(dict(small("feedback-sim").tsv), SEED, inter, labels)
    from misinfosim import load_dataset

    ds = load_dataset(str(inter), str(labels))
    checks.check_loaded_dataset(ds, inter, labels)
    inter.write_text("".join(inter.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(checks.CheckFailed, match="interactions"):
        checks.check_loaded_dataset(ds, inter, labels)


@pytest.fixture(scope="module")
def knn_data():
    from misinfosim import SynthConfig, generate_synthetic

    return generate_synthetic(SynthConfig(
        user_count=60, item_count=200, mean_profile_size=12, misinfo_item_fraction=0.1,
        misinfo_popularity_boost=5.0, seed=SEED,
    ))


@pytest.mark.parametrize("sim", list(SimilarityKind))
@pytest.mark.parametrize("k,q", [(5, 1), (20, 3)])
def test_brute_force_user_knn_equals_the_package(knn_data, sim, k, q):
    cfg = RecommenderConfig(kind="UB", neighbors=k, similarity=sim, exponent=q)
    lists = fit_recommender(knn_data, cfg).recommend_all(10)
    for u in range(knn_data.n_users):
        items, scores = traced.brute_user_knn(knn_data.matrix, u, k, sim.value, q, 10)
        assert lists[u].items.tolist() == items
        assert lists[u].scores.tolist() == scores


def test_brute_force_user_knn_rejects_a_reordered_list(knn_data):
    cfg = RecommenderConfig(kind="UB", neighbors=20, similarity=SimilarityKind.COSINE)
    got = fit_recommender(knn_data, cfg).recommend_all(10)[0].items.tolist()
    items, _ = traced.brute_user_knn(knn_data.matrix, 0, 20, "cos", 1, 10)
    assert items == got and items[::-1] != got


def _replace(lists, user, items=None, scores=None):
    lst = lists[user]
    out = list(lists)
    out[user] = RecommendationList(
        user=lst.user,
        items=np.asarray(lst.items if items is None else items),
        scores=np.asarray(lst.scores if scores is None else scores, dtype=np.float64),
        cutoff=lst.cutoff,
    )
    return out


@pytest.mark.parametrize("kind", ["UB", "IB"])
def test_list_check_rejects_every_broken_contract(knn_data, kind):
    lists = fit_recommender(knn_data, RecommenderConfig(kind=kind, neighbors=20)).recommend_all(10)
    m = knn_data.matrix
    assert traced.list_faults(m, lists, 10) is None
    u = next(u for u, lst in enumerate(lists) if len(lst) >= 3)
    items, scores = lists[u].items, lists[u].scores
    seen = int(knn_data.profile(u)[0])
    cases = {
        "longer than": _replace(lists, u, np.arange(11) + 1000, np.linspace(11, 1, 11)),
        "repeated": _replace(lists, u, np.r_[items[:2], items[0]], np.r_[scores[:2], scores[1]]),
        "seen": _replace(lists, u, np.r_[items[:2], seen], scores[:3]),
        "non-positive": _replace(lists, u, items[:3], np.r_[scores[:2], 0.0]),
        "increase": _replace(lists, u, items[:3], scores[:3][::-1] + np.arange(3)),
        "tie": _replace(lists, u, np.sort(items[:2])[::-1], np.r_[scores[0], scores[0]]),
        "one list per user": lists[:-1],
    }
    for message, broken in cases.items():
        fault = traced.list_faults(m, broken, 10)
        assert fault is not None and message in fault, (message, fault)


def test_trace_check_rejects_a_rising_or_non_finite_objective():
    assert traced.trace_fault([10.0, 9.0, 9.0]) is None
    assert "increased" in traced.trace_fault([10.0, 9.0, 9.5])
    assert "finite" in traced.trace_fault([10.0, float("nan")])


def test_growth_check_rejects_a_corrupted_growth(knn_data):
    cfg = RecommenderConfig(kind="Pop")
    grown, accepted = run_cycle(knn_data, cfg, 3, seed=1)
    assert traced.growth_faults(knn_data, grown, accepted, 3) is None
    assert traced.growth_faults(knn_data, grown, None, 3) is None
    assert "limit" in traced.growth_faults(knn_data, grown, accepted, 1)
    fewer = dict(accepted)
    fewer[next(iter(fewer))] = fewer[next(iter(fewer))][:1]
    assert "accepted but" in traced.growth_faults(knn_data, grown, fewer, 3)
    moved = {u: (items + 1) % knn_data.n_items for u, items in accepted.items()}
    assert traced.growth_faults(knn_data, grown, moved, 3) is not None
    assert traced.growth_faults(grown, knn_data, None, 3) is not None


# -- inputs come from the seed; the runner refuses to run without the source ------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_made_from_the_seed(name, tmp_path):
    w = small(name)
    texts = []
    for run_dir, seed in (("a", 5), ("b", 5), ("c", 6)):
        directory = tmp_path / run_dir
        workloads.write_inputs(w, seed, directory)
        texts.append({p.name: p.read_text().replace(str(directory), "<dir>") for p in directory.iterdir()})
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]
    config = texts[0][f"{name}.ini"]
    assert "<dir>" in config or "[synth]" in config
    assert str(ROOT) not in config.replace("<dir>", "")


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER.items())


def test_runner_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "typical-run", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_an_unattainable_ratio_counts_as_failed_cells_and_passes_the_checks(tmp_path):
    w = small("typical-run")
    w = dataclasses.replace(
        w,
        synth=dict(w.synth, misinfo_item_fraction=0.01),
        sections=dict(w.sections, ratios={"ratios": "none, 4/5"}),
    )
    config = workloads.write_inputs(w, SEED, tmp_path)
    out = tmp_path / "report.csv"
    assert cli_main(w.cli_args(config, out, SEED, workers=1)) == 0
    report = out.read_text()
    assert "4/5,error" in report
    assert checks.operations(w.command, config, report) == (10, 5)
    assert checks.verify(w.command, config, report, SEED) > 0
