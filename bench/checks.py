"""Correctness checks on a workload's report, computed apart from the program.

The package is used here only to rebuild the datasets the report's cells ran
on (synthesis, TSV load, ratio rebuild, feedback growth); every rebuilt
dataset is itself checked, and every number compared against the report is
recomputed from the dataset with this file's own code:

- every Pop row (MC, MRD and MG at each cutoff), from item popularity;
- exactness of every ratio rebuild, in integers;
- every metric within its range, and the expected number of rows.
"""

from __future__ import annotations

import configparser
from fractions import Fraction
from pathlib import Path

import numpy as np

TOLERANCE = 5e-4 + 1e-9  # a value printed with 3 decimals is within this of the exact one


class CheckFailed(Exception):
    pass


def parse_report(text: str) -> list[dict[str, str]]:
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise CheckFailed(f"report row with {len(fields)} fields, expected {len(header)}: {line!r}")
        rows.append(dict(zip(header, fields)))
    return rows


def _split(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


# -- independent metric definitions -------------------------------------------

def pop_lists(matrix, cutoff: int) -> list[np.ndarray]:
    """Top-`cutoff` unseen items per user by (-interaction count, item index)."""
    counts = np.diff(matrix.tocsc().indptr)
    order = np.lexsort((np.arange(counts.size), -counts))
    lists = []
    for u in range(matrix.shape[0]):
        seen = set(matrix.indices[matrix.indptr[u] : matrix.indptr[u + 1]].tolist())
        head = order[: cutoff + len(seen)]
        lists.append(np.array([i for i in head if i not in seen][:cutoff], dtype=np.int64))
    return lists


def list_metrics(matrix, misinfo: np.ndarray, lists: list[np.ndarray], cutoff: int) -> tuple[float, float, float]:
    """(MC@N, MRD, MG) of one list per user, by the metric definitions."""
    mc, mrd = [], []
    slots = {int(i): 0 for i in np.flatnonzero(misinfo)}
    pooled = 0
    for u, items in enumerate(lists):
        top = [int(i) for i in items[:cutoff]]
        hits = [i for i in top if misinfo[i]]
        mc.append(len(hits) / cutoff)
        profile = matrix.indices[matrix.indptr[u] : matrix.indptr[u + 1]]
        if len(profile):
            rec_share = len(hits) / len(top) if top else 0.0
            mrd.append(rec_share - int(misinfo[profile].sum()) / len(profile))
        for i in hits:
            slots[i] += 1
        pooled += len(top) - len(hits)
    mass = sorted([float(c) for c in slots.values()] + [float(pooled)])
    total = sum(mass)
    n = len(mass)
    gini = sum((2 * r - n - 1) * m / total for r, m in enumerate(mass, start=1)) / (n - 1)
    return sum(mc) / len(mc), sum(mrd) / len(mrd), 1.0 - gini


def check_pop_rows(rows: list[dict[str, str]], key: str, value: str, ds, cutoffs: list[int]) -> None:
    pop = {int(r["cutoff"]): r for r in rows if r[key] == value and r["rec"] == "Pop"}
    if sorted(pop) != sorted(cutoffs):
        raise CheckFailed(f"{key}={value}: Pop rows for cutoffs {sorted(pop)}, expected {sorted(cutoffs)}")
    lists = pop_lists(ds.matrix, max(cutoffs))
    for cutoff in cutoffs:
        expected = list_metrics(ds.matrix, ds.item_misinfo, lists, cutoff)
        row = pop[cutoff]
        for name, want in zip(("MC", "MRD", "MG"), expected):
            if abs(float(row[name]) - want) > TOLERANCE:
                raise CheckFailed(f"{key}={value} Pop@{cutoff} {name}={row[name]}, recomputed {want:.6f}")


def check_ranges(rows: list[dict[str, str]]) -> None:
    for row in rows:
        if row["rec"] == "error":
            continue
        mc, mrd, mg = float(row["MC"]), float(row["MRD"]), float(row["MG"])
        if not (0 <= mc <= 1 and -1 <= mrd <= 1 and 0 <= mg <= 1):
            raise CheckFailed(f"metric out of range in row {row}")


# -- dataset checks ---------------------------------------------------------------

def _profiles_by_id(ds) -> dict[str, set[str]]:
    m = ds.matrix
    return {
        uid: {ds.item_ids[i] for i in m.indices[m.indptr[u] : m.indptr[u + 1]]}
        for u, uid in enumerate(ds.user_ids)
    }


def check_ratio_dataset(original, rebuilt, ratio: Fraction | None) -> None:
    """Exactness of a ratio rebuild, in integers, user by user."""
    before, after = _profiles_by_id(original), _profiles_by_id(rebuilt)
    label = {iid: bool(original.item_misinfo[i]) for i, iid in enumerate(original.item_ids)}
    for i, iid in enumerate(rebuilt.item_ids):
        if label.get(iid) != bool(rebuilt.item_misinfo[i]):
            raise CheckFailed(f"item {iid} changed its label in the ratio rebuild")
    if not set(after) <= set(before):
        raise CheckFailed("ratio rebuild invented users")
    if ratio is None:
        if after != before:
            raise CheckFailed("unconstrained ratio changed a profile")
        return
    p, q = ratio.numerator, ratio.denominator
    for uid, items in before.items():
        avail_mis = sum(label[i] for i in items)
        m = min(avail_mis // p, (len(items) - avail_mis) // (q - p))
        if uid not in after:
            if m >= 1:
                raise CheckFailed(f"user {uid} dropped although m={m} >= 1 exists")
            continue
        kept = after[uid]
        if not kept <= items:
            raise CheckFailed(f"user {uid}: rebuilt profile is not a subset of the original")
        mis = sum(label[i] for i in kept)
        if mis * q != len(kept) * p:
            raise CheckFailed(f"user {uid}: {mis} of {len(kept)} items labelled, ratio {p}/{q}")
        if len(kept) != m * q:
            raise CheckFailed(f"user {uid}: kept {len(kept)} items, the largest exact profile has {m * q}")


def check_loaded_dataset(ds, interactions: Path, labels: Path) -> None:
    """The loaded dataset holds exactly the pairs and labels of the TSV files."""
    pairs: dict[str, set[str]] = {}
    for line in interactions.read_text(encoding="utf-8").splitlines():
        user, item = line.split("\t")
        pairs.setdefault(user, set()).add(item)
    misinfo = set()
    for line in labels.read_text(encoding="utf-8").splitlines():
        item, token = line.split("\t")
        if token == "misinfo":
            misinfo.add(item)
    if _profiles_by_id(ds) != pairs:
        raise CheckFailed("loaded interactions differ from the TSV file")
    if {iid for i, iid in enumerate(ds.item_ids) if ds.item_misinfo[i]} != misinfo:
        raise CheckFailed("loaded labels differ from the TSV file")


# -- per-workload verification ----------------------------------------------------------

def _grid_size(ini: configparser.ConfigParser, command: str) -> int:
    if command == "run":
        return 5  # one typical configuration per recommender family
    mf = ini["grid.mf"]
    size = len(_split(mf["factors"])) * len(_split(mf["lambda"])) * len(_split(mf["iters"]))
    for section in ("grid.ub", "grid.ib"):
        sec = ini[section]
        size += len(_split(sec["k"])) * len(_split(sec["sim"])) * len(_split(sec["q"]))
    return size + 2  # Rnd and Pop


def _ini(config: Path) -> configparser.ConfigParser:
    ini = configparser.ConfigParser()
    ini.read(config, encoding="utf-8")
    return ini


def operations(command: str, config: Path, report: str) -> tuple[int, int]:
    """Operations one run attempts and fails: grid cells for run and sweep,
    fits for simulate. A failed cell is an error row; a ratio no user can
    satisfy gives one error row that stands for all its cells."""
    ini = _ini(config)
    if command == "simulate":
        cycles, probes = int(ini["sim"]["cycles"]), len(_split(ini["sim"]["probes"]))
        return (cycles + 1) * probes + cycles, 0
    configs = _grid_size(ini, command)
    errors = [row for row in parse_report(report) if row["rec"] == "error"]
    failed = sum(configs if row["params"].startswith("ratio ") else 1 for row in errors)
    return len(_split(ini["ratios"]["ratios"])) * configs, failed


def verify_grid(command: str, config: Path, report: str, seed: int) -> int:
    from misinfosim import RatioSpec, build_ratio_dataset
    from misinfosim.config import load_config, resolve_dataset

    ini = _ini(config)
    ratios = _split(ini["ratios"]["ratios"])
    cutoffs = [int(c) for c in _split(ini["metrics"]["cutoffs"])]
    configs = _grid_size(ini, command)
    rows = parse_report(report)
    attempted, failed = operations(command, config, report)
    errors = sum(row["rec"] == "error" for row in rows)
    if len(rows) != (attempted - failed) * len(cutoffs) + errors:
        raise CheckFailed(f"{len(rows)} rows, expected {len(ratios)} x {configs} x {len(cutoffs)}"
                          f" less {failed} failed cells")
    check_ranges(rows)

    ds = resolve_dataset(load_config(str(config)))
    lists = 0
    for label in ratios:
        spec = RatioSpec.parse(label)
        if any(row["rec"] == "error" and row["ratio"] == spec.label() for row in rows):
            continue
        rebuilt = build_ratio_dataset(ds, spec, seed)
        check_ratio_dataset(ds, rebuilt, spec.value)
        check_pop_rows(rows, "ratio", spec.label(), rebuilt, cutoffs)
        lists += rebuilt.n_users * configs
    return lists


def verify_simulate(config: Path, report: str, seed: int) -> int:
    from misinfosim import run_cycle
    from misinfosim.config import load_config, resolve_dataset, sim_config
    from misinfosim.seeds import derive_seed

    ini = _ini(config)
    cycles = int(ini["sim"]["cycles"])
    probes = len(_split(ini["sim"]["probes"]))
    cutoffs = [int(c) for c in _split(ini["metrics"]["cutoffs"])]
    rows = parse_report(report)
    if len(rows) != (cycles + 1) * probes * len(cutoffs):
        raise CheckFailed(f"{len(rows)} rows, expected ({cycles} + 1) x {probes} x {len(cutoffs)}")
    check_ranges(rows)

    parser = load_config(str(config))
    ds = resolve_dataset(parser)
    check_loaded_dataset(ds, Path(ini["dataset"]["interactions"]), Path(ini["dataset"]["labels"]))
    cfg = sim_config(parser, seed)
    check_pop_rows(rows, "cycle", "0", ds, cutoffs)
    for cycle in range(1, cycles + 1):
        grown = run_cycle(ds, cfg.schedule[cycle - 1], cfg.accept_count, derive_seed(seed, cycle, 0))
        ds = grown[0] if isinstance(grown, tuple) else grown
        check_pop_rows(rows, "cycle", str(cycle), ds, cutoffs)
    return ds.n_users * ((cycles + 1) * probes + cycles)


def verify(command: str, config: Path, report: str, seed: int) -> int:
    """Run every check on one report; returns the number of ranked lists it took."""
    if command == "simulate":
        return verify_simulate(config, report, seed)
    return verify_grid(command, config, report, seed)
