"""The benchmark's three workloads and the inputs each one is run on.

Every input is made here from the workload seed: the synthetic configs of
`typical-run` and `knn-sweep`, and the TSV dataset that `feedback-sim`
loads. The program under test receives only the generated files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # misinfosim subcommand: run, sweep or simulate
    workers: int  # --workers of the timed run; 1 means no process pool
    why: str
    sections: dict = field(default_factory=dict)  # INI sections besides the dataset
    synth: dict | None = None  # [synth] keys, or None for a benchmark-written TSV dataset
    tsv: dict | None = None  # make-up of the TSV dataset feedback-sim loads

    def cli_args(self, config: Path, out: Path, seed: int, workers: int | None = None) -> list[str]:
        args = [self.command, "--config", str(config), "--seed", str(seed), "--out", str(out)]
        if self.command != "simulate":
            args += ["--workers", str(self.workers if workers is None else workers)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="typical-run",
            command="run",
            workers=2,
            why="typical configs at four ratios on a process pool; ALS dominates",
            synth=dict(
                users=200,
                items=1000,
                mean_profile_size=20,
                misinfo_item_fraction=0.1,
                popularity_exponent=1.0,
                misinfo_popularity_boost=5.0,
            ),
            sections={
                "ratios": {"ratios": "none, 1/5, 1/2, 4/5"},
                "metrics": {"cutoffs": "5, 10, 20"},
            },
        ),
        Workload(
            name="knn-sweep",
            command="sweep",
            workers=2,
            why="full 27+27 UB/IB grid and a one-point MF grid; ranking, neighbourhoods and metrics dominate",
            synth=dict(
                users=200,
                items=1000,
                mean_profile_size=20,
                misinfo_item_fraction=0.1,
                popularity_exponent=1.0,
                misinfo_popularity_boost=5.0,
            ),
            sections={
                "ratios": {"ratios": "none"},
                "grid.mf": {"factors": "4", "lambda": "0.1", "iters": "2"},
                "grid.ub": {"k": "10, 50, 100", "sim": "jac, cos, pearson", "q": "1, 2, 3"},
                "grid.ib": {"k": "10, 50, 100", "sim": "jac, cos, pearson", "q": "1, 2, 3"},
                "metrics": {"cutoffs": "5, 10, 20"},
            },
        ),
        Workload(
            name="feedback-sim",
            command="simulate",
            workers=1,
            why="serial feedback loop on a loaded TSV dataset that grows each cycle; refits UB, IB and Pop",
            tsv=dict(
                users=300,
                items=1500,
                mean_profile_size=20,
                misinfo_item_fraction=0.1,
                popularity_exponent=1.0,
                misinfo_popularity_boost=5.0,
            ),
            sections={
                "sim": {"cycles": "3", "accept": "3", "schedule": "UB, IB, Pop", "probes": "UB, IB, Pop, Rnd"},
                "metrics": {"cutoffs": "5, 10, 20"},
            },
        ),
    )
}


def program_seed(seed: int) -> int:
    """The non-negative seed handed to the program (synth seed and --seed)."""
    return seed % 2**31


def _ini(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)


def write_tsv_dataset(make_up: dict, seed: int, interactions: Path, labels: Path) -> None:
    """A long-tail labelled dataset, written with the benchmark's own generator.

    Item popularity follows rank^-exponent, boosted for labelled items; user
    and item ids are unpadded so that their sorted order differs from the
    order they were generated in.
    """
    rng = np.random.default_rng([program_seed(seed), 0xFEED])
    n_users, n_items = make_up["users"], make_up["items"]
    misinfo = np.zeros(n_items, dtype=bool)
    misinfo[rng.choice(n_items, size=round(make_up["misinfo_item_fraction"] * n_items), replace=False)] = True
    weights = np.arange(1, n_items + 1, dtype=np.float64) ** -make_up["popularity_exponent"]
    weights[misinfo] *= make_up["misinfo_popularity_boost"]
    probs = weights / weights.sum()
    with open(interactions, "w", encoding="utf-8") as fh:
        for u in range(n_users):
            size = int(np.clip(rng.poisson(make_up["mean_profile_size"]), 1, n_items))
            for i in rng.choice(n_items, size=size, replace=False, p=probs):
                fh.write(f"user{u}\titem{i}\n")
    with open(labels, "w", encoding="utf-8") as fh:
        for i in range(n_items):
            fh.write(f"item{i}\t{'misinfo' if misinfo[i] else 'neutral'}\n")


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the workload's config (and dataset files) into `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    sections = {}
    if workload.synth is not None:
        sections["synth"] = dict(workload.synth, seed=program_seed(seed))
    else:
        interactions, labels = directory / "interactions.tsv", directory / "labels.tsv"
        write_tsv_dataset(workload.tsv, seed, interactions, labels)
        sections["dataset"] = {"interactions": str(interactions), "labels": str(labels)}
    sections.update(workload.sections)
    config = directory / f"{workload.name}.ini"
    config.write_text(_ini(sections), encoding="utf-8")
    return config
