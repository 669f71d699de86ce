"""Benchmark of the misinfosim CLI: `run`, `sweep` and `simulate`, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark writes the workload's
inputs from the seed, then starts fresh Python processes, one after the
other, until S seconds have passed. Each process runs the subcommand on the
checkout's `src/` and writes its report. With --trace 0 every process is a
timed run and the end-to-end metrics are medians over them. With --trace 1
traced runs, executed serially with every layer wrapped, alternate with
timed runs, and the per-layer metrics are medians over the traced runs.

Every run's report is checked against values this benchmark computes itself
(see checks.py); with --trace 1, property checks run inside the traced runs
too, and the serial traced report must equal the parallel timed one byte for
byte. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_LIMIT_S = 150  # a run that takes longer is killed and the benchmark fails
BLAS_THREADS = 1  # per process, so that workers x BLAS threads <= nproc for up to nproc workers

sys.path.insert(0, str(HERE))

from checks import CheckFailed, operations, verify  # noqa: E402
from workloads import WORKLOADS, program_seed, write_inputs  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "report_s": "s",
    "lists_per_s": "lists/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; the same names, in the same order, as per_layer in BENCHMARK.json
PER_LAYER = {
    "synth.generate_s": "s",
    "dataset.load_s": "s",
    "dataset.lines_parsed": "count",
    "dataset.grow_s": "s",
    "dataset.stats_s": "s",
    "profiles.ratio_build_s": "s",
    "profiles.users_in": "count",
    "profiles.users_kept": "count",
    "similarity.build_s": "s",
    "similarity.builds": "count",
    "similarity.distinct_builds": "count",
    "similarity.cooc_pairs": "count",
    "als.fit_s": "s",
    "als.half_sweeps": "count",
    "als.rows_solved_per_s": "rows/s",
    "als.objective_s": "s",
    **{f"recommenders.fit_s.{kind}": "s" for kind in ("MF", "UB", "IB", "Rnd", "Pop")},
    **{f"recommenders.recommend_s.{kind}": "s" for kind in ("MF", "UB", "IB", "Rnd", "Pop")},
    "recommenders.lists": "count",
    "recommenders.items_ranked": "count",
    "metrics.aggregate_s": "s",
    "metrics.lists_scored": "count",
    "experiment.cells": "count",
    "experiment.cell_busy_s": "s",
    "experiment.pool_overhead_s": "s",
    "simulate.growth_s": "s",
    "simulate.probe_s": "s",
    "simulate.fits": "count",
    "simulate.distinct_fits": "count",
    "simulate.interactions_added": "count",
}


class RunFailed(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """The environment of every run: the checkout's source and a fixed BLAS thread budget."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args: list[str], env: dict[str, str], log: Path):
    """Run a child to its end; returns its own rusage, which includes the workers it reaped.

    os.wait4 on the child's pid gives that child's figures alone, where
    getrusage(RUSAGE_CHILDREN) would carry the largest ru_maxrss of every
    earlier child over into this one.
    """
    with open(log, "wb") as err:
        proc = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=err, stderr=err)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RunFailed(f"{args[0]} exited with {proc.returncode}:\n{tail}")
    return usage


def timed_run(cli_args: list[str], env: dict[str, str], work: Path, index: int) -> dict:
    result = work / f"timed-{index}.json"
    spawn_ns = time.monotonic_ns()
    usage = spawn([str(HERE / "child.py"), str(spawn_ns), str(result), *cli_args], env, work / "child.log")
    sample = json.loads(result.read_text(encoding="utf-8"))
    sample["cpu_s"] = usage.ru_utime + usage.ru_stime
    sample["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    return sample


def traced_run(cli_args: list[str], env: dict[str, str], work: Path, index: int) -> dict:
    result = work / f"traced-{index}.json"
    spawn([str(HERE / "traced.py"), str(result), *cli_args], env, work / "traced.log")
    return json.loads(result.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "misinfosim" / "__init__.py").is_file():
        print(f"error: no misinfosim package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    seed = program_seed(args.seed)
    env = child_env()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        config = write_inputs(workload, args.seed, work)
        report_path = work / "report.csv"
        reports: set[bytes] = set()

        def report_bytes() -> bytes:
            data = report_path.read_bytes()
            report_path.unlink()
            return data

        start = time.monotonic()
        timed = [timed_run(workload.cli_args(config, report_path, seed), env, work, 0)]
        first_report = report_bytes()
        traced = []
        while (args.trace and not traced) or time.monotonic() - start < args.seconds:
            if args.trace:  # traced and timed runs alternate, so pool overhead compares like periods
                serial = workload.cli_args(config, report_path, seed, workers=1)
                traced.append(traced_run(serial, env, work, len(traced)))
                reports.add(report_bytes())
            timed.append(timed_run(workload.cli_args(config, report_path, seed), env, work, len(timed)))
            reports.add(report_bytes())

        report = first_report.decode("utf-8")
        attempted, failed = operations(workload.command, config, report)
        correct, lists = True, 0
        try:
            if reports and reports != {first_report}:
                raise CheckFailed("reports differ between runs of the same input"
                                  + (" (serial traced vs parallel timed)" if args.trace else ""))
            lists = verify(workload.command, config, report, seed)
            for result in traced:
                if result["failures"]:
                    raise CheckFailed("; ".join(result["failures"]))
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False

        runs = len(timed) + len(traced)
        if args.trace:
            metrics = median_layers(traced, timed, workload.workers)
            units = PER_LAYER
        else:
            metrics = {
                "setup_s": statistics.median(s["setup_s"] for s in timed),
                "report_s": statistics.median(s["report_s"] for s in timed),
                "lists_per_s": statistics.median(lists / s["report_s"] for s in timed),
                "cpu_s": statistics.median(s["cpu_s"] for s in timed),
                "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
            }
            units = END_TO_END
        info = {
            "workload": workload.name,
            "seed": args.seed,
            "runs": runs,
            "workers": workload.workers,
            "blas_threads": BLAS_THREADS,
            "nproc": nproc(),
            "report_s_per_run": [round(s["report_s"], 4) for s in timed],
            "missing_wrappers": sorted({m for r in traced for m in r["missing"]}),
        }
        print(json.dumps(info))
        print(json.dumps({
            "correct": correct,
            "attempted": runs * attempted,
            "failed": runs * failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }))
        return 0
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def median_layers(traced: list[dict], timed: list[dict], workers: int) -> dict[str, float]:
    """Median of each per-layer metric over the traced runs, plus pool overhead:
    median timed report_s x workers - median serial cell busy time."""
    names = traced[0]["metrics"].keys()
    metrics = {name: statistics.median(r["metrics"][name] for r in traced) for name in names}
    busy = metrics["experiment.cell_busy_s"]
    report_s = statistics.median(s["report_s"] for s in timed)
    metrics["experiment.pool_overhead_s"] = report_s * workers - busy if busy else 0.0
    return metrics


if __name__ == "__main__":
    sys.exit(main())
