"""One timed run: a fresh process that executes a misinfosim subcommand.

    python3 bench/child.py <spawn_ns> <result.json> <misinfosim CLI args...>

`spawn_ns` is the parent's CLOCK_MONOTONIC reading just before it started
this process. The run goes through `misinfosim.cli.main`, so it makes the
same public calls as the CLI and writes the same report. The only addition
is a time stamp taken when `resolve_dataset` returns, which splits the run
into set-up (process start to dataset in memory) and report time (dataset
in memory to report written). The timings go to `result.json`.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def checkout_cli():
    """misinfosim.cli, imported from the checkout's src/ and from nowhere else."""
    import misinfosim
    from misinfosim import cli

    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(misinfosim.__file__).resolve().is_relative_to(src):
        sys.exit(f"misinfosim was imported from {misinfosim.__file__}, not from {src}")
    return cli


def main() -> int:
    spawn_ns = int(sys.argv[1])
    result_path = Path(sys.argv[2])
    argv = sys.argv[3:]
    cli = checkout_cli()

    stamps = {}
    resolve_dataset = cli.resolve_dataset

    def stamped(parser):
        ds = resolve_dataset(parser)
        stamps["dataset"] = time.monotonic_ns()
        return ds

    cli.resolve_dataset = stamped
    code = cli.main(argv)
    end_ns = time.monotonic_ns()
    if code != 0:
        return code
    result = {
        "setup_s": (stamps["dataset"] - spawn_ns) / 1e9,
        "report_s": (end_ns - stamps["dataset"]) / 1e9,
    }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
