"""Print the sha256 of each workload's report for one seed.

    python3 bench/reports.py --seed 1

Writes each workload's inputs into a temporary directory under the
checkout, runs the workload's misinfosim subcommand on them the way a timed
run does, and prints one `<sha256>  <workload>` line per workload. The hashes
depend on the machine's floating-point libraries (ALS goes through BLAS), so
they are for reference, not a check.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORK, child_env
from workloads import WORKLOADS, program_seed, write_inputs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    WORK.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        work = Path(tempfile.mkdtemp(prefix=f"report-{workload.name}-", dir=WORK))
        try:
            config = write_inputs(workload, args.seed, work)
            out = work / "report.csv"
            cli = workload.cli_args(config, out, program_seed(args.seed))
            subprocess.run([sys.executable, "-m", "misinfosim.cli", *cli], env=child_env(),
                           cwd=ROOT, check=True, stderr=subprocess.DEVNULL)
            print(f"{hashlib.sha256(out.read_bytes()).hexdigest()}  {workload.name}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
