"""Record reference.json: input and output digests for the benchmark's seeds.

    python3 bench/record_reference.py --seeds 0-19 [--workload census-s ...]

Runs one pass of each workload per seed, in a worker started exactly as
run.py starts it, and stores the sha256 of the generated inputs, the first
16 hex digits of the sha256 of each request's stdout, and for verify-sweep
the report counts.  Record on a commit whose outputs are known to be right:
from then on every run on a recorded seed fails on any byte that differs.
Entries of other seeds and workloads are kept.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from census import WORKLOADS
from run import BENCH, ROOT, child_env
from worker import REFERENCE


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-19")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for workload in args.workload or WORKLOADS:
        for seed in args.seeds:
            subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "0"],
                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, check=True,
            )
            digests = ROOT / ".bench_out" / f"{workload}-{seed}" / "digests.json"
            reference.setdefault(workload, {})[str(seed)] = json.loads(digests.read_text())
            print(f"recorded {workload} seed {seed}", flush=True)
    text = json.dumps(
        {w: dict(sorted(reference[w].items(), key=lambda kv: int(kv[0]))) for w in sorted(reference)},
        indent=1,
    )
    REFERENCE.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
