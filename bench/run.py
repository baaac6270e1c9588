"""Benchmark of the knotparity CLI: one workload, one seed, one run.

    python3 bench/run.py --workload census-s --seed 3 --seconds 30 --trace 0

Run from anywhere inside a checkout; only the checkout is read or written
(inputs, digests and traces go to ``.bench_out/``).  Workloads, metrics and
bounds are declared in BENCHMARK.json at the checkout root.

The measuring happens in worker.py, in a fresh interpreter with one thread,
started with PYTHONHASHSEED fixed so that set iteration order in the program
is the same on every run, and with bytecode compiled beforehand.  Set-up time
(interpreter start, import, input generation, warm-up) is taken from several
set-up-only interpreters and reported as the median.

Every time among the end-to-end metrics is scaled to a reference machine
speed: a fixed kernel (speed.py) is timed on either side of each request and
of each set-up, and the time in between is divided by the kernel's slowdown
against its reference time.  The machine's speed drifts by tens of percent
within seconds; the scaled times much less, while a change to knotparity moves
them as much as it moves wall time.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics, the end-to-end metrics with ``--trace 0`` and the per-layer ones
with ``--trace 1``.  Exits non-zero, printing no result, when the checkout
has no knotparity sources or a worker fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "knotparity"

import speed  # noqa: E402  (sits next to this file)
from census import WORKLOADS  # noqa: E402

SETUP_PROBES = 15         # set-up-only interpreters started before measuring
DEADLINE_S = 170.0        # a run ends within this, or fails

class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONSTARTUP", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_worker(args, deadline, setup_only):
    """Start a worker; returns (process, seconds until it printed READY)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        finish(proc, deadline)
        raise BenchError(f"worker did not get ready (read {line!r})")
    return proc, setup


def finish(proc, deadline):
    """Wait for a worker and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def declared_units(trace):
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def bench(args):
    units = declared_units(args.trace)
    deadline = time.monotonic() + DEADLINE_S
    for tree in (PACKAGE, BENCH):
        if not compileall.compile_dir(tree, quiet=1):
            raise BenchError(f"cannot compile {tree}")
    raw_setups = []
    speed.probe()
    probes = [speed.probe()]
    for _ in range(0 if args.trace else SETUP_PROBES):
        proc, setup = start_worker(args, deadline, setup_only=True)
        finish(proc, deadline)
        raw_setups.append(setup)
        probes.append(speed.probe())
    setups = speed.scale(raw_setups, probes)
    proc, _ = start_worker(args, deadline, setup_only=False)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(metrics)} are not the declared {sorted(units)}")
    notes = result["notes"]
    for name, value in sorted(metrics.items()):
        print(f"{name} = {value} {units[name]}")
    if "tail_percentile" in notes:
        print(
            f"diagram_tail_ms is p{notes['tail_percentile']:g} of "
            f"{notes['samples']} per-diagram medians over {notes['passes']} passes"
        )
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate = {failed / attempted} ({failed} of {attempted} requests failed)")
    if not args.trace:
        print(f"setup samples (s, scaled): {setups}")
        print(f"setup samples (s, wall): {raw_setups}")
        print(f"measured {notes['wall_s']:.1f} s of wall time; speed probe median "
              f"{notes['probe_median_s'] * 1000:.3f} ms, reference {speed.REFERENCE_PROBE_S * 1000:g} ms")
    seed_note = "checked against reference.json" if notes["reference"] else "no reference for this seed"
    print(f"output digest {notes['digest']} ({seed_note})")
    for key in ("verify_totals", "traced_wall_s", "untraced_wall_s", "unattributed_s", "spans", "trace_file", "self_share"):
        if notes.get(key) is not None:
            print(f"{key}: {json.dumps(notes[key])}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    return {
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no knotparity sources under {PACKAGE.parent}", file=sys.stderr)
        return 2
    try:
        result = bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
