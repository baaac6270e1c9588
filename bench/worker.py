"""One benchmark run in a fresh interpreter: set up, then measure.

    python bench/worker.py --workload W --seed S --seconds T --trace 0|1 [--setup-only]

run.py starts this with PYTHONHASHSEED fixed and the checkout's ``src`` on
the path.  Set-up imports the package, writes the seeded inputs under
``.bench_out/<workload>-<seed>/`` and runs one warm-up request per request
kind; then the worker prints ``READY``.  Measuring is closed-loop with one
client: each request calls ``knotparity.cli.run`` in-process with stdout
captured and starts when the previous one has returned.  Untraced runs time
a speed probe between requests (speed.py) and write the unscaled latencies
and the probe times to ``latencies.json``.  The last line is a JSON object for run.py.

A request fails when it raises, exits non-zero, produces output that breaks
a structural check (parity and type maps are recomputed independently by
census.py), differs from its own output in an earlier pass, or differs from
the digest recorded in reference.json for this seed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import census  # noqa: E402  (sits next to this file)
import speed  # noqa: E402
from spans import Tracer, probe_targets  # noqa: E402

REFERENCE = BENCH / "reference.json"
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Request:
    """One unit of closed-loop work: a census diagram or one verify trial."""

    def __init__(self, workload, item, out_dir):
        self.workload = workload
        if workload == "verify-sweep":
            self.key = f"trial{item}"
            self.body = None
            self.report = out_dir / "report.json"
            self.argvs = [[
                "verify", "--trials", "1",
                "--max-crossings", str(census.VERIFY_MAX_CROSSINGS),
                "--genus", str(census.VERIFY_GENUS),
                "--seed", str(item), "--invariant", "both",
                "--report", str(self.report),
            ]]
            return
        head, self.body = item.split(":", 1)
        self.key = head.split(";")[-1].strip()
        path = out_dir / (self.key + (".surf" if workload == "census-s" else ".gauss"))
        path.write_text(item + "\n")
        if workload == "census-s":
            self.argvs = [["invariant", "--type", "s", "--json", str(path)]]
        else:
            self.argvs = [
                ["invariant", "--type", "nprime", "--json", str(path)],
                ["dump-matrix", "--type", "presentation", "--json", str(path)],
            ]


def call(cli, argv, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is None:
            rc = cli.run(argv)
        else:
            with tracer.span("cli"):
                rc = cli.run(argv)
    return rc, out.getvalue()


def load_reference(workload, seed):
    """The entry reference.json holds for this seed, or None."""
    try:
        return json.loads(REFERENCE.read_text())[workload][str(seed)]
    except (OSError, KeyError, ValueError):
        return None


def digest(stdouts):
    return hashlib.sha256("\0".join(stdouts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Output checks


def _check_invariant_json(req, text, ring, problems):
    entries = json.loads(text)
    if len(entries) != 1 or entries[0]["name"] != req.key:
        problems.append("invariant output is not one entry for this diagram")
        return
    entry = entries[0]
    parity, types = census.parity_and_types(req.body)
    if entry["ring"] != ring or not entry["canonical"]:
        problems.append(f"ring {entry['ring']!r} or empty value")
    if entry["parity"] != {str(c): v for c, v in sorted(parity.items())}:
        problems.append("parity map differs from the independent one")
    if entry["types"] != {str(c): v for c, v in sorted(types.items())}:
        problems.append("type map differs from the independent one")
    unit = entry["unit_record"]
    if unit["sign"] not in (1, -1) or unit["q_power"] != 0:
        problems.append(f"bad unit record {unit}")


def _check_presentation_json(req, text, problems):
    m = json.loads(text)
    _, types = census.parity_and_types(req.body)
    # rows: one per type-1/2 crossing, two per type-0; generators: one per
    # under-passage plus one per type-0 over-passage
    size = len(types) + sum(1 for v in types.values() if v == 0)
    if m["name"] != req.key or m["ring"] != "Rraw" or m["shape"] != [size, size]:
        problems.append(f"presentation {m['ring']} {m['shape']}, expected Rraw {size}x{size}")


def _check_reports(req, stdout, problems):
    reports = json.loads(req.report.read_text())
    if [r["invariant"] for r in reports] != ["s", "nprime"]:
        problems.append("verify report does not cover both invariants")
    for r in reports:
        if not r["ok"] or r["counterexamples"]:
            problems.append(f"{r['invariant']}: {len(r['counterexamples'])} counterexamples")
        if r["moves_checked"] != sum(r["by_kind"].values()):
            problems.append(f"{r['invariant']}: by_kind does not sum to moves_checked")
        if r["compares"] + r["skipped_boundary"] != r["moves_checked"]:
            problems.append(f"{r['invariant']}: compares + skipped != moves_checked")
    if stdout.count("zero counterexamples") != 2:
        problems.append("verify output does not report zero counterexamples twice")
    return reports


def check(req, outputs):
    """(problems, digest, verify reports or None) of one request's outputs."""
    problems = []
    for argv, (rc, _) in zip(req.argvs, outputs):
        if rc != 0:
            problems.append(f"{argv[0]} exited {rc}")
    reports = None
    if not problems:
        stdouts = [text for _, text in outputs]
        try:
            if req.workload == "census-s":
                _check_invariant_json(req, stdouts[0], "G", problems)
            elif req.workload == "census-nprime":
                _check_invariant_json(req, stdouts[0], "Rprime", problems)
                _check_presentation_json(req, stdouts[1], problems)
            else:
                reports = _check_reports(req, stdouts[0], problems)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"malformed output: {exc!r}")
    return problems, digest([text for _, text in outputs]), reports


# ---------------------------------------------------------------------------
# Running


class Run:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.out_dir = ROOT / ".bench_out" / f"{workload}-{seed}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.items = census.generate(workload, seed)
        self.requests = [Request(workload, item, self.out_dir) for item in self.items]
        self.digests = [None] * len(self.requests)
        self.totals = None                  # verify report totals of one pass
        self.attempted = self.failed = 0
        self.problems = []
        ref = load_reference(workload, seed)
        self.has_reference = ref is not None
        self.expected = [None] * len(self.requests)
        self.expected_totals = None
        if ref is not None:
            if ref["inputs"] != census.inputs_digest(self.items):
                self.problems.append("generated inputs differ from the recorded ones")
            else:
                self.expected = ref["outputs"]
                self.expected_totals = ref.get("reports")
        from knotparity import cli

        self.cli = cli

    def warm_up(self):
        warm_dir = self.out_dir / "warmup"
        warm_dir.mkdir(exist_ok=True)
        for item in census.WARMUP[self.workload]:
            req = Request(self.workload, item, warm_dir)
            for argv in req.argvs:
                call(self.cli, argv)
        speed.probe()

    def execute(self, i, req, tracer=None):
        """Run and check request i; returns (latency seconds, checks, reports)."""
        self.attempted += 1
        problems, reports, elapsed = [], None, 0.0
        try:
            start = time.perf_counter()
            outputs = [call(self.cli, argv, tracer) for argv in req.argvs]
            elapsed = time.perf_counter() - start
            problems, dig, reports = check(req, outputs)
            if self.expected[i] not in (None, dig):
                problems.append("output differs from reference.json")
            if self.digests[i] is None:
                self.digests[i] = dig
            elif self.digests[i] != dig:
                problems.append("output differs from the first pass")
        except Exception as exc:  # a failed request is counted, the run goes on
            problems.append(f"raised {exc!r}")
        if problems:
            self.failed += 1
            self.problems.extend(f"{req.key}: {p}" for p in problems)
        if reports is not None:
            checks = sum(r["moves_checked"] for r in reports)
        else:
            checks = len(req.argvs)
        return elapsed, checks, reports

    def run_pass(self, tracer=None, probed=False):
        """One pass over the requests: (wall seconds, latencies, checks,
        probes).  With `probed`, a speed probe (speed.py) runs before the
        first request and after each one, so request i lies between
        probes[i] and probes[i + 1]."""
        latencies, checks, probes = [], 0, []
        totals = {}
        start = time.perf_counter()
        if probed:
            probes.append(speed.probe())
        for i, req in enumerate(self.requests):
            if tracer is None:
                elapsed, n, reports = self.execute(i, req)
            else:
                with tracer.span("bench.request"):
                    elapsed, n, reports = self.execute(i, req, tracer)
            if probed:
                probes.append(speed.probe())
            latencies.append(elapsed)
            checks += n
            for r in reports or ():
                t = totals.setdefault(r["invariant"], {
                    "moves_checked": 0, "compares": 0, "skipped_boundary": 0,
                    "counterexamples": 0, "by_kind": {},
                })
                for k in ("moves_checked", "compares", "skipped_boundary"):
                    t[k] += r[k]
                t["counterexamples"] += len(r["counterexamples"])
                for kind, n_kind in r["by_kind"].items():
                    t["by_kind"][kind] = t["by_kind"].get(kind, 0) + n_kind
        wall = time.perf_counter() - start
        if self.workload == "verify-sweep":
            totals = {k: dict(v, by_kind=dict(sorted(v["by_kind"].items()))) for k, v in totals.items()}
            if self.totals is None:
                self.totals = totals
            elif self.totals != totals:
                self.problems.append("verify counts differ between passes")
            if self.expected_totals not in (None, totals):
                self.problems.append(f"verify counts {totals} differ from reference.json")
        return wall, latencies, checks, probes

    def record(self):
        """What reference.json stores for this seed, also written for
        seeds without an entry so two commits can be compared."""
        rec = {"inputs": census.inputs_digest(self.items), "outputs": self.digests}
        if self.workload == "verify-sweep":
            rec["reports"] = self.totals
        return rec


def tail(values):
    """(percentile, value): the highest percentile of TAIL_LADDER with at
    least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        k = int(n * p / 100)           # samples at or below
        if n - k >= 10 and k >= 1:
            return p, ordered[k - 1]
    return 50.0, statistics.median(ordered)


def measure(run, seconds):
    """Whole passes over the inputs until `seconds` of wall time would be
    exceeded; latencies are scaled to the reference speed (see speed.py)."""
    per_request = [[] for _ in run.requests]
    wall, busy, checks, passes = 0.0, 0.0, 0, 0
    record = []
    while passes == 0 or wall + wall / passes <= seconds:
        pass_wall, latencies, n, probes = run.run_pass(probed=True)
        record.append({"latencies": latencies, "probes": probes})
        latencies = speed.scale(latencies, probes)
        for acc, x in zip(per_request, latencies):
            acc.append(x)
        wall += pass_wall
        busy += sum(latencies)
        checks += n
        passes += 1
    (run.out_dir / "latencies.json").write_text(json.dumps(record) + "\n")
    medians = [statistics.median(xs) for xs in per_request]
    pct, tail_s = tail(medians)
    done = len(run.requests) * passes
    return {
        "diagrams_per_s": done / busy,
        "checks_per_s": checks / busy,
        "diagram_p50_ms": statistics.median(medians) * 1000,
        "diagram_tail_ms": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"passes": passes, "samples": len(medians), "tail_percentile": pct, "wall_s": wall,
        "probe_median_s": statistics.median(p for r in record for p in r["probes"])}


def measure_traced(run):
    """One untraced and one traced pass over the same inputs."""
    untraced_wall, *_ = run.run_pass()
    targets = probe_targets()
    before = [getattr(mod, attr) for mod, attr in targets]
    tracer = Tracer()
    with tracer.installed():
        traced_wall, *_ = run.run_pass(tracer)
    if any(getattr(mod, attr) is not orig for (mod, attr), orig in zip(targets, before)):
        run.problems.append("a traced attribute was not restored")
    selfs = tracer.self_times()

    def self_s(*names):
        return sum(selfs.get(n, (0.0, 0))[0] for n in names)

    overhead = traced_wall - untraced_wall
    unattributed = traced_wall - sum(total for total, _ in selfs.values())
    if abs(unattributed) > max(abs(overhead), 0.001 * traced_wall):
        run.problems.append(
            f"self times leave {unattributed:.4f} s of the traced pass unattributed"
        )
    terms = tracer.samples.get("rings.det", [])
    dims = tracer.samples.get("matrix.build", [])
    totals = run.totals or {}
    metrics = {
        "rings.det_s": self_s("rings.det"),
        "rings.det_calls": selfs.get("rings.det", (0, 0))[1],
        "rings.det_terms_p50": statistics.median(terms) if terms else 0,
        "rings.det_terms_max": max(terms, default=0),
        "matrix.build_s": self_s("matrix.build"),
        "matrix.dim_p50": statistics.median(dims) if dims else 0,
        "matrix.dim_max": max(dims, default=0),
        "matrix.presentation_s": self_s("matrix.presentation"),
        "parity.parity_s": self_s("parity.parity"),
        "diagram.parse_s": self_s("diagram.parse"),
        "diagram.arcs_s": self_s("diagram.arcs"),
        "invariant.normalize_s": self_s("invariant.normalize"),
        "invariant.compare_s": self_s("invariant.compare"),
        "invariant.compare_calls": selfs.get("invariant.compare", (0, 0))[1],
        "moves.applicable_s": self_s("moves.applicable"),
        "moves.apply_s": self_s("moves.apply"),
        "moves.verify_self_s": self_s("moves.verify"),
        "moves.checks": sum(t["moves_checked"] for t in totals.values()),
        "moves.compares": sum(t["compares"] for t in totals.values()),
        "moves.skipped_boundary": sum(t["skipped_boundary"] for t in totals.values()),
        "cli.self_s": self_s("cli"),
        "trace.overhead_s": overhead,
    }
    trace_file = run.out_dir / "trace.json"
    with trace_file.open("w") as fh:
        json.dump({"spans": tracer.spans, "self_s": selfs}, fh, separators=(",", ":"))
    shares = sorted(
        ((total / traced_wall, name) for name, (total, _) in selfs.items()), reverse=True
    )
    return metrics, {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "unattributed_s": unattributed,
        "spans": len(tracer.spans),
        "self_share": {name: round(share, 4) for share, name in shares},
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=census.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    run = Run(args.workload, args.seed)
    if not run.cli.__file__.startswith(str(ROOT / "src")):
        raise SystemExit(f"knotparity imported from {run.cli.__file__}, not this checkout")
    run.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        metrics, notes = measure_traced(run)
    else:
        metrics, notes = measure(run, args.seconds)
    record = run.record()
    (run.out_dir / "digests.json").write_text(json.dumps(record, indent=1) + "\n")
    notes.update({
        "reference": run.has_reference,
        "digest": hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest(),
        "verify_totals": run.totals,
    })
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "notes": notes,
        "problems": run.problems[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
