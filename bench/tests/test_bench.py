"""Tests of the benchmark itself (not of knotparity).

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json

import pytest

import census
import speed
import worker
from knotparity import cli, invariant
from spans import Tracer, probe_targets

REFERENCE = json.loads(worker.REFERENCE.read_text())


@pytest.mark.parametrize("workload", census.WORKLOADS)
def test_generator_is_byte_stable(workload):
    first = census.generate(workload, 0)
    assert census.generate(workload, 0) == first
    assert census.inputs_digest(first) == REFERENCE[workload]["0"]["inputs"]
    assert census.generate(workload, 1) != first


def test_verify_seeds_fill_every_cell_evenly():
    cells = [census.verify_cell(s) for s in census.verify_seeds(0)]
    assert cells == [c for c in census.VERIFY_CELLS for _ in range(census.VERIFY_PER_CELL)]


def _first_request(workload, tmp_path):
    return worker.Request(workload, census.generate(workload, 0)[0], tmp_path)


def test_tampered_render_fails_digest_check(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "ROOT", tmp_path)
    run = worker.Run("census-s", 0)
    run.execute(0, run.requests[0])
    assert (run.attempted, run.failed, run.problems) == (1, 0, [])

    render = invariant.InvariantValue.render
    monkeypatch.setattr(invariant.InvariantValue, "render", lambda v: render(v) + " ")
    req = run.requests[0]
    problems, _, _ = worker.check(req, [worker.call(cli, a) for a in req.argvs])
    assert problems == []          # still well-formed; only the digest can tell
    run = worker.Run("census-s", 0)
    run.execute(0, run.requests[0])
    assert (run.failed, run.problems) == (1, ["s000: output differs from reference.json"])


def test_seed_without_reference_still_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "ROOT", tmp_path)
    run = worker.Run("census-s", 10**9)
    run.execute(0, run.requests[0])
    assert not run.has_reference and run.failed == 0
    assert run.record()["outputs"][0] is not None


def test_structural_check_catches_a_wrong_parity(tmp_path):
    req = _first_request("census-nprime", tmp_path)
    outputs = [worker.call(cli, a) for a in req.argvs]
    entry = json.loads(outputs[0][1])
    entry[0]["parity"]["1"] = "odd" if entry[0]["parity"]["1"] == "even" else "even"
    outputs[0] = (0, json.dumps(entry))
    problems, _, _ = worker.check(req, outputs)
    assert problems == ["parity map differs from the independent one"]


def test_nonzero_exit_fails_the_request(tmp_path):
    req = _first_request("census-s", tmp_path)
    problems, _, _ = worker.check(req, [(1, "")])
    assert problems == ["invariant exited 1"]


def _snapshot():
    return [(mod, attr, getattr(mod, attr)) for mod, attr in probe_targets()]


@pytest.mark.parametrize("workload", census.WORKLOADS)
def test_traced_run_restores_every_attribute(workload, tmp_path):
    before = _snapshot()
    req = worker.Request(workload, census.WARMUP[workload][0], tmp_path)
    tracer = Tracer()
    with tracer.installed():
        assert all(getattr(m, a) is not orig for m, a, orig in before)
        with tracer.span("bench.request"):
            outputs = [worker.call(cli, a, tracer) for a in req.argvs]
    assert all(getattr(m, a) is orig for m, a, orig in before)
    assert worker.check(req, outputs)[0] == []

    selfs = tracer.self_times()
    assert {"bench.request", "cli", "rings.det", "matrix.build"} <= set(selfs)
    root = [end - start for name, start, end, parent in tracer.spans if parent < 0]
    assert sum(total for total, _ in selfs.values()) == pytest.approx(sum(root))


def test_restore_after_an_exception():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError
    assert all(getattr(m, a) is orig for m, a, orig in before)


def test_tail_keeps_ten_samples_beyond_it():
    assert worker.tail(list(range(1, 181))) == (90.0, 162)
    assert worker.tail(list(range(1, 101))) == (90.0, 90)
    assert worker.tail(list(range(1, 40))) == (75.0, 29)
    assert worker.tail(list(range(1, 16))) == (50.0, 8)


def test_scaling_divides_by_the_probe_slowdown():
    ref = speed.REFERENCE_PROBE_S
    assert speed.scale([0.3], [ref, ref]) == pytest.approx([0.3])
    assert speed.scale([0.3], [2 * ref, 2 * ref]) == pytest.approx([0.15])
    assert speed.scale([0.3, 0.3], [ref, ref, 3 * ref]) == pytest.approx([0.3, 0.15])
    assert 0 < speed.probe() < 1


def test_probed_pass_brackets_every_request(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "ROOT", tmp_path)
    run = worker.Run("verify-sweep", 0)
    run.requests = run.requests[:2]
    _, latencies, _, probes = run.run_pass(probed=True)
    assert len(latencies) == 2 and all(x > 0 for x in latencies)
    assert len(probes) == 3 and run.failed == 0
