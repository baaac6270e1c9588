"""The benchmark's span tracer wraps package functions by module attribute
name and reads some return values through observers; a rename in the
package, or a change to what a probed function returns, would otherwise
break traced runs only when one is made."""

import importlib.util
import pathlib

from knotparity import cli, rings
from knotparity.diagram import Diagram, parse_file
from knotparity.matrix import build_M, build_Npp
from knotparity.parity import hierarchy_types, parity_map

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_probe_names_a_callable():
    spans = _load_spans()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in spans.probe_targets()
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, missing


def test_every_observer_reads_a_real_return_value():
    # span name -> return values of the probed functions on the fixtures
    returned = {"rings.det": [], "matrix.build": []}
    for fixture in ("torus_pair.surf", "sample.gauss"):
        for d in parse_file(ROOT / "fixtures" / fixture)[0]:
            for m in (build_M(d, parity_map(d)), build_Npp(d, hierarchy_types(d))):
                returned["matrix.build"].append(m)
                returned["rings.det"].append(rings.det(m.cells, m.ring))
    observers = {(name, observe) for _, _, name, observe in _load_spans().PROBES if observe is not None}
    assert {name for name, _ in observers} == set(returned)
    for name, observe in observers:
        for value in returned[name]:
            seen = observe(value)
            assert type(seen) is int and seen >= 0, (name, seen)


def test_invariant_json_records_normalize_and_det_spans(capsys):
    """``invariant --json`` normalizes only to print, after the value is built;
    that normalize must still be seen through the probed module attribute."""
    fixture = str(ROOT / "fixtures" / "torus_pair.surf")
    tracer = _load_spans().Tracer()
    with tracer.installed():
        assert cli.run(["invariant", "--type", "s", "--json", fixture]) == 0
    capsys.readouterr()
    names = [name for name, _, _, _ in tracer.spans]
    assert "rings.det" in names
    # make_value spans sit inside invariant.entry; the printing one does not
    printed = [
        parent for name, _, _, parent in tracer.spans
        if name == "invariant.normalize" and (parent < 0 or names[parent] != "invariant.entry")
    ]
    assert printed, names


def test_invariant_json_charges_the_chord_pass_to_parity(capsys, monkeypatch):
    """Each diagram's chord pass runs inside a ``parity.parity`` span, so a
    traced run charges it to the parity layer, not to the CLI's self time."""
    fixture = str(ROOT / "fixtures" / "torus_pair.surf")
    tracer = _load_spans().Tracer()
    enclosing = []
    original = Diagram.chords.func

    def recorded(d):
        # the innermost span still open, whose end is not yet written
        open_spans = [name for name, _, end, _ in tracer.spans if end == 0.0]
        enclosing.append(open_spans[-1] if open_spans else None)
        return original(d)

    monkeypatch.setattr(Diagram.chords, "func", recorded)
    with tracer.installed():
        assert cli.run(["invariant", "--type", "s", "--json", fixture]) == 0
    capsys.readouterr()
    assert enclosing == ["parity.parity", "parity.parity"]
