"""The benchmark's span tracer wraps package functions by module attribute
name and reads some return values through observers; a rename in the
package, or a change to what a probed function returns, would otherwise
break traced runs only when one is made."""

import importlib.util
import pathlib

from knotparity import rings
from knotparity.diagram import parse_file
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
                returned["rings.det"].append(rings.det([[m.ring.from_raw(e) for e in row] for row in m.entries], m.ring))
    observers = {(name, observe) for _, _, name, observe in _load_spans().PROBES if observe is not None}
    assert {name for name, _ in observers} == set(returned)
    for name, observe in observers:
        for value in returned[name]:
            seen = observe(value)
            assert type(seen) is int and seen >= 0, (name, seen)
