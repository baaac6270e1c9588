"""The benchmark's span tracer wraps package functions by module attribute
name; a rename in the package would otherwise break traced runs only when
one is made."""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_probe_names_a_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in spans.probe_targets()
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, missing
