"""In-memory span tracing of knotparity's layers, from outside the package.

Each layer is a module.  A probe replaces a public function at the module
attribute its caller looks up (``invariant.build_M``, not ``matrix.build_M``,
because invariant imported the name) with a wrapper that records a span:
name, start, end and the index of the enclosing span.  Leaving
``Tracer.installed()`` puts every original object back.  The program is
single-threaded, so one stack gives the parent of each span and spans never
overlap their siblings.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager


def _det_terms(elem):
    return len(elem.a.terms) + len(elem.b.terms)


def _dim(matrix):
    return matrix.shape[0]


# (module, attribute, span name, observer of the return value)
PROBES = (
    ("knotparity.cli", "parse_file", "diagram.parse", None),
    ("knotparity.cli", "parity_map", "parity.parity", None),
    ("knotparity.cli", "hierarchy_types", "parity.parity", None),
    ("knotparity.cli", "s_invariant", "invariant.entry", None),
    ("knotparity.cli", "nprime_invariant", "invariant.entry", None),
    ("knotparity.cli", "n_presentation", "invariant.entry", None),
    ("knotparity.cli", "build_M", "matrix.build", _dim),
    ("knotparity.cli", "build_Npp", "matrix.build", _dim),
    ("knotparity.cli", "compare", "invariant.compare", None),
    ("knotparity.cli", "verify_invariance", "moves.verify", None),
    ("knotparity.invariant", "parity_map", "parity.parity", None),
    ("knotparity.invariant", "hierarchy_types", "parity.parity", None),
    ("knotparity.invariant", "build_M", "matrix.build", _dim),
    ("knotparity.invariant", "build_Npp", "matrix.build", _dim),
    ("knotparity.invariant", "build_N_presentation", "matrix.presentation", None),
    ("knotparity.invariant", "make_value", "invariant.normalize", None),
    ("knotparity.invariant", "normalize", "invariant.normalize", None),
    ("knotparity.rings", "det", "rings.det", _det_terms),
    ("knotparity.matrix", "arcs", "diagram.arcs", None),
    ("knotparity.matrix", "short_arcs", "diagram.arcs", None),
    ("knotparity.moves", "applicable", "moves.applicable", None),
    ("knotparity.moves", "apply", "moves.apply", None),
    ("knotparity.moves", "parity_map", "parity.parity", None),
    ("knotparity.moves", "hierarchy_types", "parity.parity", None),
    ("knotparity.moves", "s_invariant", "invariant.entry", None),
    ("knotparity.moves", "nprime_invariant", "invariant.entry", None),
    ("knotparity.moves", "compare", "invariant.compare", None),
)


def probe_targets():
    """(module object, attribute) of every probe, for snapshots."""
    return [(importlib.import_module(m), attr) for m, attr, _, _ in PROBES]


class Tracer:
    """Spans and per-span samples of one traced run."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.samples = {}      # span name -> observed values
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name, observe):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                self.samples.setdefault(name, []).append(observe(result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every probe; put each original object back on exit."""
        saved = []
        try:
            for module, attr, name, observe in PROBES:
                mod = importlib.import_module(module)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original, name, observe))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def self_times(self):
        """Span name -> (total self seconds, span count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            total, count = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - covered, count + 1)
        return out
