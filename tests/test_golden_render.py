"""Golden renders: byte-identical output against recorded reference data.

``golden_renders.json`` holds, for fixed seeds, the canonical renders of
random quotient-ring elements and of their products and q-multiples, and the
``s``/``nprime`` renders, unit records and comparison witnesses of the
fixtures and of seeded random diagrams.  Any change to how ring elements are
stored, multiplied, normalized or rendered must reproduce it exactly.

Re-record (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_render.py
"""

import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotparity.diagram import parse_file
from knotparity.invariant import compare, make_value, nprime_invariant, s_invariant
from knotparity.moves import random_diagram
from knotparity.rings import g_ring, rprime_ring

from test_rings import rand_raw

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "golden_renders.json"

RINGS = (g_ring(1), g_ring(2), rprime_ring())
N_ELEMENTS = 200
N_DIAGRAMS = 40
N_PRODUCTS = 100


def random_elements():
    rng = random.Random(20130509)
    return [
        RINGS[i % 3].from_raw(rand_raw(rng, RINGS[i % 3], terms=5, qmax=3))
        for i in range(N_ELEMENTS)
    ]


def ring_records():
    elems = random_elements()
    return {
        "elements": [e.render() for e in elems],
        # elements i and i+3 share a ring
        "products": [(elems[i] * elems[i + 3]).render() for i in range(N_PRODUCTS)],
        "times_q": [(e * e.ring.element(q=1)).render() for e in elems],
    }


def _unit(rec):
    return None if rec is None else [rec.sign, rec.t_shift, rec.p_shift, rec.q_power]


def _value_record(value, rng):
    """Render and unit record of a value, and the witness that compare finds
    between it and a seeded random unit multiple of itself."""
    ring = value.det.ring
    other = value.det * ring.element(rng.choice((1, -1)), t=rng.randint(-3, 3), p=rng.randint(-3, 3))
    if rng.random() < 0.5:
        other = other * ring.element(q=1)
    res = compare(value, make_value(value.tag, other))
    return {
        "render": value.render(),
        "unit": _unit(value.record),
        "compare": [res.verdict, _unit(res.unit), res.expressed],
    }


def golden_diagrams():
    out = []
    for fixture in ("sample.gauss", "torus_pair.surf"):
        out.extend(parse_file(FIXTURES / fixture)[0])
    rng = random.Random(1305_2120)
    for i in range(N_DIAGRAMS):
        out.append(random_diagram(rng, 6 + i % 5, genus=i % 3, name=f"rnd{i}"))
    return out


def diagram_records():
    rng = random.Random(7)
    out, prev = [], None
    for d in golden_diagrams():
        nprime = nprime_invariant(d)
        rec = {
            "diagram": d.name,
            "s": _value_record(s_invariant(d), rng),
            "nprime": _value_record(nprime, rng),
        }
        if prev is not None:
            # nprime values all live in one ring: compare neighbours
            res = compare(prev, nprime)
            rec["nprime_vs_previous"] = [res.verdict, _unit(res.unit), res.expressed]
        out.append(rec)
        prev = nprime
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_ring_renders_match_golden(golden):
    assert ring_records() == golden["rings"]


def test_invariant_renders_and_units_match_golden(golden):
    assert diagram_records() == golden["diagrams"]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_full_poly_round_trip(seed):
    # rebuilding the rendered pair from the stored components and reading it
    # back through from_raw must give the same element
    rng = random.Random(seed)
    ring = RINGS[seed % 3]
    x = ring.from_raw(rand_raw(rng, ring, terms=5, qmax=3))
    y = ring.from_raw(rand_raw(rng, ring, terms=3, qmax=3))
    for e in (x, x * y, x * ring.element(q=1)):
        assert ring.from_raw(e.to_full_poly()) == e


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({"rings": ring_records(), "diagrams": diagram_records()}, indent=1)
        + "\n"
    )
