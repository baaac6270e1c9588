"""Golden matrices: the crossing/arc matrices against recorded reference data.

``golden_matrices.json`` holds, for the fixtures and for seeded random
diagrams (genus 0-2, 0-12 crossings, some with subdivision vertices), the
shape, row keys, column keys and rendered nonzero entries of the ``s``,
``nprime`` and presentation matrices.  Any change to how arcs are walked or
matrices are filled must reproduce it exactly.

Re-record (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_matrix.py
"""

import json
import pathlib
import random

import pytest

from knotparity.diagram import Diagram, Vertex, parse_file
from knotparity.matrix import build_M, build_N_presentation, build_Npp
from knotparity.moves import random_diagram
from knotparity.parity import hierarchy_types, parity_map

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "golden_matrices.json"

N_DIAGRAMS = 210


def golden_diagrams():
    out = []
    for fixture in ("sample.gauss", "torus_pair.surf"):
        out.extend(parse_file(FIXTURES / fixture)[0])
    rng = random.Random(2013_0509)
    for i in range(N_DIAGRAMS):
        d = random_diagram(rng, i % 13, genus=i % 3, name=f"rnd{i}")
        if i % 4 == 3:
            # splice in one to three subdivision vertices at random gaps
            toks = list(d.tokens)
            for vid in range(1, rng.randint(1, 3) + 1):
                gap = rng.randint(0, len(toks))
                toks[gap:gap] = [Vertex(vid)]
            d = Diagram(d.name, d.genus, tuple(toks))
        out.append(d)
    return out


def _matrix_record(m):
    return {
        "tag": m.tag,
        "shape": list(m.shape),
        "rows": [list(k) if isinstance(k, tuple) else k for k in m.row_keys],
        "cols": [list(k) if isinstance(k, tuple) else k for k in m.col_keys],
        "entries": [
            [i, j, e.render()]
            for i, row in enumerate(m.entries)
            for j, e in enumerate(row)
            if not e.is_zero
        ],
    }


def matrix_records():
    out = []
    for d in golden_diagrams():
        types = hierarchy_types(d)
        out.append(
            {
                "diagram": str(d),
                "s": _matrix_record(build_M(d, parity_map(d))),
                "nprime": _matrix_record(build_Npp(d, types)),
                "presentation": _matrix_record(build_N_presentation(d, types)),
            }
        )
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_diagrams_cover_the_intended_range(golden):
    ds = golden_diagrams()
    assert len(ds) >= 200
    assert {d.genus for d in ds} == {0, 1, 2}
    assert {len(d.crossings) for d in ds} >= set(range(13))
    assert sum(1 for d in ds if d.vertex_ids) >= 50
    assert [str(d) for d in ds] == [rec["diagram"] for rec in golden]


def test_matrices_match_golden(golden):
    got = matrix_records()
    for new, old in zip(got, golden):
        assert new == old, old["diagram"]
    assert len(got) == len(golden)


if __name__ == "__main__":
    # one diagram per line keeps the file small and its diffs readable
    lines = (json.dumps(rec, separators=(",", ":")) for rec in matrix_records())
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n")
