#!/usr/bin/env python3
"""End-to-end walkthrough of the torus-pair distinctness certificate.

Loads the two genus-1 fixtures, prints their parities, matrices, and
canonical determinant invariants, and shows the comparison verdict.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from knotparity.diagram import parse_file
from knotparity.invariant import compare, s_invariant
from knotparity.matrix import build_M
from knotparity.parity import parity_map


def main():
    fixtures = Path(__file__).resolve().parent.parent / "fixtures" / "torus_pair.surf"
    diagrams, _ = parse_file(fixtures)
    values = {}
    for d in diagrams:
        print(f"== {d.name}: {d.serialize()}")
        par, counts = parity_map(d), d.chords.counts
        for c in sorted(counts):
            print(f"   crossing {c}: interlacement {counts[c]} -> {par[c]}")
        m = build_M(d, par)
        print(f"   matrix ({m.shape[0]}x{m.shape[1]}):")
        for line in m.render_rows():
            print("     " + line)
        values[d.name] = s_invariant(d)
        print(f"   s = {values[d.name].render()}")
    res = compare(values["1.12"], values["1.13bar"])
    print(f"== verdict: {res.verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
