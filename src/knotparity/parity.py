"""Chord-diagram interlacement, Gaussian parity, and crossing types.

The chord diagram of a code places the two passages of each crossing on a
circle and joins them by a chord.  A crossing is even when its chord meets an
even number of other chords.  Types refine this: odd crossings get type 0;
deleting their chords and re-testing the survivors splits the even crossings
into type 1 (odd after deletion) and type 2 (still even).
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Passage

EVEN = "even"
ODD = "odd"


@dataclass(frozen=True)
class ChordData:
    """Chord endpoints (positions among passages) and interlacement counts."""

    endpoints: dict       # crossing -> (pos, pos)
    counts: dict          # crossing -> number of interleaving chords

    def interleave(self, c1, c2):
        return _interleave(self.endpoints[c1], self.endpoints[c2])


def _chords(tokens):
    endpoints = {}
    pos = 0
    for tok in tokens:
        if isinstance(tok, Passage):
            endpoints.setdefault(tok.crossing, []).append(pos)
            pos += 1
    return {c: tuple(ps) for c, ps in endpoints.items()}


def _interleave(e1, e2):
    a, b = sorted(e1)
    x, y = e2
    return (a < x < b) != (a < y < b)


def chord_data(d):
    """Interlacement data of a diagram (side tokens and vertices ignored)."""
    endpoints = _chords(d.tokens)
    counts = {
        c: sum(1 for o, e2 in endpoints.items() if o != c and _interleave(e1, e2))
        for c, e1 in endpoints.items()
    }
    return ChordData(endpoints, counts)


def gaussian_parity(cd):
    """Crossing -> even/odd from interlacement counts."""
    return {c: (EVEN if n % 2 == 0 else ODD) for c, n in cd.counts.items()}


def parity_map(d):
    return gaussian_parity(chord_data(d))


def hierarchy_types(d):
    """Crossing -> type in {0, 1, 2}.

    Odd crossings get type 0.  Among the rest, interlacement is recomputed
    with the odd chords deleted: odd survivors get type 1, even ones type 2.
    """
    cd = chord_data(d)
    par = gaussian_parity(cd)
    types = {c: 0 for c, pv in par.items() if pv == ODD}
    survivors = [c for c, pv in par.items() if pv == EVEN]
    for c in survivors:
        n = sum(
            1
            for o in survivors
            if o != c and _interleave(cd.endpoints[c], cd.endpoints[o])
        )
        types[c] = 1 if n % 2 else 2
    return types
