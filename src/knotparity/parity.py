"""Gaussian parity and crossing types, read off a diagram's chord data.

A crossing is even when its chord meets an even number of other chords
(``Diagram.chords`` holds each crossing's link set and interlacement count).
Types refine this: odd crossings get type 0; deleting their chords and
re-testing the survivors splits the even crossings into type 1 (odd after
deletion) and type 2 (still even).  Deleting the odd chords intersects every
link set with the bit set of the even crossings, so each even crossing's type
is the parity of one masked link set, with no second pass.
"""

from __future__ import annotations

EVEN = "even"
ODD = "odd"


def parity_map(d):
    """Crossing -> even/odd from interlacement counts."""
    return {c: (EVEN if n % 2 == 0 else ODD) for c, n in d.chords.counts.items()}


def hierarchy_types(d):
    """Crossing -> type in {0, 1, 2}.

    Odd crossings get type 0.  With the odd chords deleted, an even crossing
    meets the even chords among its links: an odd number gives type 1, an
    even number type 2.
    """
    cd = d.chords
    even = 0
    for c, n in cd.counts.items():
        if n % 2 == 0:
            even |= cd.bits[c]
    return {
        c: 0 if n % 2 else 1 if (cd.links[c] & even).bit_count() % 2 else 2
        for c, n in cd.counts.items()
    }
