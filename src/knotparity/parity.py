"""Chord-diagram interlacement, Gaussian parity, and crossing types.

The chord diagram of a code places the two passages of each crossing on a
circle and joins them by a chord.  A crossing is even when its chord meets an
even number of other chords.  Types refine this: odd crossings get type 0;
deleting their chords and re-testing the survivors splits the even crossings
into type 1 (odd after deletion) and type 2 (still even).

All of it comes from one pass over the passages, holding sets of crossings
as int bit sets.  Bit i stands for the i-th crossing in order of first
appearance, never for its id, which may be any int.  Two chords interleave
exactly when one has one passage strictly between the passages of the other.
Let prefix be the XOR of the bits of the passages read so far: a crossing
read twice drops out of it, one read once stays in.  So with P1 the prefix
just after the first passage of c and P2 the prefix just before its second,
P1 ^ P2 is the set of crossings with exactly one passage between the two --
the chords interleaving c, its link set, whose size is the interlacement
count.  Deleting the odd chords intersects every link set with the set of
even crossings, so each even crossing's type is the parity of one masked
link set, with no second pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Passage

EVEN = "even"
ODD = "odd"


@dataclass(frozen=True)
class ChordData:
    """Per crossing, in order of first appearance: its bit, its link set (the
    bit set of the chords interleaving it) and its interlacement count."""

    bits: dict            # crossing -> its bit
    links: dict           # crossing -> bit set of the interleaving chords
    counts: dict          # crossing -> number of interleaving chords


def chord_data(d):
    """Interlacement data of a diagram (side tokens and vertices ignored)."""
    bits, links = {}, {}
    prefix = 0
    for tok in d.tokens:
        if isinstance(tok, Passage):
            c = tok.crossing
            if c in bits:
                links[c] ^= prefix  # P1 ^ P2
            else:
                bits[c] = 1 << len(bits)
                links[c] = prefix ^ bits[c]  # P1
            prefix ^= bits[c]
    return ChordData(bits, links, {c: s.bit_count() for c, s in links.items()})


def gaussian_parity(cd):
    """Crossing -> even/odd from interlacement counts."""
    return {c: (EVEN if n % 2 == 0 else ODD) for c, n in cd.counts.items()}


def parity_map(d):
    return gaussian_parity(chord_data(d))


def hierarchy_types(d, cd=None):
    """Crossing -> type in {0, 1, 2}.

    Odd crossings get type 0.  With the odd chords deleted, an even crossing
    meets the even chords among its links: an odd number gives type 1, an
    even number type 2.  ``cd`` is d's ``chord_data`` when the caller has
    already built it for the parity map.
    """
    if cd is None:
        cd = chord_data(d)
    even = 0
    for c, n in cd.counts.items():
        if n % 2 == 0:
            even |= cd.bits[c]
    return {
        c: 0 if n % 2 else 1 if (cd.links[c] & even).bit_count() % 2 else 2
        for c, n in cd.counts.items()
    }
