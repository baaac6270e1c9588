"""Gaussian parity and crossing types of a diagram.

A crossing is even when its chord meets an even number of other chords
(``Diagram.chords`` holds each crossing's link set and interlacement count).
Types refine this: odd crossings get type 0; deleting their chords and
re-testing the survivors splits the even crossings into type 1 (odd after
deletion) and type 2 (still even).  Both maps are built by the diagram
(``Diagram.parity`` and ``Diagram.types``) once per object; the two reads
here are the names the rest of the package calls.
"""

from __future__ import annotations

from .diagram import EVEN, ODD  # noqa: F401  (imported from here by matrix, moves and the tests)


def parity_map(d):
    """Crossing -> even/odd from interlacement counts; the diagram's shared map."""
    return d.parity


def hierarchy_types(d):
    """Crossing -> type in {0, 1, 2}; the diagram's shared map."""
    return d.types
