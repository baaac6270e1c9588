"""Differential tests of ``rings.det`` against the Berkowitz oracle.

``rings.det`` eliminates on each of the four images of a quotient-ring
element separately; ``det_oracle.berkowitz_det`` runs the division-free
Berkowitz recurrence on whole elements.  Both must agree on the invariant
matrices of the fixtures and of seeded random diagrams, and on seeded random
matrices chosen to be singular in some or all images.
"""

import pathlib
import random

from knotparity.diagram import parse_file
from knotparity.matrix import build_M, build_Npp
from knotparity.moves import random_diagram
from knotparity.parity import hierarchy_types, parity_map
from knotparity.rings import det, g_ring, rprime_ring

from det_oracle import berkowitz_det
from test_rings import rand_matrix_elem

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _invariant_matrices(d):
    """(matrix, its entries mapped into its ring, the ring) for both invariants."""
    for m in (build_M(d, parity_map(d)), build_Npp(d, hierarchy_types(d))):
        yield m, [[m.ring.from_raw(e) for e in row] for row in m.entries], m.ring


def _checked_det(rows, ring):
    value = det(rows, ring)
    assert value == berkowitz_det(rows, ring), [[e.render() for e in row] for row in rows]
    return value


def test_det_matches_berkowitz_on_fixtures():
    for fixture in ("torus_pair.surf", "sample.gauss"):
        for d in parse_file(FIXTURES / fixture)[0]:
            for m, rows, ring in _invariant_matrices(d):
                assert m.det() == _checked_det(rows, ring)


def test_det_matches_berkowitz_on_random_diagrams():
    rng = random.Random(2024)
    some_images_vanish = 0
    for _ in range(300):
        d = random_diagram(rng, rng.randint(2, 12), rng.randint(0, 2))
        for m, rows, ring in _invariant_matrices(d):
            value = _checked_det(rows, ring)
            assert m.det() == value
            if not value.is_zero and any(x.is_zero for x in value.parts):
                some_images_vanish += 1
    # the sweep reaches determinants that vanish in some images only
    assert some_images_vanish > 0


def test_det_matches_berkowitz_on_singular_matrices():
    rng = random.Random(77)
    for trial in range(60):
        ring = (g_ring(1), g_ring(2), rprime_ring())[trial % 3]
        q = ring.element(q=1)
        n = rng.randint(2, 5)
        m = [[rand_matrix_elem(rng, ring) for _ in range(n)] for _ in range(n)]
        col = rng.randrange(n)
        repeated_row = m[:-1] + [m[0]]
        zero_column = [row[:col] + [ring.zero()] + row[col + 1 :] for row in m]
        for rows in (repeated_row, zero_column):
            assert _checked_det(rows, ring).is_zero
        _checked_det(m, ring)
        # every entry odd in q: psi1 and psi2 send q to 0, so those images
        # of the matrix vanish; one odd column makes them singular as well
        all_odd = [[e * q for e in row] for row in m]
        odd_column = [row[:col] + [row[col] * q] + row[col + 1 :] for row in m]
        for rows in (all_odd, odd_column):
            psi1, psi2, _, _ = _checked_det(rows, ring).parts
            assert psi1.is_zero and psi2.is_zero
