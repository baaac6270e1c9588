"""Differential tests of ``rings.det`` against the Berkowitz oracle.

``rings.det`` takes unit steps over the free Laurent ring, then eliminates
on each of the four images of what they leave separately;
``det_oracle.berkowitz_det`` runs the division-free Berkowitz recurrence on
whole elements, and ``det_oracle.per_image_det`` eliminates on the four
images of the whole matrix, as the package did before.  All must agree on
the invariant matrices of the fixtures and of seeded random diagrams, and
on seeded random matrices chosen to be singular in some or all images.  q
has no inverse in the quotient rings, so matrices whose only monomial
entries are powers of q check that the free-ring steps never pivot on one.

Each image's elimination is one loop of Gaussian steps on unit pivots,
then Bareiss steps on what is left.  Textbook Bareiss elimination run alone
on the whole image matrix is a second oracle, and seeded matrices are built
to take one kind of step only: no unit entry (only Bareiss steps), a signed
permutation of units and a triangle with unit diagonal (only unit steps),
and a row emptied by the unit steps.  Diagrams of 25-45 crossings give the
Bareiss steps rests of more than a few rows, where they divide.
"""

import pathlib
import random

import pytest

from knotparity import rings
from knotparity.diagram import parse_file
from knotparity.matrix import build_M, build_Npp
from knotparity.moves import random_diagram
from knotparity.parity import ODD, hierarchy_types, parity_map
from knotparity.rings import LaurentPoly, _bareiss_det, det, g_ring, rprime_ring

from det_oracle import bareiss_loop, berkowitz_det, per_image_det
from test_rings import rand_matrix_elem

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _invariant_matrices(d):
    """(matrix, its entries mapped into its ring, the ring) for both invariants."""
    for m in (build_M(d, parity_map(d)), build_Npp(d, hierarchy_types(d))):
        yield m, [[m.ring.from_raw(e) for e in row] for row in m.entries], m.ring


RINGS = (g_ring(1), g_ring(2), rprime_ring())


def _image_rows(rows, c):
    return [{j: e.parts[c] for j, e in enumerate(row) if not e.parts[c].is_zero} for row in rows]


def _checked_det(rows, ring):
    """det(rows, ring), checked against Berkowitz, against the per-image
    determinant and, image by image, against the Bareiss loop alone."""
    value = det(rows, ring)
    assert value == berkowitz_det(rows, ring), [[e.render() for e in row] for row in rows]
    assert value == per_image_det(rows, ring)
    if rows:
        _check_images_against_loop(rows, ring, value)
    return value


def _check_images_against_loop(rows, ring, value):
    for c in range(4):
        loop_alone = bareiss_loop(_image_rows(rows, c), ring.vars)
        assert _bareiss_det(_image_rows(rows, c), ring.vars) == loop_alone == value.parts[c]


@pytest.fixture
def bareiss_sizes(monkeypatch):
    """bareiss_sizes(rows, ring) runs ``_bareiss_det`` on each image and
    lists, per image, the number of live rows at each Bareiss step it takes.
    Every step takes one live row, so the first Bareiss step of an n-row
    image sees n rows exactly when no unit step ran before it."""
    sizes = []
    step = rings._bareiss_step

    def spy(rows, live_rows, *args):
        sizes.append(len(live_rows) + 1)  # the pivot row has left live_rows
        return step(rows, live_rows, *args)

    def run(rows, ring):
        per_image = []
        for c in range(4):
            sizes.clear()
            _bareiss_det(_image_rows(rows, c), ring.vars)
            per_image.append(list(sizes))
        return per_image

    monkeypatch.setattr(rings, "_bareiss_step", spy)
    return run


def _unit(rng, ring):
    """A signed monomial free of q: a unit of the ring and of every image."""
    return ring.element(rng.choice((-1, 1)), **{v: rng.randint(-2, 2) for v in ring.vars})


def _non_unit(rng, ring):
    """2 or 1 - t times a monomial: a unit in no image (1 - t vanishes in psi2)."""
    if rng.random() < 0.5:
        return ring.element(rng.choice((-2, 2))) * _unit(rng, ring)
    return (ring.one() - ring.element(t=1)) * _unit(rng, ring)


def _non_unit_rows(rng, ring, count, n):
    """``count`` rows of n entries, each zero (30 %) or a non-unit."""
    return [[ring.zero() if rng.random() < 0.3 else _non_unit(rng, ring) for _ in range(n)] for _ in range(count)]


def _shuffled(rng, rows):
    n = len(rows)
    row_order, col_order = rng.sample(range(n), n), rng.sample(range(n), n)
    return [[rows[i][j] for j in col_order] for i in row_order]


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


def test_det_without_unit_entries_is_the_bareiss_loop(bareiss_sizes):
    rng = random.Random(81)
    for trial in range(30):
        ring = RINGS[trial % 3]
        n = rng.randint(1, 5)
        rows = _non_unit_rows(rng, ring, n, n)
        value = _checked_det(rows, ring)
        for sizes, image in zip(bareiss_sizes(rows, ring), value.parts):
            # every step is a Bareiss step, and all n are taken unless the
            # image's determinant is zero
            assert sizes == list(range(n, 0, -1))[: len(sizes)]
            if not image.is_zero:
                assert len(sizes) == n


def test_det_of_signed_unit_permutations(bareiss_sizes):
    rng = random.Random(82)
    signs = set()
    for trial in range(30):
        ring = RINGS[trial % 3]
        n = rng.randint(1, 6)
        perm = rng.sample(range(n), n)
        rows = [[ring.zero()] * n for _ in range(n)]
        for i, j in enumerate(perm):
            rows[i][j] = _unit(rng, ring)
        value = _checked_det(rows, ring)
        assert bareiss_sizes(rows, ring) == [[]] * 4
        product = ring.one()
        for i, j in enumerate(perm):
            product = product * rows[i][j]
        assert value in (product, -product)
        signs.add(value == product)
    assert signs == {True, False}


def test_det_of_unit_triangles_needs_no_bareiss(bareiss_sizes):
    rng = random.Random(83)
    for trial in range(30):
        ring = RINGS[trial % 3]
        n = rng.randint(1, 6)
        rows = _non_unit_rows(rng, ring, n, n)
        for i, row in enumerate(rows):
            row[:i] = [ring.zero()] * i
            row[i] = _unit(rng, ring)
        rows = _shuffled(rng, rows)
        value = _checked_det(rows, ring)
        assert bareiss_sizes(rows, ring) == [[]] * 4
        assert not any(x.is_zero for x in value.parts)


def test_det_zero_when_unit_steps_empty_a_row(bareiss_sizes):
    rng = random.Random(84)
    for trial in range(30):
        ring = RINGS[trial % 3]
        n = rng.randint(2, 6)
        # only the first row and a unit multiple of it hold units, so the
        # first unit step clears the multiple
        first = [_unit(rng, ring) if j == 0 or rng.random() < 0.6 else ring.zero() for j in range(n)]
        u = _unit(rng, ring)
        rows = [first] + _non_unit_rows(rng, ring, n - 2, n) + [[u * e for e in first]]
        rows = _shuffled(rng, rows)
        assert _checked_det(rows, ring).is_zero
        assert bareiss_sizes(rows, ring) == [[]] * 4


def test_det_takes_no_unit_step_after_a_bareiss_step(bareiss_sizes):
    # no entry is a unit, but the first Bareiss step (pivot 2) turns row 1
    # into (1, 4): a unit step on that 1 would skip the division by 2 that
    # the last Bareiss step owes, and give -12
    for ring in RINGS:
        rows = [[ring.element(c) if c else ring.zero() for c in row] for row in ((2, 3, 0), (3, 5, 2), (0, 2, 2))]
        assert _checked_det(rows, ring) == ring.element(-6)
        assert bareiss_sizes(rows, ring) == [[3, 2, 1]] * 4


def test_det_matches_both_oracles_on_mixed_matrices():
    rng = random.Random(85)
    for trial in range(90):
        ring = RINGS[trial % 3]
        n = rng.randint(1, 6)
        kinds = (ring.zero, lambda: _unit(rng, ring), lambda: _non_unit(rng, ring), lambda: rand_matrix_elem(rng, ring))
        _checked_det([[rng.choice(kinds)() for _ in range(n)] for _ in range(n)], ring)


def test_det_matches_the_bareiss_loop_on_large_diagrams(bareiss_sizes):
    rng = random.Random(2045)
    longest = 0
    for _ in range(8):
        d = random_diagram(rng, rng.randint(25, 45), rng.randint(0, 2))
        for m, rows, ring in _invariant_matrices(d):
            _check_images_against_loop(rows, ring, m.det())
            longest = max(longest, *map(len, bareiss_sizes(rows, ring)))
    # some image takes four Bareiss steps, three of which divide
    assert longest >= 4


def _matches_per_image(d):
    """Both invariants' m.det(), from the entries as built, checked against
    ``per_image_det`` on the entries mapped into the ring."""
    for m, rows, ring in _invariant_matrices(d):
        assert m.det() == per_image_det(rows, ring)


def test_free_ring_det_matches_per_image_on_census_like_diagrams():
    rng = random.Random(1710)
    with_odd, types_seen = 0, set()
    for crossings in range(10, 25):
        for genus in (0, 1, 2):
            d = random_diagram(rng, crossings, genus)
            with_odd += ODD in parity_map(d).values()
            types_seen.update(hierarchy_types(d).values())
            _matches_per_image(d)
    assert with_odd > 0 and types_seen == {0, 1, 2}


def test_free_ring_det_matches_per_image_on_large_diagrams():
    # some seeds draw a genus-2 diagram whose s takes seconds under both
    # paths; this one keeps the test near one second
    rng = random.Random(1763)
    for genus in (0, 1, 2, 0, 1, 2):
        _matches_per_image(random_diagram(rng, rng.randint(25, 60), genus))


def test_q_is_never_a_pivot():
    # taking q as a pivot would need q^-1, which from_raw rejects
    for ring in RINGS:
        q, one = ring.element(q=1), ring.one()
        assert det([[q]], ring) == per_image_det([[q]], ring) == q
        rows = [[q, one], [one, q]]
        assert det(rows, ring) == per_image_det(rows, ring) == q * q - one
        full = ring.full_vars

        def mono(coef=1, **exps):
            return LaurentPoly.monomial(full, coef, **exps)

        raw = [
            [mono(q=1), mono(t=1) + mono(), mono(t=1) - mono()],
            [mono() - mono(p=1), mono(q=2), mono(q=1) + mono()],
            [mono(p=1) + mono(2), mono(q=1), mono(q=3)],
        ]
        assert det(raw, ring) == per_image_det([[ring.from_raw(e) for e in row] for row in raw], ring)
