"""Differential tests of ``rings.det`` against independent oracles.

``rings.det`` takes unit steps over the free Laurent ring, then finishes
each of the four images of what they leave by Bareiss elimination;
``det_oracle.berkowitz_det`` runs the division-free Berkowitz recurrence on
whole elements, and ``det_oracle.per_image_det`` runs textbook Bareiss on
the four images of the whole matrix, with no unit steps.  All must agree
on the invariant matrices of the fixtures and of seeded random diagrams,
and on seeded random matrices chosen to be singular in some or all
images.  q has no inverse in the quotient rings, so matrices whose only
monomial entries are powers of q check that the free-ring steps never
pivot on one.

Seeded matrices are built to leave the Bareiss steps a known rest: no unit
entry (the whole matrix), a signed permutation of units and a triangle
with unit diagonal (an empty rest), and a row emptied by the unit steps
(no rest at all).  Diagrams of 25-45 crossings leave rests of more than a
few rows, where Bareiss divides.  Diagrams of 25-60 crossings, beyond the
exact oracles' reach, are checked by evaluating every image at a seeded
random point modulo 2^61 - 1 (``det_oracle.det_images_mod_p``).
"""

import pathlib
import random

import pytest

from knotparity import rings
from knotparity.diagram import parse_file
from knotparity.matrix import build_M, build_Npp
from knotparity.moves import random_diagram
from knotparity.parity import ODD, hierarchy_types, parity_map
from knotparity.rings import LaurentPoly, det, g_ring, rprime_ring

from det_oracle import berkowitz_det, det_images_mod_p, images_mod_p, per_image_det, random_point
from test_rings import full_rows, rand_matrix_elem

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _invariant_matrices(d):
    """(matrix, its entries mapped into its ring, the ring) for both invariants."""
    for m in (build_M(d, parity_map(d)), build_Npp(d, hierarchy_types(d))):
        yield m, [[m.ring.from_raw(e) for e in row] for row in m.entries], m.ring


RINGS = (g_ring(1), g_ring(2), rprime_ring())


def _checked_det(rows, ring):
    """det(rows, ring), checked against Berkowitz and against the
    determinant taken image by image.  An entry is a polynomial over
    ``ring.full_vars``, which the oracles see through ``from_raw``."""
    value = det(rows, ring)
    rows = [[ring.from_raw(e) for e in row] for row in rows]
    assert value == berkowitz_det(rows, ring), [[e.render() for e in row] for row in rows]
    assert value == per_image_det(rows, ring)
    return value


@pytest.fixture
def bareiss_sizes(monkeypatch):
    """bareiss_sizes(rows, ring) runs ``det`` and lists the row count of
    each image of the Schur complement that it hands to ``_bareiss_det``:
    four counts, or none when the free-ring unit steps empty a row."""
    sizes = []
    bareiss = rings._bareiss_det

    def spy(rows, vars):
        sizes.append(len(rows))
        return bareiss(rows, vars)

    def run(rows, ring):
        sizes.clear()
        det(rows, ring)
        return list(sizes)

    monkeypatch.setattr(rings, "_bareiss_det", spy)
    return run


# The step-kind tests build their matrices over the free ring, where the
# unit steps run.  A unit of the quotient need not stay a monomial there:
# the canonical form of p^2 has three terms.


def _zero(ring):
    return LaurentPoly.zero(ring.full_vars)


def _unit(rng, ring):
    """A signed monomial free of q: a unit of the free ring and of every image."""
    return LaurentPoly.monomial(ring.full_vars, rng.choice((-1, 1)), **{v: rng.randint(-2, 2) for v in ring.vars})


def _non_unit(rng, ring):
    """2 or 1 - t times a monomial: a unit in no image (1 - t vanishes in psi2)."""
    full = ring.full_vars
    if rng.random() < 0.5:
        return LaurentPoly.const(full, rng.choice((-2, 2))) * _unit(rng, ring)
    return (LaurentPoly.const(full, 1) - LaurentPoly.monomial(full, t=1)) * _unit(rng, ring)


def _non_unit_rows(rng, ring, count, n):
    """``count`` rows of n entries, each zero (30 %) or a non-unit."""
    return [[_zero(ring) if rng.random() < 0.3 else _non_unit(rng, ring) for _ in range(n)] for _ in range(count)]


def _shuffled(rng, rows):
    n = len(rows)
    row_order, col_order = rng.sample(range(n), n), rng.sample(range(n), n)
    return [[rows[i][j] for j in col_order] for i in row_order]


def test_det_matches_berkowitz_on_fixtures():
    for fixture in ("torus_pair.surf", "sample.gauss"):
        for d in parse_file(FIXTURES / fixture)[0]:
            for m, rows, ring in _invariant_matrices(d):
                assert m.det() == _checked_det(full_rows(rows), ring)


def test_det_matches_berkowitz_on_random_diagrams():
    rng = random.Random(2024)
    some_images_vanish = 0
    for _ in range(300):
        d = random_diagram(rng, rng.randint(2, 12), rng.randint(0, 2))
        for m, rows, ring in _invariant_matrices(d):
            value = _checked_det(full_rows(rows), ring)
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
            assert _checked_det(full_rows(rows), ring).is_zero
        _checked_det(full_rows(m), ring)
        # every entry odd in q: psi1 and psi2 send q to 0, so those images
        # of the matrix vanish; one odd column makes them singular as well
        all_odd = [[e * q for e in row] for row in m]
        odd_column = [row[:col] + [row[col] * q] + row[col + 1 :] for row in m]
        for rows in (all_odd, odd_column):
            psi1, psi2, _, _ = _checked_det(full_rows(rows), ring).parts
            assert psi1.is_zero and psi2.is_zero


def test_det_without_unit_entries_is_the_bareiss_loop(bareiss_sizes):
    rng = random.Random(81)
    for trial in range(30):
        ring = RINGS[trial % 3]
        n = rng.randint(1, 5)
        rows = _non_unit_rows(rng, ring, n, n)
        _checked_det(rows, ring)
        # no unit step: every image gets the whole matrix
        assert bareiss_sizes(rows, ring) == [n] * 4


def test_det_of_signed_unit_permutations(bareiss_sizes):
    rng = random.Random(82)
    signs = set()
    for trial in range(30):
        ring = RINGS[trial % 3]
        n = rng.randint(1, 6)
        perm = rng.sample(range(n), n)
        rows = [[_zero(ring)] * n for _ in range(n)]
        for i, j in enumerate(perm):
            rows[i][j] = _unit(rng, ring)
        value = _checked_det(rows, ring)
        assert bareiss_sizes(rows, ring) == [0] * 4
        product = LaurentPoly.const(ring.full_vars, 1)
        for i, j in enumerate(perm):
            product = product * rows[i][j]
        product = ring.from_raw(product)
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
            row[:i] = [_zero(ring)] * i
            row[i] = _unit(rng, ring)
        rows = _shuffled(rng, rows)
        value = _checked_det(rows, ring)
        assert bareiss_sizes(rows, ring) == [0] * 4
        assert not any(x.is_zero for x in value.parts)


def test_det_zero_when_unit_steps_empty_a_row(bareiss_sizes):
    rng = random.Random(84)
    for trial in range(30):
        ring = RINGS[trial % 3]
        n = rng.randint(2, 6)
        # only the first row and a unit multiple of it hold units, so the
        # first unit step clears the multiple
        first = [_unit(rng, ring) if j == 0 or rng.random() < 0.6 else _zero(ring) for j in range(n)]
        u = _unit(rng, ring)
        rows = [first] + _non_unit_rows(rng, ring, n - 2, n) + [[u * e for e in first]]
        rows = _shuffled(rng, rows)
        assert _checked_det(rows, ring).is_zero
        assert bareiss_sizes(rows, ring) == []


def test_det_takes_no_unit_step_after_a_bareiss_step(bareiss_sizes):
    # no entry is a unit, but the first Bareiss step (pivot 2) turns row 1
    # into (1, 4): a unit step on that 1 would skip the division by 2 that
    # the last Bareiss step owes, and give -12
    for ring in RINGS:
        rows = [[LaurentPoly.const(ring.full_vars, c) for c in row] for row in ((2, 3, 0), (3, 5, 2), (0, 2, 2))]
        assert _checked_det(rows, ring) == ring.element(-6)
        assert bareiss_sizes(rows, ring) == [3] * 4


def test_det_matches_both_oracles_on_mixed_matrices():
    rng = random.Random(85)
    for trial in range(90):
        ring = RINGS[trial % 3]
        n = rng.randint(1, 6)
        kinds = (
            lambda: _zero(ring),
            lambda: _unit(rng, ring),
            lambda: _non_unit(rng, ring),
            lambda: rand_matrix_elem(rng, ring).to_full_poly(),
        )
        _checked_det([[rng.choice(kinds)() for _ in range(n)] for _ in range(n)], ring)


def test_det_matches_the_bareiss_loop_on_large_diagrams(bareiss_sizes):
    rng = random.Random(2045)
    longest = 0
    for _ in range(8):
        d = random_diagram(rng, rng.randint(25, 45), rng.randint(0, 2))
        for m, rows, ring in _invariant_matrices(d):
            assert m.det() == per_image_det(rows, ring)
            longest = max(longest, *bareiss_sizes(m.entries, ring))
    # some image gets a rest of four rows, so three Bareiss steps divide
    assert longest >= 4


def test_unit_fold_leaves_the_rest_bareiss_sees(bareiss_sizes, monkeypatch):
    """``det`` folds +-u, the product of the unit pivots, into the first row
    of the rest before mapping it into the ring.  u is a signed monomial in
    every image, so Bareiss gets the rest's size, and in every image each
    cell's term count, as with the rest unfolded; its pivot rule reads only
    those, so it takes the same pivots."""
    seen = []
    bareiss = rings._bareiss_det

    def spy(rows, vars):
        seen.append([{j: len(e._terms) for j, e in row.items()} for row in rows])
        return bareiss(rows, vars)

    rng = random.Random(2071)
    diagrams = [d for fixture in ("torus_pair.surf", "sample.gauss") for d in parse_file(FIXTURES / fixture)[0]]
    diagrams += [random_diagram(rng, rng.randint(8, 30), rng.randint(0, 2)) for _ in range(12)]
    rests = 0
    for d in diagrams:
        for m, rows, ring in _invariant_matrices(d):
            sparse = [{j: e for j, e in enumerate(row) if e._terms} for row in m.entries]
            steps = rings._unit_steps(sparse, ring.full_vars)
            sizes = bareiss_sizes(m.entries, ring)
            if steps is None:
                assert sizes == []
                continue
            _, _, live_rows, live_cols = steps
            assert sizes == [len(live_rows)] * 4
            place = {j: k for k, j in enumerate(live_cols)}
            unfolded = [[(place[j], ring.from_raw(e).parts) for j, e in sparse[i].items()] for i in live_rows]
            monkeypatch.setattr(rings, "_bareiss_det", spy)
            seen.clear()
            assert m.det() == per_image_det(rows, ring)
            monkeypatch.setattr(rings, "_bareiss_det", bareiss)
            assert seen == [
                [{j: len(parts[c]._terms) for j, parts in row if parts[c]._terms} for row in unfolded]
                for c in range(4)
            ]
            rests += len(live_rows) > 1
    assert rests > 5


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
        q, one = ring.element(q=1), ring.element()
        assert det(full_rows([[q]]), ring) == per_image_det([[q]], ring) == q
        rows = [[q, one], [one, q]]
        assert det(full_rows(rows), ring) == per_image_det(rows, ring) == q * q - one
        full = ring.full_vars

        def mono(coef=1, **exps):
            return LaurentPoly.monomial(full, coef, **exps)

        raw = [
            [mono(q=1), mono(t=1) + mono(), mono(t=1) - mono()],
            [mono() - mono(p=1), mono(q=2), mono(q=1) + mono()],
            [mono(p=1) + mono(2), mono(q=1), mono(q=3)],
        ]
        assert det(raw, ring) == per_image_det([[ring.from_raw(e) for e in row] for row in raw], ring)


def test_det_matches_evaluation_mod_p_on_large_diagrams():
    # twelve diagrams, 26-58 crossings, about 2 s; some seeds draw a
    # genus-2 diagram whose exact s alone takes seconds
    rng = random.Random(1830)
    nonzero_images = 0
    for genus in (0, 1, 2) * 4:
        d = random_diagram(rng, rng.randint(25, 60), genus)
        for m in (build_M(d, parity_map(d)), build_Npp(d, hierarchy_types(d))):
            value, point = m.det(), random_point(rng, m.ring)
            expected = det_images_mod_p(m.entries, point)
            assert images_mod_p(value, point) == expected
            nonzero_images += sum(map(bool, expected))
            # the oracle sees a sign error in any nonzero image
            assert value.is_zero or images_mod_p(-value, point) != expected
    assert nonzero_images > 0
