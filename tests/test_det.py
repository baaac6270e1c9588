"""Differential tests of ``rings.det`` against independent oracles.

``rings.det`` takes unit steps over the free Laurent ring, then expands
what they leave over the free ring when it has at most three rows, and
finishes each of its four images by Bareiss elimination when it is larger;
``det_oracle.berkowitz_det`` runs the division-free Berkowitz recurrence on
whole elements, and ``det_oracle.per_image_det`` runs textbook Bareiss on
the four images of the whole matrix, with no unit steps.  All must agree
on the invariant matrices of the fixtures and of seeded random diagrams,
and on seeded random matrices chosen to be singular in some or all
images.  q has no inverse in the quotient rings, so matrices whose only
monomial entries are powers of q check that the free-ring steps never
pivot on one.

``rings.det`` takes packed sparse rows; the dense rows the tests build go
through ``det_oracle.packed_rows`` (the module's ``det``), and
``_unit_steps_of`` unpacks what the unit steps leave for the oracles.  A
matrix with an empty row or column is zero before any unit step, and a
matrix of at most ``rings.EXPAND_ROWS`` rows is expanded with none.

Seeded matrices are built to leave the Bareiss steps a known rest: no unit
entry (the whole matrix), a signed permutation of units and a triangle
with unit diagonal (an empty rest), and a row emptied by the unit steps
(no rest at all).  A rest of at most ``rings.EXPAND_ROWS`` = 3 rows is
expanded and reaches no Bareiss call; a rest of four rows or more reaches
it at full size in all four images.  Diagrams of 25-45 crossings leave
rests of more than a few rows, where Bareiss divides.  Unit-free matrices
of one to five rows, and rests whose products reach ``EXPONENT_LIMIT``,
check the expansion itself.  Diagrams of 25-60 crossings, beyond the
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
from knotparity.rings import LaurentPoly, NonSquare, g_ring, rprime_ring

from det_oracle import berkowitz_det, det_images_mod_p, images_mod_p, packed_rows, per_image_det, random_point
from test_rings import full_rows, rand_matrix_elem

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _invariant_matrices(d):
    """(matrix, its entries mapped into its ring, the ring) for both invariants."""
    for m in (build_M(d, parity_map(d)), build_Npp(d, hierarchy_types(d))):
        yield m, [[m.ring.from_raw(e) for e in row] for row in m.entries], m.ring


RINGS = (g_ring(1), g_ring(2), rprime_ring())


def _packed(rows, ring):
    """``rows`` as ``rings.det`` takes them: packed sparse rows as they are,
    dense rows of polynomials over ``ring.full_vars`` through
    ``det_oracle.packed_rows``."""
    if any(isinstance(row, dict) for row in rows):
        return rows
    return packed_rows(rows, ring.full_vars)


def det(rows, ring):
    """``rings.det`` of packed rows, or of dense rows of polynomials."""
    return rings.det(_packed(rows, ring), ring)


def _dense(rows, ring):
    """Dense rows of polynomials over ``ring.full_vars``, from packed rows or dense ones."""
    if not any(isinstance(row, dict) for row in rows):
        return rows
    zero, n = _zero(ring), len(rows)
    return [[rings._poly(ring.full_vars, *row[j]) if j in row else zero for j in range(n)] for row in rows]


def _checked_det(rows, ring):
    """det(rows, ring), checked against Berkowitz and against the
    determinant taken image by image.  An entry is a polynomial over
    ``ring.full_vars``, which the oracles see through ``from_raw``; the rows
    are dense or packed."""
    value = det(rows, ring)
    rows = [[ring.from_raw(e) for e in row] for row in _dense(rows, ring)]
    assert value == berkowitz_det(rows, ring), [[e.render() for e in row] for row in rows]
    assert value == per_image_det(rows, ring)
    return value


@pytest.fixture
def bareiss_sizes(monkeypatch):
    """bareiss_sizes(rows, ring) runs ``det`` and lists the row count of
    each image of the Schur complement that it hands to ``_bareiss_det``:
    four counts, or none when the free-ring unit steps empty a row or leave
    a rest of at most ``rings.EXPAND_ROWS`` rows, which ``det`` expands."""
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


def _unit_steps_of(entries, ring):
    """``rings._unit_steps`` on the packed rows of dense ``entries``, and those
    rows after it, with the unit and every cell left as a ``LaurentPoly``."""
    full = ring.full_vars
    packed = packed_rows(entries, full)
    steps = rings._unit_steps(packed, full)
    if steps is not None:
        sign, unit, live_rows, live_cols = steps
        steps = sign, rings._poly(full, *unit), live_rows, live_cols
    return steps, [{j: rings._poly(full, *cell) for j, cell in row.items()} for row in packed]


def _empty_line(entries):
    """Whether dense ``entries`` have an empty row or column, which ``det``
    finds zero before any unit step."""
    return any(not any(e._terms for e in line) for line in (*entries, *zip(*entries)))


def _sizes_for(entries, ring):
    """The sizes ``bareiss_sizes`` lists for dense ``entries``: none when the
    matrix has an empty row or column, or when its unit steps empty a row or
    leave at most ``rings.EXPAND_ROWS`` rows, and else the rest's row count
    for each image."""
    steps = None if _empty_line(entries) else _unit_steps_of(entries, ring)[0]
    if steps is None or len(steps[2]) <= rings.EXPAND_ROWS:
        return []
    return [len(steps[2])] * 4


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
        # no unit step: every image gets the whole matrix, unless it has at
        # most three rows, which are expanded, or an empty row or column,
        # which makes it zero at once
        assert bareiss_sizes(rows, ring) == ([n] * 4 if n >= 4 and not _empty_line(rows) else [])


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
        assert bareiss_sizes(rows, ring) == []
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
        assert bareiss_sizes(rows, ring) == []
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


def test_det_zero_at_entry_for_an_empty_row_or_column(monkeypatch):
    """A matrix with an empty row or column is zero, found before any unit
    step: ``_unit_steps`` is never called on it.  Seeded unit-rich matrices
    get a zero row or column put in; the invariant matrices of small seeded
    diagrams have one now and then."""
    calls = []
    steps = rings._unit_steps

    def spy(rows, vars):
        calls.append(len(rows))
        return steps(rows, vars)

    monkeypatch.setattr(rings, "_unit_steps", spy)
    rng = random.Random(86)
    for trial in range(30):
        ring = RINGS[trial % 3]
        n = rng.randint(1, 6)
        rows = [[_unit(rng, ring) if rng.random() < 0.6 else _non_unit(rng, ring) for _ in range(n)] for _ in range(n)]
        k = rng.randrange(n)
        if trial % 2:
            rows[k] = [_zero(ring)] * n
        else:
            rows = [row[:k] + [_zero(ring)] + row[k + 1 :] for row in rows]
        calls.clear()
        assert _checked_det(rows, ring) == ring.zero()
        assert calls == []
    diagrams = [random_diagram(rng, rng.randint(1, 8), rng.randint(0, 2)) for _ in range(200)]
    empty = 0
    for d in diagrams:
        for m, _, ring in _invariant_matrices(d):
            calls.clear()
            value = m.det()
            if _empty_line(m.entries):
                assert value == ring.zero() and calls == []
                empty += 1
            else:
                # a matrix of at most EXPAND_ROWS rows is expanded at once
                assert calls == ([len(m.entries)] if len(m.entries) > rings.EXPAND_ROWS else [])
    assert empty > 0


def test_det_rejects_a_column_outside_the_matrix():
    """A packed cell whose column is not in range(n) makes the rows no square
    matrix, and ``det`` raises NonSquare."""
    for ring in RINGS:
        one = ({0: 1}, 0)
        for rows in ([{1: one}], [{0: one}, {0: one, 2: one}], [{-1: one}, {0: one}], [{}, {5: one}]):
            with pytest.raises(NonSquare):
                rings.det(rows, ring)


def test_det_takes_no_unit_step_after_a_bareiss_step(bareiss_sizes):
    # no entry is a unit, but the first Bareiss step (pivot 2) turns row 1
    # into (1, 4, 0, 0): a unit step on that 1 would skip a division by 2
    # that a later Bareiss step owes.  The 3x3 block of det -6 sits in a
    # 4x4 matrix, since a rest of three rows would be expanded.
    for ring in RINGS:
        block = ((2, 3, 0, 0), (3, 5, 2, 0), (0, 2, 2, 0), (0, 0, 0, 3))
        rows = [[LaurentPoly.const(ring.full_vars, c) for c in row] for row in block]
        assert _checked_det(rows, ring) == ring.element(-18)
        assert bareiss_sizes(rows, ring) == [4] * 4


def _unit_free_entry(rng, ring):
    """Zero (25 %), a non-unit, or q times a unit or a non-unit: never a unit."""
    x = rng.random()
    if x < 0.25:
        return _zero(ring)
    if x < 0.6:
        return _non_unit(rng, ring)
    q = LaurentPoly.monomial(ring.full_vars, q=1)
    return q * (_unit(rng, ring) if x < 0.8 else _non_unit(rng, ring))


def test_expansion_matches_both_oracles_on_unit_free_matrices(bareiss_sizes):
    """A matrix with no unit entry is its own rest.  At one to three rows
    ``det`` expands it over the free ring and makes no Bareiss call; at four
    or five it hands each image to ``_bareiss_det`` once, at full size,
    unless it has an empty row or column, which makes it zero at once.
    Every value matches Berkowitz and the per-image oracle, and a repeated
    row gives zero."""
    rng = random.Random(2090)
    for trial in range(90):
        ring = RINGS[trial % 3]
        n = trial % 5 + 1
        rows = [[_unit_free_entry(rng, ring) for _ in range(n)] for _ in range(n)]
        matrices = [rows]
        if n > 1:
            i, k = rng.sample(range(n), 2)
            repeated = list(rows)
            repeated[k] = rows[i]
            assert _checked_det(repeated, ring).is_zero
            matrices.append(repeated)
        _checked_det(rows, ring)
        for m in matrices:
            assert bareiss_sizes(m, ring) == ([n] * 4 if n > rings.EXPAND_ROWS and not _empty_line(m) else [])


@pytest.mark.parametrize("excess", (0, 1))
def test_expansion_at_the_exponent_limit(bareiss_sizes, excess):
    """Two- and three-row rests whose products reach t^(L - 1 + excess), L =
    ``EXPONENT_LIMIT``: at the limit ``det`` raises ``ExponentOverflow``,
    just below it matches both oracles.  The three-row rests reach the
    limit once in a 2x2 minor and once only in an entry times its minor.
    No entry is a unit, so each matrix is its own rest."""
    top = rings.EXPONENT_LIMIT - 1 + excess
    half = rings.EXPONENT_LIMIT // 2
    for ring in RINGS:
        full = ring.full_vars

        def two(e=0):
            return LaurentPoly.monomial(full, 2, t=e)

        zero = _zero(ring)
        # each matrix with the (coefficient, t exponent) terms of its determinant
        cases = [
            # 4t^top - 4
            ([[two(half), two()], [two(), two(top - half)]], ((4, top), (-4, 0))),
            # 2 * (2t^half * 2t^(top - half)) + 2 * 2 * 2: the minor reaches t^top
            ([[two(), two(), zero], [zero, two(half), two()], [two(), zero, two(top - half)]],
             ((8, top), (8, 0))),
            # -2t^half * (2 * 2t^(top - half)) - 2 * 2t * 2: the minor stays at t^(top - half)
            ([[two(), two(half), zero], [two(), zero, two(1)], [zero, two(), two(top - half)]],
             ((-8, top), (-8, 1))),
        ]
        for rows, terms in cases:
            if excess:
                with pytest.raises(rings.ExponentOverflow):
                    det(rows, ring)
            else:
                expected = ring.from_raw(LaurentPoly(full, {(e, 0, 0) + (0,) * len(ring.extras): c for c, e in terms}))
                assert _checked_det(rows, ring) == expected
                assert bareiss_sizes(rows, ring) == []


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
            sizes = bareiss_sizes(m.entries, ring)
            assert sizes == _sizes_for(m.entries, ring)
            longest = max([longest, *sizes])
    # some image gets a rest of four rows, so three Bareiss steps divide
    assert longest >= 4


def test_unit_fold_leaves_the_rest_bareiss_sees(bareiss_sizes, monkeypatch):
    """``det`` folds +-u, the product of the unit pivots, into the first row
    of the rest before mapping it into the ring.  u is a signed monomial in
    every image, so Bareiss gets the rest's size, and in every image each
    cell's term count, as with the rest unfolded; its pivot rule reads only
    those, so it takes the same pivots.  A rest of at most three rows is
    expanded and reaches no Bareiss call; diagrams of 25-45 crossings leave
    rests of four rows or more."""
    seen = []
    bareiss = rings._bareiss_det

    def spy(rows, vars):
        seen.append([{j: len(e._terms) for j, e in row.items()} for row in rows])
        return bareiss(rows, vars)

    rng = random.Random(2071)
    diagrams = [d for fixture in ("torus_pair.surf", "sample.gauss") for d in parse_file(FIXTURES / fixture)[0]]
    diagrams += [random_diagram(rng, rng.randint(25, 45), rng.randint(0, 2)) for _ in range(12)]
    rests = 0
    for d in diagrams:
        for m, rows, ring in _invariant_matrices(d):
            steps, sparse = _unit_steps_of(m.entries, ring)
            sizes = bareiss_sizes(m.entries, ring)
            assert sizes == _sizes_for(m.entries, ring)
            if steps is None or _empty_line(m.entries):
                continue
            _, _, live_rows, live_cols = steps
            place = {j: k for k, j in enumerate(live_cols)}
            unfolded = [[(place[j], ring.from_raw(e).parts) for j, e in sparse[i].items()] for i in live_rows]
            monkeypatch.setattr(rings, "_bareiss_det", spy)
            seen.clear()
            assert m.det() == per_image_det(rows, ring)
            monkeypatch.setattr(rings, "_bareiss_det", bareiss)
            assert seen == ([
                [{j: len(parts[c]._terms) for j, parts in row if parts[c]._terms} for row in unfolded]
                for c in range(4)
            ] if len(live_rows) > rings.EXPAND_ROWS else [])
            rests += len(live_rows) > rings.EXPAND_ROWS
    assert rests > 5


def test_one_row_rest_is_its_own_determinant(bareiss_sizes):
    """When the unit steps leave one row, ``det`` is +-u times its one
    entry, mapped into the ring, or zero when the row is empty, with no
    Bareiss call."""
    rng = random.Random(2073)
    diagrams = [d for fixture in ("torus_pair.surf", "sample.gauss") for d in parse_file(FIXTURES / fixture)[0]]
    diagrams += [random_diagram(rng, rng.randint(1, 10), rng.randint(0, 2)) for _ in range(60)]
    one_row = 0
    for d in diagrams:
        for m, rows, ring in _invariant_matrices(d):
            steps, sparse = _unit_steps_of(m.entries, ring)
            if steps is None or len(steps[2]) != 1:
                continue
            sign, unit, (i,), _ = steps
            value = _checked_det(m.entries, ring)
            if sparse[i]:
                (e,) = sparse[i].values()
                assert value == ring.from_raw(e * unit) * ring.element(sign)
                one_row += 1
            else:
                assert value == ring.zero()
            assert bareiss_sizes(m.entries, ring) == []
    assert one_row > 50


def test_det_zero_when_the_one_row_left_is_empty(bareiss_sizes):
    """A zero row that no unit step touches is the rest the steps leave,
    and an empty one-row rest makes the determinant zero."""
    rng = random.Random(2074)
    for trial in range(30):
        ring = RINGS[trial % 3]
        n = rng.randint(1, 6)
        # a triangle with unit diagonal over the first n - 1 columns, and a zero row
        rows = _non_unit_rows(rng, ring, n - 1, n)
        for i, row in enumerate(rows):
            row[:i] = [_zero(ring)] * i
            row[i] = _unit(rng, ring)
        rows = _shuffled(rng, rows + [[_zero(ring)] * n])
        steps, sparse = _unit_steps_of(rows, ring)
        (i,) = steps[2]
        assert sparse[i] == {}
        value = _checked_det(rows, ring)
        assert value.is_zero and value == ring.zero()
        assert bareiss_sizes(rows, ring) == []


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
