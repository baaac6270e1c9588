"""Differential tests of ``matrix._fill`` against ``fill_oracle.oracle_fill``.

``_fill`` adds the terms of each coefficient, their keys shifted by the
label's packed key, into one term dict per cell, and returns the nonzero
cells of each row as packed (terms, bound) pairs; the oracle forms each
contribution as a polynomial product, adds it into its cell and returns
the dense grid.  Built either way, all three matrices (``build_M``, also
with every crossing even, ``build_Npp`` and ``build_N_presentation``) must
agree cell for cell: each nonzero oracle cell is a packed cell with equal
terms and an equal bound, and each zero one, cancelled sums included, is
no cell; on the fixtures and on seeded random diagrams of genus 0-2 with
side tokens.  On arc tables whose labels sit near EXPONENT_LIMIT, both must
raise ExponentOverflow or both return equal cells.  Spies check that the builders form no polynomial product or sum
through ``LaurentPoly``'s operators, and that the unit steps of ``det``
form no product through them.
"""

import pathlib
import random

import pytest

from knotparity import matrix, rings
from knotparity.diagram import Arc, Incidence, parse_file
from knotparity.matrix import build_M, build_N_presentation, build_Npp
from knotparity.moves import random_diagram
from knotparity.parity import EVEN, hierarchy_types, parity_map
from knotparity.rings import EXPONENT_LIMIT, ExponentOverflow, LaurentPoly, g_ring

from fill_oracle import oracle_fill

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
LIMIT = EXPONENT_LIMIT


def _diagrams():
    """The diagrams of the three fixtures and 240 seeded random ones of 0-12
    crossings and genus 0-2."""
    diagrams = [
        d for name in ("torus_pair.surf", "sample.gauss", "parity_pair.surf") for d in parse_file(FIXTURES / name)[0]
    ]
    rng = random.Random(2410)
    return diagrams + [random_diagram(rng, rng.randint(0, 12), i % 3) for i in range(240)]


def _matrices(d):
    types = hierarchy_types(d)
    yield build_M(d, parity_map(d))
    yield build_M(d, {c: EVEN for c in d.crossings})
    yield build_Npp(d, types)
    yield build_N_presentation(d, types)


def _nonzero(grid):
    """The oracle's dense grid as ``_fill`` returns cells: per row, the
    nonzero entries' packed terms and bounds by column."""
    return tuple({j: (e._terms, e._bound) for j, e in enumerate(row) if e._terms} for row in grid)


def test_fill_matches_the_oracle_on_diagrams(monkeypatch):
    cancelled = shifted = 0
    for d in _diagrams():
        built = list(_matrices(d))
        with monkeypatch.context() as patch:
            patch.setattr(matrix, "_fill", oracle_fill)
            expected = list(_matrices(d))
        for m, want in zip(built, expected):
            # the oracle's matrix holds its dense grid where cells go
            assert (m.tag, m.row_keys, m.col_keys) == (want.tag, want.row_keys, want.col_keys)
            assert m.cells == _nonzero(want.cells)
            assert m.entries == want.cells
            cells = [e for row in want.cells for e in row]
            cancelled += sum(not e._terms and e._bound > 0 for e in cells)
            shifted += sum(e._bound > 1 for e in cells)
    # the sweep reaches cells whose contributions cancel, and labels past +-1
    assert cancelled > 0 and shifted > 0


# labels near the limit: the nominal bound of t or 1-t times x^(LIMIT - 1)
# reaches it, and the exponents do not; +-LIMIT and beyond raise
EDGE_LABELS = [
    (0, 0),
    (1, -1),
    (LIMIT - 1, 0),
    (0, -(LIMIT - 1)),
    (LIMIT // 2, -(LIMIT // 2)),
    (LIMIT - 1, 1 - LIMIT),
    (LIMIT, 0),
    (0, -3 * LIMIT),
]


def _edge_table(rng, sites):
    """Arcs with one column each, whose incidences draw their site, role and
    label at random from few labels, so that contributions meet in cells."""
    labels = rng.sample(EDGE_LABELS, 3)
    return tuple(
        Arc(origin, "crossing", tuple(
            Incidence(rng.randrange(sites), "crossing", rng.choice(("out", "in", "over")), rng.choice(labels))
            for _ in range(rng.randint(1, 6))
        ))
        for origin in range(sites)
    )


def test_fill_matches_the_oracle_at_the_exponent_limit():
    ring = g_ring(1)
    roles = matrix._role_table(ring.full_vars)
    rng = random.Random(2417)
    outcomes = {"raised": 0, "returned": 0, "at the edge": 0}
    for _ in range(300):
        sites = rng.randint(1, 4)
        table = _edge_table(rng, sites)
        kind = {c: (rng.random() < 0.5, rng.random() < 0.5) for c in range(sites)}
        keys = tuple(("crossing", c) for c in range(sites))

        def rule(inc):
            return [(("crossing", inc.site), roles[kind[inc.site]][inc.role])]

        def outcome(fill):
            try:
                return fill(ring.full_vars, table, keys, keys, rule)
            except ExponentOverflow:
                return None

        got, want = outcome(matrix._fill), outcome(oracle_fill)
        assert (got is None) == (want is None)
        if got is None:
            outcomes["raised"] += 1
            continue
        outcomes["returned"] += 1
        # equal cells; a bound may differ where a cell's terms at the edge
        # cancel, since _fill reads the exact bound of the sum and the oracle
        # that of each product, so each is checked to be a bound below the limit
        assert [{j: terms for j, (terms, _) in row.items()} for row in got] == [
            {j: terms for j, (terms, _) in row.items()} for row in _nonzero(want)
        ]
        for row in got:
            for terms, bound in row.values():
                reach = max((abs(x) for k in rings._poly(ring.full_vars, terms, bound).terms for x in k), default=0)
                assert reach <= bound < LIMIT
                outcomes["at the edge"] += reach == LIMIT - 1
    assert all(outcomes.values()), outcomes


@pytest.fixture
def operator_calls(monkeypatch):
    """The names of the ``LaurentPoly.__mul__`` and ``__add__`` calls made
    while the fixture is in use, in order."""
    calls = []
    for name in ("__mul__", "__add__"):
        original = getattr(LaurentPoly, name)

        def spy(self, other, name=name, original=original):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(LaurentPoly, name, spy)
    return calls


def test_builders_and_unit_steps_form_no_operator_products(operator_calls):
    diagrams = _diagrams()[:60]
    operator_calls.clear()
    steps = 0
    for d in diagrams:
        for m in _matrices(d):
            assert operator_calls == [], m.tag
            if m.ring is None:
                continue
            result = rings._unit_steps([dict(row) for row in m.cells], m.ring.full_vars)
            assert "__mul__" not in operator_calls, m.tag
            if result is not None:
                steps += len(m.entries) - len(result[2])
    assert steps > 100
