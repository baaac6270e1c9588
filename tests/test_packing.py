"""Packed exponent keys against the tuple-keyed oracle, and the limits that
keep packing exact: the exponent limit of ``LaurentPoly`` and the parser's
ceiling on tokens per diagram.

The multiply-accumulate kernel of ``rings`` (``_addmul``) is checked through
its uses: a monomial times a polynomial, the update of a unit step
(``_unit_steps`` on a 2x2 matrix) and the Bareiss update (``_bareiss_det``
on a 2x2 matrix, whose determinant is that one update); the one-pass
difference is checked beside them.
Each result must equal the oracle's, carry the bound the operation keeps
(the sum of the operands' bounds for a product, their maximum for a sum,
and the exact largest exponent once that reaches the limit), and raise
ExponentOverflow exactly when the oracle's exponents reach the limit.
Each of the four sites that guard the limit (``LaurentPoly``'s constructor,
``rings._poly``, ``QuotientRing.from_raw`` and ``matrix._fill``'s labels)
raises it with one message.

The unit steps run on packed cells (terms, bound), keep the product of
their pivots as one packed key and shift the pivot row's keys;
``det_oracle.oracle_unit_steps`` runs on ``LaurentPoly`` entries and forms
both with ``LaurentPoly`` products, as before.  ``_unit_steps`` below
packs the rows for ``rings._unit_steps`` and unpacks what it leaves.  On
seeded matrices of units and non-units with exponents at the field edge,
and on updates that make a unit by cancellation or turn one into a
non-unit, both must return the same product u, with the same bound, and
leave the same entries with the same bounds, or both raise
ExponentOverflow.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotparity import matrix, rings
from knotparity.cli import run
from knotparity.diagram import MAX_TOKENS, Arc, DiagramError, Incidence, TooManyTokens, parse_file, parse_gauss
from knotparity.rings import EXPONENT_LIMIT, ExponentOverflow, LaurentPoly, g_ring

from det_oracle import oracle_unit_steps
from poly_oracle import oracle_add, oracle_addmul_terms, oracle_exact_div, oracle_mul

LIMIT = EXPONENT_LIMIT


def rand_poly(rng, vars, exps, terms):
    return LaurentPoly(
        vars,
        {
            tuple(rng.choice(exps) for _ in vars): rng.choice((-3, -2, -1, 1, 2, 5))
            for _ in range(rng.randint(1, terms))
        },
    )


def _cases(seed, exps, count):
    rng = random.Random(seed)
    for _ in range(count):
        vars = tuple(f"v{i}" for i in range(rng.randint(1, 7)))
        yield vars, rand_poly(rng, vars, exps, 6), rand_poly(rng, vars, exps, 6)


@pytest.mark.parametrize(
    "exps",
    [
        range(-4, 5),
        # digits near the edge of the exponent limit, so that products reach
        # three quarters of it and box tests compare keys a field apart
        (-(LIMIT // 2) + 1, -(LIMIT // 4), -1, 0, 1, LIMIT // 4, LIMIT // 2 - 1),
    ],
    ids=["small", "wide"],
)
def test_packed_arithmetic_matches_tuple_oracle(exps):
    for vars, a, b in _cases(20240611, exps, 300):
        assert LaurentPoly(vars, a.terms) == a
        prod = a * b
        assert prod == oracle_mul(a, b)
        assert a + b == oracle_add(a, b)
        assert a - b == oracle_add(a, -b)
        assert prod.exact_div(b) == oracle_exact_div(prod, b) == a
        for i, v in enumerate(vars):
            column = [k[i] for k in prod.terms] or [None]
            expected = None if prod.is_zero else (min(column), max(column))
            assert prod.exponent_range(v) == expected


def test_inexact_divisions_raise_in_both():
    vars = ("t", "p", "x1")
    one = LaurentPoly.const(vars, 1)
    t = LaurentPoly.monomial(vars, 1, t=1)
    p = LaurentPoly.monomial(vars, 1, p=1)
    t5 = LaurentPoly.monomial(vars, 1, t=5)
    cases = [
        (t5, p - one),                                     # quotient off the box
        (LaurentPoly.const(vars, 3), LaurentPoly.const(vars, 2)),  # integer remainder
        (LaurentPoly.const(vars, 3) * t, t + t + one + one),
        (one, one - t),                                    # a power series 1/(1-t)
        ((t - one) * (p + t5) + t5, t - one),
    ]
    # products plus a monomial, over divisors with two terms or more: a
    # monomial has only monomial divisors, so none of these is a multiple
    rng = random.Random(5)
    for vars2, a, b in _cases(77, range(-3, 4), 200):
        if len(b.terms) > 1:
            cases.append((a * b + rand_poly(rng, vars2, range(-3, 4), 1), b))
    for f, g in cases:
        for divide in (LaurentPoly.exact_div, oracle_exact_div):
            with pytest.raises(ValueError, match="not exact"):
                divide(f, g)


def test_exponents_at_the_field_edge_raise():
    vars = ("t", "x1")
    top = LaurentPoly(vars, {(LIMIT - 1, 0): 1, (0, -(LIMIT - 1)): 2})
    assert top.terms == {(LIMIT - 1, 0): 1, (0, -(LIMIT - 1)): 2}
    assert top.exponent_range("x1") == (-(LIMIT - 1), 0)
    for edge in ((LIMIT, 0), (0, -LIMIT), (3 * LIMIT, 1)):
        with pytest.raises(ExponentOverflow):
            LaurentPoly(vars, {edge: 1})
    t = LaurentPoly.monomial(vars, 1, t=1)
    x = LaurentPoly.monomial(vars, 1, x1=1)
    # a product that crosses the limit raises ...
    with pytest.raises(ExponentOverflow):
        top * t
    with pytest.raises(ExponentOverflow):
        top * top
    # ... and one whose bound crosses it but whose exponents do not is exact
    low = LaurentPoly.monomial(vars, 1, t=-(LIMIT - 1))
    assert LaurentPoly.monomial(vars, 1, t=LIMIT - 1, x1=1) * low == x
    edge = LaurentPoly.monomial(vars, 1, t=LIMIT - 2) * t
    assert edge == LaurentPoly.monomial(vars, 1, t=LIMIT - 1)
    with pytest.raises(ExponentOverflow):
        edge * t
    # a quotient past the limit raises, whether the divisor is a monomial or not
    with pytest.raises(ExponentOverflow):
        low.exact_div(LaurentPoly.monomial(vars, 1, t=LIMIT - 1))
    with pytest.raises(ExponentOverflow):
        (low * (t + x)).exact_div(LaurentPoly.monomial(vars, 1, t=LIMIT - 2) * (t + x))


def _fill_label(e):
    """``matrix._fill`` of one incidence, -1 at the out-role, whose label is x1^e."""
    full, keys = g_ring(1).full_vars, (("crossing", 0),)
    table = (Arc(0, "crossing", (Incidence(0, "crossing", "out", (e, 0)),)),)
    minus = matrix._role_table(full)["vertex"]["out"]
    return matrix._fill(full, table, keys, keys, lambda inc: [(keys[0], minus)])


# each site, built with its largest exponent e; the from_raw site maps
# t^(e-1)*p to t^e under psi3 and psi4, and the _poly site is handed a bound
# at the limit, so it reads the exact one off the key
GUARD_SITES = {
    "LaurentPoly.__init__": lambda e: LaurentPoly(("t", "x1"), {(0, -e): 1}),
    "rings._poly": lambda e: rings._poly(("t", "x1"), {rings._pack((e, 0)): 1}, LIMIT),
    "QuotientRing.from_raw": lambda e: g_ring(1).from_raw(LaurentPoly.monomial(g_ring(1).full_vars, t=e - 1, p=1)),
    "matrix._fill": _fill_label,
}


@pytest.mark.parametrize("site", GUARD_SITES)
def test_every_exponent_guard_raises_one_message(site):
    build = GUARD_SITES[site]
    with pytest.raises(ExponentOverflow, match=f"^{re.escape(f'exponent {LIMIT} is past the limit {LIMIT - 1}')}$"):
        build(LIMIT)
    build(LIMIT - 1)


# the variables of the kernel tests: the unit steps need q
VARS = ("t", "p", "q", "x1")
EXPONENT_SETS = {
    "small": range(-3, 4),
    # operands within one of the limit, so that products and the update's
    # bound cross it, with exponents reaching it or not
    "edge": (-(LIMIT - 1), -(LIMIT // 2) - 1, -1, 0, 1, LIMIT // 2, LIMIT - 1),
}


def _reach(terms):
    """The largest absolute exponent of tuple-keyed terms."""
    return max((abs(e) for k in terms for e in k), default=0)


def _expect(compute, expected, nominal):
    """compute() against the oracle's terms: ExponentOverflow when they reach
    the limit, else the same terms with bound ``nominal``, or the exact
    largest exponent where ``nominal`` reaches the limit."""
    if _reach(expected) >= LIMIT:
        with pytest.raises(ExponentOverflow):
            compute()
        return None
    result = compute()
    assert result.terms == expected
    assert result._bound == (nominal if nominal < LIMIT else _reach(expected))
    return result


def _is_unit(terms):
    """Whether tuple-keyed terms are a signed monomial free of q."""
    return len(terms) == 1 and all(abs(c) == 1 and k[2] == 0 for k, c in terms.items())


def check_monomial_product(m, f):
    expected = oracle_addmul_terms({}, m, f)
    assert len(m.terms) != 1 or not f.terms or len(expected) == len(f.terms)  # a key shift
    for x, y in ((m, f), (f, m)):
        _expect(lambda: x * y, expected, x._bound + y._bound)


def check_difference(a, b):
    expected = oracle_add(a, -b).terms
    _expect(lambda: a - b, expected, max(a._bound, b._bound))


def _unit_steps(rows, vars):
    """``rings._unit_steps`` in the form of ``oracle_unit_steps``: on sparse
    rows of ``LaurentPoly``, packed for it and unpacked after it in place
    (also when it raises), with the unit returned as a ``LaurentPoly``."""
    packed = [{j: (e._terms, e._bound) for j, e in row.items()} for row in rows]
    try:
        result = rings._unit_steps(packed, vars)
    finally:
        rows[:] = [{j: rings._poly(vars, *cell) for j, cell in row.items()} for row in packed]
    if result is not None:
        sign, unit, live_rows, live_cols = result
        result = sign, rings._poly(vars, *unit), live_rows, live_cols
    return result


def check_unit_step(u, e, a, f):
    """The one update of a unit step on [[u, e], [a, f]] is f - a*(e/u), and
    the product of the pivots is u, with u's bound."""
    ((uk, uc),) = u.terms.items()
    inv = LaurentPoly(VARS, {tuple(-x for x in uk): uc})
    scaled = oracle_addmul_terms({}, e, inv)
    rows = [{0: u, 1: e}, {0: a} if f is None else {0: a, 1: f}]
    if _reach(scaled) >= LIMIT:
        with pytest.raises(ExponentOverflow):
            _unit_steps(rows, VARS)
        return
    scaled_bound = e._bound + u._bound if e._bound + u._bound < LIMIT else _reach(scaled)
    scaled = LaurentPoly(VARS, scaled)
    expected = oracle_addmul_terms({} if f is None else f.terms, a, scaled, -1)
    if _is_unit(expected):
        return  # a second step would take it as its pivot
    if not expected:
        assert _unit_steps(rows, VARS) is None  # the row emptied
        return
    nominal = max(0 if f is None else f._bound, a._bound + scaled_bound)
    steps = []
    _expect(lambda: steps.append(_unit_steps(rows, VARS)) or rows[1][1], expected, nominal)
    if steps:
        _, unit, _, _ = steps[0]
        assert unit == u and unit._bound == u._bound


def check_bareiss_update(p, e, a, f):
    """The determinant of [[p, e], [a, f]] by ``_bareiss_det`` is its one
    update p*f - a*e, an empty cell standing for zero."""
    expected = oracle_addmul_terms({}, p, f) if f is not None else {}
    expected = oracle_addmul_terms(expected, a, e, -1) if e is not None else expected
    nominal = max(p._bound + f._bound if f is not None else 0, a._bound + e._bound if e is not None else 0)
    rows = [{0: p} if e is None else {0: p, 1: e}, {0: a} if f is None else {0: a, 1: f}]
    _expect(lambda: rings._bareiss_det(rows, VARS), expected, nominal if expected else 0)


def _monomial(rng, exps, coefs=(-3, -1, 1, 2)):
    return LaurentPoly(VARS, {tuple(rng.choice(exps) for _ in VARS): rng.choice(coefs)})


def _non_unit(rng, exps):
    """A polynomial of two terms or more."""
    while True:
        x = rand_poly(rng, VARS, exps, 5)
        if len(x.terms) > 1:
            return x


def _maybe(rng, x):
    return None if rng.random() < 0.25 else x


@pytest.mark.parametrize("exps", EXPONENT_SETS.values(), ids=EXPONENT_SETS.keys())
def test_kernel_matches_the_oracle(exps):
    rng = random.Random(20261021)
    for _ in range(150):
        check_monomial_product(_monomial(rng, exps), rand_poly(rng, VARS, exps, 6))
        check_difference(rand_poly(rng, VARS, exps, 6), rand_poly(rng, VARS, exps, 6))
        unit = LaurentPoly(VARS, {tuple(0 if v == "q" else rng.choice(exps) for v in VARS): rng.choice((-1, 1))})
        f = _maybe(rng, rand_poly(rng, VARS, exps, 4))
        check_unit_step(unit, _non_unit(rng, exps), _non_unit(rng, exps), f)
        p, a = rand_poly(rng, VARS, exps, 4), rand_poly(rng, VARS, exps, 4)
        e, f = _maybe(rng, rand_poly(rng, VARS, exps, 4)), _maybe(rng, rand_poly(rng, VARS, exps, 4))
        check_bareiss_update(p, e, a, f)


def test_kernel_cancellations_and_edges():
    t = LaurentPoly.monomial(VARS, 1, t=1)
    x = LaurentPoly.monomial(VARS, 1, x1=1)
    one = LaurentPoly.const(VARS, 1)
    top = LaurentPoly.monomial(VARS, 1, t=LIMIT - 1)
    # a difference that cancels to zero keeps the larger bound, as a sum does
    check_difference(t + top, t + top)
    check_difference(top, -top)
    # the update cancels to zero: the row empties and the determinant is zero
    check_unit_step(one, t + x, t + one, t * t + t * x + t + x)
    check_bareiss_update(t + one, t - one, t * t - one, t + one)
    # the bound crosses the limit and the exponents do not, and then they do
    low = LaurentPoly.monomial(VARS, 1, t=-(LIMIT - 1))
    check_monomial_product(low, top + x)
    check_monomial_product(top, top + x)
    check_unit_step(low, top + x, t + x, top)
    check_unit_step(top, t + x, top + x, x)
    check_bareiss_update(top, top + x, t + one, low + x)
    check_bareiss_update(low, t + x, top + x, x)


def _edge_poly(draw_exps, draw_coefs):
    return st.dictionaries(st.tuples(*[draw_exps] * len(VARS)), draw_coefs, min_size=1, max_size=5).map(
        lambda terms: LaurentPoly(VARS, terms)
    )


_EXPS = st.one_of(st.integers(-3, 3), st.sampled_from(EXPONENT_SETS["edge"]))
_POLYS = _edge_poly(_EXPS, st.sampled_from((-2, -1, 1, 3)))


@settings(max_examples=120, deadline=None)
@given(_POLYS, _POLYS, _POLYS, _POLYS, st.booleans())
def test_kernel_matches_the_oracle_on_drawn_polynomials(a, b, c, d, empty):
    ((mk, mc),) = list(a.terms.items())[:1]
    check_monomial_product(LaurentPoly(VARS, {mk: mc}), b)
    check_difference(a, b)
    check_bareiss_update(a, None if empty else b, c, d)
    unit = LaurentPoly(VARS, {mk[:2] + (0,) + mk[3:]: 1 if mc > 0 else -1})
    if len(b.terms) > 1 and len(c.terms) > 1:
        check_unit_step(unit, b, c, None if empty else d)


def _unit_steps_outcome(steps, rows):
    """steps(rows) on a copy of the rows: "overflow" if it raises
    ExponentOverflow, else its result with the unit's bound, and every entry
    left, with its bound, row by row."""
    rows = [dict(row) for row in rows]
    try:
        result = steps(rows, VARS)
    except ExponentOverflow:
        return "overflow"
    if result is not None:
        sign, unit, live_rows, live_cols = result
        result = sign, unit.terms, unit._bound, live_rows, live_cols
    return result, [{j: (e.terms, e._bound) for j, e in row.items()} for row in rows]


def _edge_matrix(rng, exps):
    """A square sparse matrix of 2-5 rows whose cells are zero, a unit (a
    signed q-free monomial) or a polynomial, with exponents from ``exps``."""
    n = rng.randint(2, 5)
    rows = []
    for _ in range(n):
        row = {}
        for j in range(n):
            draw = rng.random()
            if draw < 0.4:
                row[j] = LaurentPoly(VARS, {tuple(0 if v == "q" else rng.choice(exps) for v in VARS): rng.choice((-1, 1))})
            elif draw < 0.7:
                row[j] = rand_poly(rng, VARS, exps, 3)
        rows.append(row)
    return rows


@pytest.mark.parametrize("exps", EXPONENT_SETS.values(), ids=EXPONENT_SETS.keys())
def test_unit_steps_match_the_oracle(exps):
    rng = random.Random(20261022)
    seen = set()
    for _ in range(300):
        rows = _edge_matrix(rng, exps)
        got = _unit_steps_outcome(_unit_steps, rows)
        assert got == _unit_steps_outcome(oracle_unit_steps, rows)
        if got == "overflow" or got[0] is None:
            seen.add("overflow" if got == "overflow" else "emptied")
        else:
            seen.add(min(len(rows) - len(got[0][3]), 2))  # steps taken, 2 standing for 2 or more
    assert seen >= {"emptied", 0, 1, 2} | ({"overflow"} if exps is EXPONENT_SETS["edge"] else set())


def test_unit_product_bound_at_the_limit():
    def t(e):
        return LaurentPoly.monomial(VARS, 1, t=e)

    x = LaurentPoly.monomial(VARS, 1, x1=1)
    # the summed bound reaches the limit and the product's exponents do not:
    # the product is 1, with its exact bound 0
    rows = [{0: t(LIMIT - 1), 1: x}, {1: t(1 - LIMIT)}]
    for steps in (_unit_steps, oracle_unit_steps):
        sign, unit, live_rows, _ = steps([dict(row) for row in rows], VARS)
        assert (sign, unit, unit._bound, live_rows) == (1, LaurentPoly.const(VARS, 1), 0, [])
    # an exponent of the product reaches the limit
    rows = [{0: t(LIMIT // 2)}, {1: t(LIMIT // 2)}]
    for steps in (_unit_steps, oracle_unit_steps):
        with pytest.raises(ExponentOverflow):
            steps([dict(row) for row in rows], VARS)


def test_unit_steps_track_units_made_and_lost_by_updates():
    """A row update can make a unit by cancellation, which must become a
    pivot candidate, and can turn a unit into a non-unit, which must stop
    being one; both sides must agree with the oracle on such matrices."""
    t = LaurentPoly.monomial(VARS, 1, t=1)
    x = LaurentPoly.monomial(VARS, 1, x1=1)
    q = LaurentPoly.monomial(VARS, 1, q=1)
    one, two = LaurentPoly.const(VARS, 1), LaurentPoly.const(VARS, 2)
    cases = [
        # the first step, on (0, 0), leaves t*x + t^2 + 1 - t*(x + t) = 1 in
        # row 1: the second step pivots on it, and row 2 is the rest
        ([{0: one, 1: x + t}, {0: t, 1: t * x + t * t + one, 2: two}, {1: two, 2: one - t}], [2]),
        # the same with the unit -x, left when t*x and t^2 cancel
        ([{0: one, 1: x + t}, {0: t, 1: t * t + t * x - x, 2: two}, {1: q - x, 2: one - t}], [2]),
        # the first step turns the unit 1 at (1, 1) into 1 - t, so no second
        # step is taken and rows 1 and 2 are the rest
        ([{0: one, 1: t}, {0: one, 1: one, 2: two}, {1: two, 2: one - t}], [1, 2]),
        # the unit -x at (1, 1) becomes t*x - x: units left only in row 2
        ([{0: one, 1: -t * x}, {0: one, 1: -x, 2: two}, {1: two, 2: -one}], [1]),
    ]
    for rows, rest in cases:
        got = _unit_steps_outcome(_unit_steps, rows)
        assert got == _unit_steps_outcome(oracle_unit_steps, rows)
        assert got[0][3] == rest


def _kinks(count):
    return " ".join(f"O{c}+ U{c}+" for c in range(1, count + 1))


def test_token_ceiling(tmp_path, capsys):
    assert len(parse_gauss(f"big: {_kinks(MAX_TOKENS // 2)}").tokens) == MAX_TOKENS
    over = f"big: {_kinks(MAX_TOKENS // 2)} v1"
    with pytest.raises(TooManyTokens):
        parse_gauss(over)
    assert issubclass(TooManyTokens, DiagramError)
    path = tmp_path / "big.gauss"
    path.write_text(f"small: O1+ U1+\n{over}\n")
    with pytest.raises(TooManyTokens):
        parse_file(path)
    diagrams, errors = parse_file(path, lenient=True)
    assert [d.name for d in diagrams] == ["small"] and [e[0] for e in errors] == [2]
    capsys.readouterr()
    assert run(["invariant", "--type", "s", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: big:") and f"{MAX_TOKENS} allowed" in err
