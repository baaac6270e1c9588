"""Packed exponent keys against the tuple-keyed oracle, and the limits that
keep packing exact: the exponent limit of ``LaurentPoly`` and the parser's
ceiling on tokens per diagram."""

import random

import pytest

from knotparity.cli import run
from knotparity.diagram import MAX_TOKENS, DiagramError, TooManyTokens, parse_file, parse_gauss
from knotparity.rings import EXPONENT_LIMIT, ExponentOverflow, LaurentPoly

from poly_oracle import oracle_add, oracle_exact_div, oracle_mul

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
