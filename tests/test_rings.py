import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotparity.diagram import parse_file
from knotparity.matrix import build_M, build_Npp
from knotparity.parity import hierarchy_types, parity_map
from knotparity.rings import (
    EXPONENT_LIMIT,
    ExponentOverflow,
    LaurentPoly,
    NonSquare,
    QElement,
    QuotientRing,
    RAW_VARS,
    VariableSetMismatch,
    det,
    g_ring,
    rprime_ring,
)
from det_oracle import cofactor_det, packed_rows
from poly_oracle import oracle_canonical_pair, oracle_div_linear, oracle_from_raw, oracle_render
from rraw_oracle import ReducingRawRing, div_rs_minus_1, r_reduce


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
G = g_ring(1)
RP = rprime_ring()
RR = ReducingRawRing()


def rand_raw(rng, ring, terms=4, qmax=2):
    raw = LaurentPoly.zero(ring.full_vars)
    exps = {}
    for _ in range(rng.randint(1, terms)):
        for v in ring.full_vars:
            if v == "q":
                exps[v] = rng.randint(0, qmax)
            else:
                exps[v] = rng.randint(-2, 2)
        raw = raw + LaurentPoly.monomial(ring.full_vars, rng.randint(-3, 3), **exps)
    return raw


def rand_elem(rng, ring, terms=4):
    return ring.from_raw(rand_raw(rng, ring, terms))


def rand_matrix_elem(rng, ring):
    """Matrix-entry distribution: sparse, small exponents, ~30% zeros.

    Mirrors the shape of entries the diagram matrices actually produce and
    keeps the cofactor-expansion oracle affordable at size 6.
    """
    if rng.random() < 0.3:
        return ring.zero()
    raw = LaurentPoly.zero(ring.full_vars)
    for _ in range(rng.randint(1, 2)):
        exps = {
            v: (rng.randint(0, 1) if v == "q" else rng.randint(-1, 1))
            for v in ring.full_vars
        }
        raw = raw + LaurentPoly.monomial(ring.full_vars, rng.randint(-2, 2), **exps)
    return ring.from_raw(raw)


def full_rows(rows):
    """A matrix of quotient-ring elements as ``det`` takes it: each entry
    embedded in the free ring by ``to_full_poly``, and the dense rows packed
    by ``packed_rows``."""
    dense = [[e.to_full_poly() for e in row] for row in rows]
    return packed_rows(dense, next((e.vars for row in dense for e in row), None))


# --- plain polynomials -------------------------------------------------------


def test_poly_expansion():
    vars = ("t", "p")
    one = LaurentPoly.const(vars, 1)
    t = LaurentPoly.monomial(vars, 1, t=1)
    p = LaurentPoly.monomial(vars, 1, p=1)
    prod = (one - t) * (one - p)
    assert prod == one - t - p + t * p


def test_poly_add_identity_and_squares():
    vars = ("t", "x1")
    t = LaurentPoly.monomial(vars, 1, t=1)
    xinv = LaurentPoly.monomial(vars, 1, x1=-1)
    zero = LaurentPoly.zero(vars)
    assert (t + zero) == t
    assert (t + xinv) * (t - xinv) == t * t - xinv * xinv


def test_poly_variable_set_mismatch():
    a = LaurentPoly.const(("t",), 1)
    b = LaurentPoly.const(("t", "p"), 1)
    with pytest.raises(VariableSetMismatch):
        a + b


def test_exact_linear_division():
    vars = ("t", "p", "x1")
    one = LaurentPoly.const(vars, 1)
    t = LaurentPoly.monomial(vars, 1, t=1)
    p = LaurentPoly.monomial(vars, 1, p=1)
    h = LaurentPoly(vars, {(-3, 1, 0): 2, (4, 0, -1): -1, (0, 0, 0): 5})
    assert ((t - one) * h).exact_div(t - one) == h
    # the quotient fills the exponent gap: (t^5 - 1)/(t - 1) = t^4 + ... + 1
    t5 = LaurentPoly.monomial(vars, 1, t=5)
    assert (t5 - one).exact_div(t - one) == sum(
        (LaurentPoly.monomial(vars, 1, t=e) for e in range(5)), LaurentPoly.zero(vars)
    )
    with pytest.raises(ValueError, match="not exact"):
        ((t - one) * h + t5).exact_div(t - one)
    with pytest.raises(ValueError, match="not exact"):
        t5.exact_div(p - one)
    rs = LaurentPoly.monomial(RAW_VARS, 1, r=1, s=1)
    g = LaurentPoly(RAW_VARS, {(1, 0, 1, -2, 3, 0): 4, (0, 2, 0, 1, -1, 1): -1})
    raw_one = LaurentPoly.const(RAW_VARS, 1)
    assert div_rs_minus_1((rs - raw_one) * g) == g
    with pytest.raises(ValueError, match="not exact"):
        div_rs_minus_1((rs - raw_one) * g + rs)
    # non-multiples fail at once instead of running on: a power series, a
    # quotient outside the exponent box, an integer remainder
    two = LaurentPoly.const(vars, 2)
    assert (two * h).exact_div(two) == h
    for dividend, divisor in ((one, one - t), (t5, p - one), (LaurentPoly.const(vars, 3), two)):
        with pytest.raises(ValueError, match="not exact"):
            dividend.exact_div(divisor)


# exponents with gaps between them, negative ones included
GAPPED = (-9, -4, -1, 0, 2, 7)


def rand_gapped(rng, vars, terms=5):
    return LaurentPoly(
        vars,
        {
            tuple(rng.choice(GAPPED) for _ in vars): rng.choice((-5, -2, -1, 1, 3, 4))
            for _ in range(rng.randint(1, terms))
        },
    )


def test_div_linear_matches_exact_div():
    rng = random.Random(2101)
    for trial in range(300):
        vars = ("t", "p") + tuple(f"x{i}" for i in range(1, trial % 4 + 1))
        var, scale = rng.choice(("t", "p")), rng.choice((1, 2))
        one, v = LaurentPoly.const(vars, 1), LaurentPoly.monomial(vars, 1, **{var: 1})
        divisor = LaurentPoly.const(vars, scale) * (v - one)
        h = rand_gapped(rng, vars)
        f = divisor * h
        assert oracle_div_linear(f, var, scale) == f.exact_div(divisor) == h
        # a monomial never vanishes at var = 1, so f plus one is no multiple
        # of var - 1; (var - 1) times an odd coefficient is none of 2*(var - 1)
        non_multiples = [f + rand_gapped(rng, vars, 1)]
        if scale == 2:
            odd = LaurentPoly.monomial(vars, rng.choice((-3, -1, 1, 5)), **{var: rng.choice(GAPPED)})
            non_multiples.append(f + (v - one) * odd)
        for g in non_multiples:
            for divide in (lambda g: oracle_div_linear(g, var, scale), lambda g: g.exact_div(divisor)):
                with pytest.raises(ValueError, match="not exact"):
                    divide(g)
    zero = LaurentPoly.zero(("t", "p"))
    twice_p_minus_one = LaurentPoly.monomial(zero.vars, 2, p=1) - LaurentPoly.const(zero.vars, 2)
    assert oracle_div_linear(zero, "p", 2).is_zero and zero.exact_div(twice_p_minus_one).is_zero


def test_canonical_pair_raises_on_images_of_no_element():
    # psi3 and psi4 of one element differ by a multiple of 2*(t - 1)
    vars = RP.vars
    zero, one = LaurentPoly.zero(vars), LaurentPoly.const(vars, 1)
    t_minus_one = LaurentPoly.monomial(vars, 1, t=1) - one
    for psi4 in (one, t_minus_one):  # a sum left over; an odd quotient
        with pytest.raises(ValueError, match="not exact"):
            QElement(RP, (zero, zero, zero, psi4)).canonical_pair()


def test_canonical_pair_matches_the_oracle_division():
    """``canonical_pair`` divides with ``exact_div``; the oracle rebuilds the
    pair with the running-sum division it replaced.  Both must agree on
    seeded elements of every ring of ``FROM_RAW_RINGS`` and on the fixtures'
    determinants, and both must raise on images of no element."""
    rng = random.Random(2719)
    values = [rand_elem(rng, FROM_RAW_RINGS[i % len(FROM_RAW_RINGS)], 6) for i in range(240)]
    for name in ("torus_pair.surf", "sample.gauss", "parity_pair.surf"):
        for d in parse_file(FIXTURES / name)[0]:
            values += [build_M(d, parity_map(d)).det(), build_Npp(d, hierarchy_types(d)).det()]
    assert sum(not x.b.is_zero for x in values) > 100
    for x in values:
        assert QElement(x.ring, x.parts).canonical_pair() == oracle_canonical_pair(x)
    vars = RP.vars
    zero, one, p = LaurentPoly.zero(vars), LaurentPoly.const(vars, 1), LaurentPoly.monomial(vars, p=1)
    t_minus_one = LaurentPoly.monomial(vars, t=1) - one
    # psi4 - psi3 is no multiple of 2*(t-1), twice; psi2 is none of (p-1)^2
    for parts in ((zero, zero, zero, one), (zero, zero, zero, t_minus_one), (zero, p, zero, zero)):
        for pair in (QElement.canonical_pair, oracle_canonical_pair):
            with pytest.raises(ValueError, match="not exact"):
                pair(QElement(RP, parts))


def test_render_matches_oracle_render():
    rng = random.Random(2102)
    exps = (-12, -2, -1, 0, 0, 1, 1, 2, 3, 40)
    for trial in range(400):
        vars = ("t", "p", "q", "s", "x1", "x2", "x3")[: rng.randint(1, 7)]
        terms = {
            tuple(rng.choice(exps) for _ in vars): rng.choice((-7, -2, -1, 1, 1, 2, 12))
            for _ in range(rng.randint(0, 6))
        }
        x = LaurentPoly(vars, terms)
        assert x.render() == oracle_render(x)
    assert LaurentPoly.zero(("t",)).render() == oracle_render(LaurentPoly.zero(("t",))) == "0"


@pytest.mark.parametrize("ring", [g_ring(0), RP, G, g_ring(2)], ids=repr)
def test_to_full_poly_matches_tuple_embedding(ring):
    # the embedding as written before it read packed keys: q's exponent is
    # spliced into each tuple of A (q^0) and B (q^1) after t and p
    rng = random.Random(2103)
    for _ in range(60):
        elem = rand_elem(rng, ring, 6)
        a, b = elem.canonical_pair()
        terms = {k[:2] + (0,) + k[2:]: c for k, c in a.terms.items()}
        terms.update({k[:2] + (1,) + k[2:]: c for k, c in b.terms.items()})
        assert elem.to_full_poly() == LaurentPoly(ring.full_vars, terms)


# --- quotient rings ----------------------------------------------------------


def test_quotient_relations():
    one, t, p, q = G.element(), G.element(t=1), G.element(p=1), G.element(q=1)
    assert q * p == t * q
    assert q * q == (one - t) * (one - p)
    assert (one + q) * (one - q) == t + p - t * p


def test_derived_qfree_relation_vanishes():
    one, t, p = G.element(), G.element(t=1), G.element(p=1)
    assert ((one - t) * (p - one) * (p - t)).is_zero


def test_rprime_relations():
    one = RP.element()
    s, q, p, t = (RP.element(**{v: 1}) for v in ("s", "q", "p", "t"))
    assert s * q * p == s * t * q
    assert q * q * RP.element(s=-1) == RP.element(s=-1) * (one - t) * (one - p)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ring_axioms_on_canonical_forms(seed):
    rng = random.Random(seed)
    ring = G if seed % 2 == 0 else RP
    a, b, c = (rand_elem(rng, ring, 3) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normalize_is_ring_homomorphism(seed):
    rng = random.Random(seed)
    ring = G if seed % 2 == 0 else RP
    x, y = rand_raw(rng, ring), rand_raw(rng, ring)
    assert ring.from_raw(x * y) == ring.from_raw(x) * ring.from_raw(y)
    assert ring.from_raw(x + y) == ring.from_raw(x) + ring.from_raw(y)


# rings with 1, 2, 3 and 4 passenger variables
FROM_RAW_RINGS = (RP, G, QuotientRing("G", ("x1", "x2", "x3")), g_ring(2))


@pytest.mark.parametrize(
    "exps",
    [
        range(-3, 4),
        # t- and p-exponents whose sum, plus a q-degree of 3, just stays
        # below the exponent limit
        (-(EXPONENT_LIMIT // 2) + 2, -1, 0, 1, EXPONENT_LIMIT // 2 - 2),
    ],
    ids=["small", "wide"],
)
def test_from_raw_matches_tuple_oracle(exps):
    rng = random.Random(8080)
    q_degrees = set()
    for trial in range(400):
        ring = FROM_RAW_RINGS[trial % len(FROM_RAW_RINGS)]
        terms = {}
        for _ in range(rng.randint(1, 6)):
            vec = tuple(rng.randint(0, 3) if v == "q" else rng.choice(exps) for v in ring.full_vars)
            terms[vec] = rng.choice((-1, 1)) * rng.randint(1, 4)
            q_degrees.add(vec[2])
        raw = LaurentPoly(ring.full_vars, terms)
        assert ring.from_raw(raw) == oracle_from_raw(ring, raw), raw.render()
    assert q_degrees == {0, 1, 2, 3}


def test_from_raw_rejects_what_the_oracle_rejects():
    full = G.full_vars
    with pytest.raises(ValueError, match="q is not invertible"):
        G.from_raw(LaurentPoly.monomial(full, 1, q=-1))
    with pytest.raises(ValueError, match="q is not invertible"):
        oracle_from_raw(G, LaurentPoly.monomial(full, 1, q=-1))
    half = EXPONENT_LIMIT // 2
    # t^a p^b goes to t^(a+b) under psi3 and psi4, and q^k raises that by up to k
    for exps in ({"t": half, "p": half}, {"t": half, "p": half - 1, "q": 1}, {"t": -half, "p": -half}):
        raw = LaurentPoly.monomial(full, 1, **exps)
        for ring_map in (G.from_raw, lambda raw: oracle_from_raw(G, raw)):
            with pytest.raises(ExponentOverflow):
                ring_map(raw)
    for exps in ({"t": half, "p": half - 1}, {"t": half, "p": half - 2, "q": 1}, {"t": half, "p": -half}):
        raw = LaurentPoly.monomial(full, 1, **exps)
        assert G.from_raw(raw) == oracle_from_raw(G, raw)


def naive_fixpoint_pair(ring, raw):
    """Oracle: rewrite q^2 -> (1-t)(1-p) and q*p^k -> q*t^k to a fixpoint,
    returning the (A, B) parts without the deeper canonicalization."""
    vars = ring.full_vars
    qi = vars.index("q")
    pi = vars.index("p")
    ti = vars.index("t")
    work = dict(raw.terms)
    changed = True
    while changed:
        changed = False
        for key, coef in list(work.items()):
            if not coef or key not in work:
                continue
            qe, pe = key[qi], key[pi]
            if qe >= 2:
                del work[key]
                base = list(key)
                base[qi] = qe - 2
                for dt, dp, c2 in ((0, 0, 1), (1, 0, -1), (0, 1, -1), (1, 1, 1)):
                    k2 = list(base)
                    k2[ti] += dt
                    k2[pi] += dp
                    k2 = tuple(k2)
                    work[k2] = work.get(k2, 0) + coef * c2
                    if work[k2] == 0:
                        del work[k2]
                changed = True
            elif qe == 1 and pe != 0:
                del work[key]
                k2 = list(key)
                k2[ti] += pe
                k2[pi] = 0
                k2 = tuple(k2)
                work[k2] = work.get(k2, 0) + coef
                if work[k2] == 0:
                    del work[k2]
                changed = True
    a, b = {}, {}
    for key, coef in work.items():
        stripped = key[:qi] + key[qi + 1 :]
        (a if key[qi] == 0 else b)[stripped] = coef
    av = vars[:qi] + vars[qi + 1 :]
    return LaurentPoly(av, a), LaurentPoly(av, b)


def graded_lead(poly):
    """(exponent tuple, coefficient) of the graded-lex leading term of a nonzero poly."""
    return max(poly.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def divides_exactly(divisor, dividend):
    """Exact-division test of Laurent polynomials over the same variables.

    Returns True iff dividend = h * divisor for some Laurent polynomial h.
    The divisor's leading coefficient must be a unit (+-1), which holds for
    every divisor used here.
    """
    if dividend.is_zero:
        return True
    if divisor.is_zero:
        return False
    lead_exp, lead_coef = graded_lead(divisor)
    if lead_coef not in (1, -1):
        raise ValueError("divisor must have unit leading coefficient")
    # over an integral domain the exponent range of h in each variable is
    # that of the dividend minus that of the divisor; each step cancels the
    # graded-lex leading term, so the quotient monomials strictly decrease
    # and, for a true multiple, are exactly the terms of h
    box = []
    for v in dividend.vars:
        (f_lo, f_hi), (d_lo, d_hi) = dividend.exponent_range(v), divisor.exponent_range(v)
        box.append((f_lo - d_lo, f_hi - d_hi))
    rem = dividend
    while not rem.is_zero:
        top_exp, top_coef = graded_lead(rem)
        delta = [e - l for e, l in zip(top_exp, lead_exp)]
        if any(not lo <= d <= hi for d, (lo, hi) in zip(delta, box)):
            return False
        factor = LaurentPoly(rem.vars, {tuple(delta): top_coef * lead_coef})
        rem = rem - factor * divisor
    return True


def test_divides_exactly():
    vars = ("t", "p")
    uc = uc_poly(vars)
    h = LaurentPoly(vars, {(-2, 1): 3, (1, -3): -1, (0, 0): 2})
    assert divides_exactly(uc, uc * h)
    assert divides_exactly(uc, LaurentPoly.zero(vars))
    assert not divides_exactly(uc, uc * h + LaurentPoly.const(vars, 1))
    assert not divides_exactly(uc, LaurentPoly.monomial(vars, 1, t=-5, p=7))
    # (1-t)(p-1) alone is not a multiple, though its t=1 and p=1 values vanish
    one = LaurentPoly.const(vars, 1)
    t, p = LaurentPoly.monomial(vars, 1, t=1), LaurentPoly.monomial(vars, 1, p=1)
    assert not divides_exactly(uc, (one - t) * (p - one) * h)


def uc_poly(vars):
    one = LaurentPoly.const(vars, 1)
    t = LaurentPoly.monomial(vars, 1, t=1)
    p = LaurentPoly.monomial(vars, 1, p=1)
    return (one - t) * (p - one) * (p - t)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normal_form_agrees_with_fixpoint_oracle(seed):
    # the oracle pair equals the canonical pair up to the forced q-free
    # relation (1-t)(p-1)(p-t); B parts agree on the nose
    rng = random.Random(seed)
    ring = G if seed % 2 == 0 else RP
    raw = rand_raw(rng, ring)
    elem = ring.from_raw(raw)
    a_fix, b_fix = naive_fixpoint_pair(ring, raw)
    assert b_fix == elem.b
    assert divides_exactly(uc_poly(elem.a.vars), a_fix - elem.a)


# --- the big ring ------------------------------------------------------------


def test_r_reduce_examples():
    one, t = RR.one(), RR.element(t=1)
    w, s, p, q, r = (RR.element(**{v: 1}) for v in ("w", "s", "p", "q", "r"))
    assert w * s == w
    assert w * RR.element(s=-1) == w
    assert w * p == w * t
    assert w * q == w * (one - t)
    assert r_reduce(w * RR.element(r=-3)) == w * RR.element(t=-3)


def test_r_reduce_kills_every_defining_relation():
    one, t = RR.one(), RR.element(t=1)
    w, s, p, q, r = (RR.element(**{v: 1}) for v in ("w", "s", "p", "q", "r"))
    rs = RR.element(r=1, s=1)
    relations = [
        q * (p - t),
        q * q - (one - t) * (one - p),
        w * (one - s),
        w * (t - r),
        w * w - (one - t) * (one - rs),
        w * (p * s + q - one),
        w * (r + q - one),
        w * (p - r),
        w * w - q * (one - rs),
    ]
    for rel in relations:
        assert rel.is_zero, rel.render()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_r_reduce_idempotent(seed):
    rng = random.Random(seed)
    e = RR.zero()
    for _ in range(rng.randint(1, 4)):
        e = e + RR.element(
            rng.randint(-3, 3),
            t=rng.randint(-1, 1),
            p=rng.randint(-1, 1),
            q=rng.randint(0, 2),
            s=rng.randint(-1, 1),
            r=rng.randint(-1, 1),
            w=rng.randint(0, 2),
        )
    assert r_reduce(e) == e


# --- determinants ------------------------------------------------------------


def test_det_small_shapes():
    rng = random.Random(1)
    a, b, c, d = (rand_elem(rng, G, 2) for _ in range(4))
    assert det(full_rows([[a]]), G) == a
    assert det(full_rows([[a, b], [c, d]]), G) == a * d - b * c
    assert det([], G) == G.element()


def test_det_identity_all_sizes():
    for n in range(0, 9):
        eye = [[G.element() if i == j else G.zero() for j in range(n)] for i in range(n)]
        assert det(full_rows(eye), G) == G.element()


def test_det_matches_cofactor_oracle():
    rng = random.Random(7)
    for trial in range(20):
        n = rng.randint(1, 5)
        m = [[rand_matrix_elem(rng, G) for _ in range(n)] for _ in range(n)]
        assert det(full_rows(m), G) == cofactor_det(m, G)


def test_det_row_swap_and_repeated_row():
    rng = random.Random(9)
    n = 5
    m = [[rand_matrix_elem(rng, G) for _ in range(n)] for _ in range(n)]
    swapped = [m[1], m[0]] + m[2:]
    assert det(full_rows(swapped), G) == -det(full_rows(m), G)
    repeated = [m[0], m[0]] + m[2:]
    assert det(full_rows(repeated), G).is_zero


def test_det_rejects_non_square():
    with pytest.raises(NonSquare):
        det(full_rows([[G.element(), G.zero()]]), G)


def test_packed_rows_rejects_what_det_took_densely():
    """``packed_rows`` raises NonSquare for a row whose length is not the row
    count and VariableSetMismatch for a nonzero entry over other variables; a
    zero entry's variables are not read, and each nonzero entry becomes its
    packed terms and bound."""
    full = G.full_vars
    one, zero = LaurentPoly.const(full, 1), LaurentPoly.zero(full)
    with pytest.raises(NonSquare):
        packed_rows([[one, zero]], full)
    with pytest.raises(NonSquare):
        packed_rows([[one, zero], [one]], full)
    other = LaurentPoly.const(RP.full_vars, 1)
    with pytest.raises(VariableSetMismatch):
        packed_rows([[one, other], [zero, one]], full)
    t = LaurentPoly.monomial(full, 1, t=3)
    assert packed_rows([[t, LaurentPoly.zero(RP.full_vars)], [zero, one]], full) == [{0: (t._terms, 3)}, {1: ({0: 1}, 0)}]


def test_render_is_deterministic():
    rng = random.Random(3)
    e = rand_elem(rng, G)
    assert e.render() == e.render()
    # fixed order: highest graded-lex monomial first
    one, t = G.element(), G.element(t=1)
    assert (one + t).render() == "t + 1"
    assert (one - t).render() == "-t + 1"
