"""Tuple-keyed Laurent arithmetic, kept as a test oracle for the packed keys
of ``knotparity.rings.LaurentPoly`` and ``QuotientRing.from_raw``.

These are the sum, product and exact division the package used before each
exponent vector was packed into one int: every term is keyed by its exponent
tuple, a product builds the tuple of sums, and exact division checks each
peeled quotient term against the box of exponents the quotient can have.
``oracle_from_raw`` is the ring map into a quotient ring as it was before it
read the images off packed keys: it sorts the terms by q-degree and
multiplies each group by 1-t once per power of q.  All of them read and
build polynomials only through the tuple-keyed ``terms`` view, the
constructor and (for the ring map) polynomial sum and product, so they share
no key arithmetic with the code they check.  ``oracle_render`` is the
printed form as it was built before rendering read packed keys: it sorts the
exponent tuples by total degree, then lexicographically.
"""

import heapq
from operator import add, le, neg, sub

from knotparity.rings import LaurentPoly, QElement, VariableSetMismatch


def _check(x, y):
    if x.vars != y.vars:
        raise VariableSetMismatch(f"{x.vars} vs {y.vars}")


def oracle_add(x, y):
    _check(x, y)
    r = dict(x.terms)
    for k, v in y.terms.items():
        nv = r.get(k, 0) + v
        if nv:
            r[k] = nv
        elif k in r:
            del r[k]
    return LaurentPoly(x.vars, r)


def oracle_mul(x, y):
    _check(x, y)
    if x.is_zero or y.is_zero:
        return LaurentPoly(x.vars)
    a, b = x.terms, y.terms
    if len(a) > len(b):
        a, b = b, a
    r = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = tuple(map(add, k1, k2))
            nv = r.get(k, 0) + v1 * v2
            if nv:
                r[k] = nv
            elif k in r:
                del r[k]
    return LaurentPoly(x.vars, r)


def oracle_exact_div(x, divisor):
    """The quotient h with x == h * divisor; raises ValueError if none.

    Peels lex-leading terms, each checked against the box
    [min x - min divisor, max x - max divisor] of exponents of h.
    """
    _check(x, divisor)
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if x.is_zero:
        return LaurentPoly(x.vars)
    f_terms, g_terms = x.terms, divisor.terms
    if len(g_terms) == 1:  # a monomial: shift every exponent
        ((g, c),) = g_terms.items()
        if any(v % c for v in f_terms.values()):
            raise ValueError("division is not exact")
        return LaurentPoly(x.vars, {tuple(map(sub, k, g)): v // c for k, v in f_terms.items()})
    # Work on negated exponents, so that heapq's minimum is the lex maximum.
    rem = {tuple(map(neg, k)): c for k, c in f_terms.items()}
    div = [(tuple(map(neg, k)), c) for k, c in g_terms.items()]
    lead, lead_c = min(div)
    # h's box [min f - min g, max f - max g], negated
    f_cols, g_cols = list(zip(*f_terms)), list(zip(*g_terms))
    lo = tuple(max(g) - max(f) for f, g in zip(f_cols, g_cols))
    hi = tuple(min(g) - min(f) for f, g in zip(f_cols, g_cols))
    heap = list(rem)
    heapq.heapify(heap)
    quot = {}
    while heap:
        top = heapq.heappop(heap)
        c = rem.get(top)
        if c is None:
            continue  # a stale copy of a term that has cancelled
        q, r = divmod(c, lead_c)
        delta = tuple(map(sub, top, lead))
        if r or not (all(map(le, lo, delta)) and all(map(le, delta, hi))):
            raise ValueError("division is not exact")
        quot[tuple(map(neg, delta))] = q
        for k, v in div:
            key = tuple(map(add, delta, k))
            old = rem.get(key)
            if old is None:
                rem[key] = -q * v
                heapq.heappush(heap, key)
            elif old == q * v:
                del rem[key]
            else:
                rem[key] = old - q * v
    return LaurentPoly(x.vars, quot)


def _accumulate(terms, key, coef):
    terms[key] = terms.get(key, 0) + coef


def oracle_from_raw(ring, raw):
    """Image in ``ring`` of a polynomial over ``ring.full_vars``.

    A term c*t^a*p^b*q^k*x^e goes to c*t^a*x^e and c*p^b*x^e under psi1
    and psi2 when k = 0 (to 0 otherwise), and to c*t^(a+b)*x^e times
    (1-t)^k under psi3 and (t-1)^k under psi4.
    """
    if raw.vars != ring.full_vars:
        raise VariableSetMismatch(f"{raw.vars} vs {ring.full_vars}")
    psi1, psi2, by_q = {}, {}, {}
    for (te, pe, k, *rest), coef in raw.terms.items():
        if k < 0:
            raise ValueError("q is not invertible")
        rest = tuple(rest)
        if k == 0:
            _accumulate(psi1, (te, 0) + rest, coef)
            _accumulate(psi2, (0, pe) + rest, coef)
        _accumulate(by_q.setdefault(k, {}), (te + pe, 0) + rest, coef)
    vars = ring.vars
    one_minus_t = LaurentPoly.const(vars, 1) - LaurentPoly.monomial(vars, 1, t=1)
    psi3 = psi4 = LaurentPoly.zero(vars)
    for k, terms in by_q.items():
        at_pt = LaurentPoly(vars, terms)
        for _ in range(k):
            at_pt = at_pt * one_minus_t
        psi3 = psi3 + at_pt
        psi4 = psi4 + (-at_pt if k % 2 else at_pt)
    return QElement(ring, (LaurentPoly(vars, psi1), LaurentPoly(vars, psi2), psi3, psi4))


def oracle_render(x):
    """The terms of x in descending graded-lex order of exponent tuples, as
    ``c*t^2*x1^-1 - p + 1``."""
    if x.is_zero:
        return "0"
    parts = []
    for exps, coef in sorted(x.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        factors = []
        for name, e in zip(x.vars, exps):
            if e == 1:
                factors.append(name)
            elif e != 0:
                factors.append(f"{name}^{e}")
        mag = abs(coef)
        if factors:
            body = "*".join(factors)
            if mag != 1:
                body = f"{mag}*{body}"
        else:
            body = str(mag)
        parts.append(("-" if coef < 0 else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
