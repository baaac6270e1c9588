"""The Rraw rewrite system, kept as a test oracle.

The ring Rraw is Z[t^±1, q, p^±1, s^±1, r^±1, w] modulo the eight relations

    q(p-t) = 0           q^2 = (1-t)(1-p)
    w(1-s) = 0           w(t-r) = 0         w(p-r) = 0
    w(ps+q-1) = 0        w(r+q-1) = 0
    w^2 = (1-t)(1-rs)    w^2 = q(1-rs)

handled here as an oriented rewrite list run to a fixpoint.  The difference
of the two w^2 relations forces (1-rs)q = (1-rs)(1-t), applied last as a
polynomial-level rule.  ``oracle_reduce`` is idempotent and sends every
relation above to zero.

Every rewrite replaces a term by one equal to it modulo the relations, so two
polynomials with equal reductions are equal in Rraw.  The converse fails: the
list is not confluent, so ``==`` and ``is_zero`` on ``RawElement`` are sound
only when they return True.  A False proves nothing; for instance
``w*(w*(1-s))`` reduces to 0 while ``(w*w)*(1-s)`` reduces to an 8-term
polynomial, although the two are the same element.

The package exports the presentation matrix over the free Laurent ring on
``knotparity.rings.RAW_VARS`` (the module docstring of ``knotparity.matrix``
lists the relations too) and never reduces; the tests use this module to
check that reduction would leave every exported entry unchanged, and to
check identities of the transfer matrices modulo the relations.
"""

from knotparity.rings import RAW_VARS, LaurentPoly, VariableSetMismatch


def subs_inverse(poly, src, dst):
    """Replace src^k by dst^(-k) (e.g. r -> 1/s)."""
    i, j = poly.vars.index(src), poly.vars.index(dst)
    r = {}
    for k, v in poly.terms.items():
        key = list(k)
        key[j] -= key[i]
        key[i] = 0
        key = tuple(key)
        nv = r.get(key, 0) + v
        if nv:
            r[key] = nv
        elif key in r:
            del r[key]
    return LaurentPoly(poly.vars, r)


def _power(base, n):
    """The n-th power of base, n >= 0, by repeated multiplication."""
    result = LaurentPoly.const(base.vars, 1)
    for _ in range(n):
        result = result * base
    return result


def oracle_reduce(poly):
    """Rewrite-fixpoint reduction of a polynomial over ``RAW_VARS``."""
    vars = RAW_VARS
    ti, pi, qi, si, ri, wi = (vars.index(v) for v in ("t", "p", "q", "s", "r", "w"))
    one = LaurentPoly.const(vars, 1)
    t = LaurentPoly.monomial(vars, 1, t=1)
    p = LaurentPoly.monomial(vars, 1, p=1)
    rs = LaurentPoly.monomial(vars, 1, r=1, s=1)
    c_tp = (one - t) * (one - p)
    c_trs = (one - t) * (one - rs)

    def monomial_pass(poly):
        out = LaurentPoly.zero(vars)
        for key, coef in poly.terms.items():
            te, pe, qe, se, re, we = (key[i] for i in (ti, pi, qi, si, ri, wi))
            if qe < 0 or we < 0:
                raise ValueError("q and w are not invertible")
            rest = {name: e for name, e in zip(vars, key)}
            piece = None
            if we >= 1:
                # w absorbs: s->1, r->t, p->t, q->(1-t); then w^2 -> (1-t)(1-rs)
                extra = one
                rest["t"] = te + re + pe
                rest["r"] = rest["p"] = rest["s"] = 0
                if qe:
                    rest["q"] = 0
                    extra = extra * _power(one - t, qe)
                if we >= 2:
                    rest["w"] = we % 2
                    extra = extra * _power(c_trs, we // 2)
                piece = LaurentPoly.monomial(vars, coef, **rest) * extra
            elif qe >= 1:
                extra = one
                if pe:
                    rest["t"] = te + pe
                    rest["p"] = 0
                if qe >= 2:
                    rest["q"] = qe % 2
                    extra = _power(c_tp, qe // 2)
                piece = LaurentPoly.monomial(vars, coef, **rest) * extra
            else:
                piece = LaurentPoly(vars, {key: coef})
            out = out + piece
        return out

    prev = None
    cur = poly
    while prev is None or prev.terms != cur.terms:
        prev = cur
        cur = monomial_pass(cur)

    # final polynomial rule: (1-rs)*q -> (1-rs)*(1-t) on the q-linear part.
    # Write the q-part as q*f(t,s,r); divide f by (rs - 1) via r -> 1/s.
    qpart = {}
    rest = {}
    for key, coef in cur.terms.items():
        (qpart if key[qi] == 1 else rest)[key] = coef
    if qpart:
        f = LaurentPoly(vars, {k[:qi] + (0,) + k[qi + 1 :]: v for k, v in qpart.items()})
        remainder = subs_inverse(f, "r", "s")
        diff = f - remainder
        if not diff.is_zero:
            g = div_rs_minus_1(diff)
            new = LaurentPoly(vars, rest)
            new = new + (rs - one) * (one - t) * g
            qshift = {k[:qi] + (1,) + k[qi + 1 :]: v for k, v in remainder.terms.items()}
            new = new + LaurentPoly(vars, qshift)
            # the added q-free part may admit further monomial reduction
            return oracle_reduce(new) if new.terms != cur.terms else new
    return cur


def div_rs_minus_1(f):
    """Exact quotient f / (rs - 1); raises ValueError when not exact."""
    return f.exact_div(LaurentPoly.monomial(RAW_VARS, 1, r=1, s=1) - LaurentPoly.const(RAW_VARS, 1))


class RawElement:
    """Element of Rraw, reduced to rewrite fixpoint on construction."""

    __slots__ = ("poly",)

    def __init__(self, poly, _reduced=False):
        if poly.vars != RAW_VARS:
            raise VariableSetMismatch(f"{poly.vars} vs {RAW_VARS}")
        self.poly = poly if _reduced else oracle_reduce(poly)

    @property
    def is_zero(self):
        return self.poly.is_zero

    def __add__(self, other):
        return RawElement(self.poly + other.poly)

    def __neg__(self):
        return RawElement(-self.poly, _reduced=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RawElement(self.poly * other.poly)

    def __eq__(self, other):
        return isinstance(other, RawElement) and self.poly == other.poly

    __hash__ = None

    def render(self):
        return self.poly.render()

    def __repr__(self):
        return f"<Rraw: {self.render()}>"


class ReducingRawRing:
    """Rraw with every element reduced: the ring the oracle tests compute in."""

    def zero(self):
        return RawElement(LaurentPoly.zero(RAW_VARS))

    def one(self):
        return RawElement(LaurentPoly.const(RAW_VARS, 1))

    def element(self, coef=1, **exps):
        return RawElement(LaurentPoly.monomial(RAW_VARS, coef, **exps))


def r_reduce(elem):
    """Rewrite-fixpoint reduction; idempotent by construction."""
    if isinstance(elem, RawElement):
        return RawElement(oracle_reduce(elem.poly), _reduced=False)
    return RawElement(elem)
