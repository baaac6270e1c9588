"""Exact ring arithmetic for the knot invariants.

Two layers live here:

* ``LaurentPoly`` -- sparse integer-coefficient multivariate Laurent
  polynomials.  Python integers never overflow, which the exactness of
  everything downstream depends on.
* ``QuotientRing`` / ``QElement`` -- the quotient rings used by the surface
  invariant (tag ``"G"``, variables t, p, q, x1..x2g) and the virtual-knot
  invariant (tag ``"Rprime"``, variables t, p, q, s).  Both rings impose

      q*(p - t) = 0          q*q = (1 - t)*(1 - p)

  on the free Laurent ring.

``RawRing`` names the free Laurent ring over t, p, q, s, r, w (tag
``"Rraw"``) whose elements are plain ``LaurentPoly`` values; it only carries
the presentation-matrix export (see its docstring).

The quotient rings by their specializations.  The two relations let every
element be written A + B*q with B free of p (q*p = q*t), and they force

    (1 - t)*(p - 1)*(p - t) = 0

among q-free elements, so A matters only modulo that product.  Four ring
maps to Laurent rings respect both relations:

    psi1: p=1, q=0       A + B*q  ->  A(t, 1)
    psi2: t=1, q=0       A + B*q  ->  A(1, p)
    psi3: p=t, q=1-t     A + B*q  ->  A(t, t) + (1-t)*B
    psi4: p=t, q=t-1     A + B*q  ->  A(t, t) - (1-t)*B

and together they are injective: if all four images vanish, then
psi3 - psi4 = 2(1-t)B gives B = 0, and A vanishes modulo each of 1-t, p-1 and
p-t, hence modulo their product.  A ``QElement`` stores the four images, so
sums, products, equality and unit multiples act per component and nothing is
ever rewritten.  Each image lives in a Laurent ring over an integral domain.

For rendering, the canonical pair is rebuilt from the images.  With
m = (p - 1)*(p - t), monic in p with unit constant term, every A divides as
Q*m + R with deg_p(R) <= 1, and the class of A modulo (1-t)*m is the pair
(R, Q mod (1-t)); the canonical representative is

    A_can = (Q at t=1)*m + R.

B, R = r0 + r1*p and Q at t=1 come back from the images by exact division by
2*(t-1) and by (p-1)^2 (see ``QElement.canonical_pair``).

The quotient rings have zero divisors, but each image lies in a Laurent ring
over Z, which is an integral domain.  So a determinant is computed image by
image with fraction-free Gaussian elimination, whose every division is exact
(see ``det``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from operator import add, le, neg, sub


class VariableSetMismatch(ValueError):
    """Raised when combining polynomials or elements over different rings."""


class NonSquare(ValueError):
    """Raised when a determinant of a non-square matrix is requested."""


class RingMismatch(ValueError):
    """Raised when comparing or combining values from different rings."""


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Sparse Laurent polynomial: map exponent vector -> nonzero int."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    # -- constructors

    @classmethod
    def zero(cls, vars):
        return cls(vars)

    @classmethod
    def const(cls, vars, c):
        n = len(vars)
        return cls(vars, {(0,) * n: c})

    @classmethod
    def monomial(cls, vars, coef=1, **exps):
        vec = [0] * len(vars)
        for name, e in exps.items():
            vec[list(vars).index(name)] = e
        return cls(vars, {tuple(vec): coef})

    # -- predicates / views

    @property
    def is_zero(self):
        return not self.terms

    def exponent_range(self, var):
        """(min, max) exponent of var over all terms; None for zero poly."""
        if not self.terms:
            return None
        i = self.vars.index(var)
        es = [k[i] for k in self.terms]
        return min(es), max(es)

    # -- arithmetic

    def _check(self, other):
        if self.vars != other.vars:
            raise VariableSetMismatch(f"{self.vars} vs {other.vars}")

    def __add__(self, other):
        self._check(other)
        r = dict(self.terms)
        for k, v in other.terms.items():
            nv = r.get(k, 0) + v
            if nv:
                r[k] = nv
            elif k in r:
                del r[k]
        return LaurentPoly(self.vars, r)

    def __neg__(self):
        return LaurentPoly(self.vars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if not self.terms or not other.terms:
            return LaurentPoly(self.vars)
        a, b = self.terms, other.terms
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
        return LaurentPoly(self.vars, r)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power on a polynomial")
        result = LaurentPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div(self, divisor):
        """The quotient h with self == h * divisor; raises ValueError if none.

        Peels lex-leading terms: the leading term of self is that of h times
        that of the divisor, because the coefficients lie in the domain Z.
        For the same reason the lowest and highest exponent of each variable
        add under multiplication, so every term of h lies in the box
        [min self - min divisor, max self - max divisor].  The peeled
        quotient terms strictly decrease in lex order, so a term outside the
        box, or an integer quotient with a remainder, proves the division
        inexact; the loop ends on every input.
        """
        self._check(divisor)
        if not divisor.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.terms:
            return LaurentPoly(self.vars)
        if len(divisor.terms) == 1:  # a monomial: shift every exponent
            ((g, c),) = divisor.terms.items()
            if any(v % c for v in self.terms.values()):
                raise ValueError("division is not exact")
            return LaurentPoly(self.vars, {tuple(map(sub, k, g)): v // c for k, v in self.terms.items()})
        # Work on negated exponents, so that heapq's minimum is the lex maximum.
        rem = {tuple(map(neg, k)): c for k, c in self.terms.items()}
        div = [(tuple(map(neg, k)), c) for k, c in divisor.terms.items()]
        lead, lead_c = min(div)
        # h's box [min f - min g, max f - max g], negated
        f_cols, g_cols = list(zip(*self.terms)), list(zip(*divisor.terms))
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
        return LaurentPoly(self.vars, quot)

    # -- substitutions

    def subs_one(self, var):
        """Set var = 1."""
        i = self.vars.index(var)
        r = {}
        for k, v in self.terms.items():
            key = k[:i] + (0,) + k[i + 1 :]
            nv = r.get(key, 0) + v
            if nv:
                r[key] = nv
            elif key in r:
                del r[key]
        return LaurentPoly(self.vars, r)

    # -- ordering / rendering

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order of exponent vectors."""
        return sorted(
            self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
        )

    def leading_coeff(self):
        st = self.sorted_terms()
        return st[0][1] if st else 0

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coef in self.sorted_terms():
            factors = []
            for name, e in zip(self.vars, exps):
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

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        return f"LaurentPoly({self.render()!r})"


# ---------------------------------------------------------------------------
# Quotient rings G and R'


@dataclass(frozen=True)
class QuotientRing:
    """Ring spec for the two quotient rings sharing the q-relations.

    ``extras`` are the invertible passenger variables (x1..x2g or s);
    they commute freely and do not appear in the relations.
    """

    tag: str
    extras: tuple

    @property
    def vars(self):
        # variable order fixed globally: t, p, q, then extras
        return ("t", "p") + self.extras

    @property
    def full_vars(self):
        return ("t", "p", "q") + self.extras

    def zero(self):
        return QElement(self, (LaurentPoly.zero(self.vars),) * 4)

    def one(self):
        return QElement(self, (LaurentPoly.const(self.vars, 1),) * 4)

    def element(self, coef=1, q=0, **exps):
        """Monomial element coef * t^.. p^.. q^q * extras^.."""
        raw = LaurentPoly.monomial(self.full_vars, coef, q=q, **exps)
        return self.from_raw(raw)

    def from_raw(self, raw):
        """Image in the quotient of a polynomial over ``full_vars``.

        A term c*t^a*p^b*q^k*x^e goes to c*t^a*x^e and c*p^b*x^e under psi1
        and psi2 when k = 0 (to 0 otherwise), and to c*t^(a+b)*x^e times
        (1-t)^k under psi3 and (t-1)^k under psi4.
        """
        if raw.vars != self.full_vars:
            raise VariableSetMismatch(f"{raw.vars} vs {self.full_vars}")
        psi1, psi2, by_q = {}, {}, {}
        for (te, pe, k, *rest), coef in raw.terms.items():
            if k < 0:
                raise ValueError("q is not invertible")
            rest = tuple(rest)
            if k == 0:
                _accumulate(psi1, (te, 0) + rest, coef)
                _accumulate(psi2, (0, pe) + rest, coef)
            _accumulate(by_q.setdefault(k, {}), (te + pe, 0) + rest, coef)
        vars = self.vars
        psi3 = psi4 = LaurentPoly.zero(vars)
        for k, terms in by_q.items():
            at_pt = LaurentPoly(vars, terms)
            for _ in range(k):
                at_pt = at_pt * self._one_minus_t
            psi3 = psi3 + at_pt
            psi4 = psi4 + (-at_pt if k % 2 else at_pt)
        return QElement(self, (LaurentPoly(vars, psi1), LaurentPoly(vars, psi2), psi3, psi4))

    @cached_property
    def _one_minus_t(self):
        """1 - t over ``vars``: the image of q under psi3, and minus that under psi4."""
        return LaurentPoly.const(self.vars, 1) - LaurentPoly.monomial(self.vars, 1, t=1)

    def __repr__(self):
        return f"QuotientRing({self.tag})"


def _accumulate(terms, key, coef):
    terms[key] = terms.get(key, 0) + coef


def g_ring(genus):
    """Quotient ring for surface diagrams of the given genus."""
    return QuotientRing("G", tuple(f"x{i}" for i in range(1, 2 * genus + 1)))


def rprime_ring():
    """Quotient ring for the virtual-knot polynomial."""
    return QuotientRing("Rprime", ("s",))


class QElement:
    """Element of a quotient ring, stored as its images under four ring maps.

    ``parts`` is (psi1, psi2, psi3, psi4), Laurent polynomials over the
    ring's ``vars`` with

        psi1: p=1, q=0      -> A(t, 1)             (p-free)
        psi2: t=1, q=0      -> A(1, p)             (t-free)
        psi3: p=t, q=1-t    -> A(t, t) + (1-t)*B   (p-free)
        psi4: p=t, q=t-1    -> A(t, t) - (1-t)*B   (p-free)

    for the element A + B*q.  The maps are ring homomorphisms and jointly
    injective (see the module docstring), so sums, products and equality
    act per component.  The canonical pair (A, B) that ``render`` prints is
    rebuilt from the parts on demand by ``canonical_pair``.
    """

    __slots__ = ("ring", "parts")

    def __init__(self, ring, parts):
        self.ring = ring
        self.parts = parts

    def _check(self, other):
        if not isinstance(other, QElement) or other.ring != self.ring:
            raise VariableSetMismatch(f"{self.ring} vs {getattr(other, 'ring', other)}")

    @property
    def is_zero(self):
        return all(x.is_zero for x in self.parts)

    def __add__(self, other):
        self._check(other)
        return QElement(self.ring, tuple(x + y for x, y in zip(self.parts, other.parts)))

    def __neg__(self):
        return QElement(self.ring, tuple(-x for x in self.parts))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return QElement(self.ring, tuple(x * y for x, y in zip(self.parts, other.parts)))

    def __eq__(self, other):
        return (
            isinstance(other, QElement)
            and self.ring == other.ring
            and self.parts == other.parts
        )

    __hash__ = None

    def times_unit(self, sign, t_exp, p_exp):
        """Multiply by sign * t^t_exp * p^p_exp."""
        vars = self.ring.vars
        t_ab = LaurentPoly.monomial(vars, sign, t=t_exp + p_exp)
        units = (
            LaurentPoly.monomial(vars, sign, t=t_exp),
            LaurentPoly.monomial(vars, sign, p=p_exp),
            t_ab,
            t_ab,
        )
        return QElement(self.ring, tuple(x * u for x, u in zip(self.parts, units)))

    def times_q(self):
        """Multiply by q, which psi1..psi4 send to 0, 0, 1-t and t-1."""
        _, _, psi3, psi4 = self.parts
        one_minus_t = self.ring._one_minus_t
        zero = LaurentPoly.zero(self.ring.vars)
        return QElement(self.ring, (zero, zero, psi3 * one_minus_t, -psi4 * one_minus_t))

    def canonical_pair(self):
        """The canonical (A, B) of A + B*q, rebuilt from the four parts.

        With A = Q1*(p-1)*(p-t) + r0 + r1*p (the form described in the
        module docstring):

            B      = (psi4 - psi3) / (2*(t-1))
            r1     = (psi3 + psi4 - 2*psi1) / (2*(t-1)),    r0 = psi1 - r1
            Q1     = (psi2 - r0(t=1) - r1(t=1)*p) / (p-1)^2
        """
        psi1, psi2, psi3, psi4 = self.parts
        vars = self.ring.vars
        one = LaurentPoly.const(vars, 1)
        t, p = LaurentPoly.monomial(vars, 1, t=1), LaurentPoly.monomial(vars, 1, p=1)
        two_t_minus_two = (t - one) * LaurentPoly.const(vars, 2)
        b = (psi4 - psi3).exact_div(two_t_minus_two)
        r1 = (psi3 + psi4 - psi1 - psi1).exact_div(two_t_minus_two)
        r0 = psi1 - r1
        rest = psi2 - r0.subs_one("t") - r1.subs_one("t") * p
        q1 = rest.exact_div((p - one) * (p - one))
        return q1 * (p - one) * (p - t) + r0 + r1 * p, b

    @property
    def a(self):
        return self.canonical_pair()[0]

    @property
    def b(self):
        return self.canonical_pair()[1]

    def to_full_poly(self):
        """Embed the canonical pair back into the free Laurent ring with explicit q."""
        a, b = self.canonical_pair()
        full = self.ring.full_vars
        qi = full.index("q")
        terms = {}
        for k, v in a.terms.items():
            terms[k[:qi] + (0,) + k[qi:]] = v
        for k, v in b.terms.items():
            terms[k[:qi] + (1,) + k[qi:]] = v
        return LaurentPoly(full, terms)

    def render(self):
        return self.to_full_poly().render()

    def __repr__(self):
        return f"<{self.ring.tag}: {self.render()}>"


# ---------------------------------------------------------------------------
# The bigger ring for the module presentation (tag "Rraw")


RAW_VARS = ("t", "p", "q", "s", "r", "w")


class RawRing:
    """The free Laurent ring Z[t^±1, q, p^±1, s^±1, r^±1, w] (tag ``"Rraw"``).

    The invariant module of Section 4 lives over its quotient by the eight
    relations

        q(p-t) = 0           q^2 = (1-t)(1-p)
        w(1-s) = 0           w(t-r) = 0         w(p-r) = 0
        w(ps+q-1) = 0        w(r+q-1) = 0
        w^2 = (1-t)(1-rs)    w^2 = q(1-rs)

    but its only consumer, the presentation-matrix export, needs no
    arithmetic modulo them: the builder only adds the signed role monomials
    (-1, t, 1-t, p, q, s^±1, r^±1, w, -w/t), so the entries are exported as
    built, as plain ``LaurentPoly`` values over ``RAW_VARS``.  The relations
    are checked only by the rewrite-system oracle in the tests
    (``tests/rraw_oracle.py``), which shows that reducing the exported
    entries would change none of them.
    """

    tag = "Rraw"
    vars = RAW_VARS

    def zero(self):
        return LaurentPoly.zero(RAW_VARS)

    def one(self):
        return LaurentPoly.const(RAW_VARS, 1)

    def element(self, coef=1, **exps):
        return LaurentPoly.monomial(RAW_VARS, coef, **exps)

    def __repr__(self):
        return "RawRing()"

    def __eq__(self, other):
        return isinstance(other, RawRing)


# ---------------------------------------------------------------------------
# Determinants


def det(rows, ring):
    """Determinant of a square matrix of ``QElement`` over ``ring``.

    The four ring maps are homomorphisms, so the determinant's images are
    the determinants of the four image matrices; each is computed by
    fraction-free elimination over its Laurent ring (``_bareiss_det``).
    The 0x0 determinant is the ring one.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise NonSquare(f"{len(row)} entries in a row of a {n}-row matrix")
    if n == 0:
        return ring.one()
    return QElement(
        ring,
        tuple(
            _bareiss_det(
                [{j: e.parts[c] for j, e in enumerate(row) if not e.parts[c].is_zero} for row in rows],
                ring.vars,
            )
            for c in range(4)
        ),
    )


def _bareiss_det(rows, vars):
    """Determinant over an integral domain of Laurent polynomials.

    ``rows`` is a square matrix as sparse rows {column: nonzero entry}, and
    is consumed.  Bareiss (1968): step k turns every entry below and right
    of the pivot into the (k+2)-minor  (p_k * m_ij - m_ik * m_kj) / p_(k-1),
    where p_k is the step-k pivot and p_(-1) = 1; by Sylvester's identity
    every division is exact, and the last pivot is the determinant.

    Pivots are chosen per column, among the rows with a nonzero entry there:
    the fewest nonzeros, then the fewest terms in the pivot, then the lowest
    index (a Markowitz-style order that limits fill); each row swap flips
    the sign.  A row with a zero in the pivot column would only be scaled
    by p_k / p_(k-1), so it is left as it is, remembering the step ``level``
    it was last brought to: a row at level L stands for the row at level
    k - 1 times p_(k-1) / p_L, and the step-k update of it is
    (p_k * m_ij - m_ik * m_kj) / p_L.
    """
    n = len(rows)
    sign = 1
    level = [-1] * n
    pivots = {}
    for k in range(n):
        candidates = [i for i in range(k, n) if k in rows[i]]
        if not candidates:
            return LaurentPoly.zero(vars)
        i = min(candidates, key=lambda i: (len(rows[i]), len(rows[i][k].terms), i))
        if i != k:
            rows[i], rows[k] = rows[k], rows[i]
            level[i], level[k] = level[k], level[i]
            sign = -sign
        prow = rows[k]
        if level[k] != k - 1:
            scale = pivots[k - 1]
            prow = {j: _div_by_pivot(scale * e, pivots, level[k]) for j, e in prow.items()}
        pivot = pivots[k] = prow.pop(k)
        for i in range(k + 1, n):
            row = rows[i]
            a = row.pop(k, None)
            if a is None:
                continue
            new = {j: pivot * e for j, e in row.items()}
            for j, e in prow.items():
                new[j] = new[j] - a * e if j in new else -(a * e)
            rows[i] = {j: _div_by_pivot(e, pivots, level[i]) for j, e in new.items() if e.terms}
            level[i] = k
    return pivots[n - 1] if sign > 0 else -pivots[n - 1]


def _div_by_pivot(f, pivots, level):
    """f / p_level, where p_(-1) = 1."""
    return f if level < 0 else f.exact_div(pivots[level])
