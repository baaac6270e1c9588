"""Exact ring arithmetic for the knot invariants.

Two layers live here:

* ``LaurentPoly`` -- sparse integer-coefficient multivariate Laurent
  polynomials, each term keyed by its exponent vector packed into one int.
  Python integers never overflow, which the exactness of everything
  downstream depends on.
* ``QuotientRing`` / ``QElement`` -- the quotient rings used by the surface
  invariant (tag ``"G"``, variables t, p, q, x1..x2g) and the virtual-knot
  invariant (tag ``"Rprime"``, variables t, p, q, s).  Both rings impose

      q*(p - t) = 0          q*q = (1 - t)*(1 - p)

  on the free Laurent ring.

Matrices are built over the free Laurent ring on ``full_vars`` (or on
``RAW_VARS``, the variables t, p, q, s, r, w of the module presentation,
whose relations are listed in ``matrix``) and enter a quotient ring only
through its one ring map, ``QuotientRing.from_raw``.  So do the units
+-t^a p^b q^c that the invariants are taken up to: ``QuotientRing.element``
maps the monomial, and a unit acts by plain multiplication.

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
sums, products and equality act per component and nothing is ever
rewritten.  Each image lives in a Laurent ring over an integral domain.

For rendering, the canonical pair is rebuilt from the images.  With
m = (p - 1)*(p - t), monic in p with unit constant term, every A divides as
Q*m + R with deg_p(R) <= 1, and the class of A modulo (1-t)*m is the pair
(R, Q mod (1-t)); the canonical representative is

    A_can = (Q at t=1)*m + R.

B, R = r0 + r1*p and Q at t=1 come back from the images by dividing by
2*(t-1) and by (p-1)^2 (see ``QElement.canonical_pair``), with
``LaurentPoly.exact_div``, the one exact division of the package, which
raises on an inexact input and never rounds.

The quotient rings have zero divisors, but the free Laurent ring and each
image lie over Z, and are integral domains.  A determinant (see ``det``)
starts over the free ring on ``full_vars`` with plain Gaussian steps on
pivots that are signed monomials free of q, such as -1, t or -p*x1^-2 (every
crossing row of the invariant matrices holds one).  Those are units of the
free ring and of all four images, and the steps need no division at all, so
they run once for the four images.  Their product u is a signed monomial,
kept while they run as one packed key, a sign and a bound, and each division
by a pivot is a key shift.  u is folded into the first row of the Schur
complement S they leave; a matrix of at most EXPAND_ROWS = 3 rows takes no
step and is its own S.  The cells stay packed term dicts with a bound, as
``matrix._fill`` makes them, until only S is left.  An S of at most
EXPAND_ROWS rows is expanded along that row over the free ring
(``_expanded_det``), with no division, and only the one polynomial that
gives goes through ``from_raw``: the map is a ring homomorphism, so that is
the image of the determinant.  A larger S goes through ``from_raw`` entry by
entry, and each of its images is finished by ``_bareiss_det``, textbook
fraction-free Bareiss elimination, whose every division is exact.  q itself
is never a pivot: it has no inverse in the quotient.

One kernel, ``_addmul``, does every multiply-accumulate r += sign*a*b on
packed term dicts: products (r empty), the row updates of both eliminations,
the expansion of a small Schur complement and the cells of a matrix that
more than one incidence writes to (``matrix._fill``), each in one dict with
no throwaway polynomial; a sum or a difference is one pass over the second
operand's terms.  Most products on the determinant path have a one-term
factor (a role coefficient times a label monomial, the folded u), and such a
product is a key shift.

Packed exponents (after Monagan and Pearce, "Parallel sparse polynomial
multiplication using heaps", 2009).  A ``LaurentPoly`` over n variables keys
each term by one int: the exponent vector (e_1, ..., e_n) read as signed
digits in base 2^FIELD_BITS, e_1 the most significant,

    key = e_1 * 2^(FIELD_BITS*(n-1)) + ... + e_(n-1) * 2^FIELD_BITS + e_n.

While every digit lies in [-2^(FIELD_BITS-1), 2^(FIELD_BITS-1)), the vector
can be read back from the key, adding two keys adds the two vectors (so
multiplies the monomials), and the order of keys is the lex order of the
vectors.  Every polynomial keeps its exponents below EXPONENT_LIMIT =
2^(FIELD_BITS-2) in absolute value, a quarter of the field range, so the
sum of two keys and every difference that ``exact_div`` tests stay inside
the fields.  Each polynomial carries an upper bound on the absolute values
of its exponents, updated in O(1) per operation; a result whose bound
reaches the limit has its exponents read off exactly, and raises
``ExponentOverflow`` if one of them reaches it.

The parser's ceiling of T = 20 000 tokens per diagram
(``diagram.MAX_TOKENS``) keeps every exponent met in computing the
invariants below the limit.  A matrix then has N <= T rows, and its entries
are sums of role coefficients (-1, t, 1-t, p, q) times label monomials, so
every term has total degree 0 or 1 in t, p and q and exponents at most
E = max(2, S) in absolute value, S <= T counting the side tokens (the
type-0 crossings for the virtual matrix).  Every k-minor over the free ring
then has exponents at most k*E <= N*E, and so does its image under each of
psi1..psi4, since a term t^a*p^b*q^k with a + b + k <= N maps to powers of
t and p no higher.  An entry left by the free-ring unit steps is a minor
of the matrix divided by a monomial minor (the product of the unit pivots
so far), and so is every minor of the Schur complement they leave, which
is what Bareiss forms on each image of it: at most 2*N*E in the free ring
and in every image.  Folding u into the first row turns the minors through
that row into u times minors of the complement, which are minors of the
matrix itself, at most N*E.  A product formed before a division multiplies
two of them.  The expansion of a small S multiplies an entry of its folded
first row, at most N*E, by a minor of its other rows, at most 2*N*E, and
each of its 2x2 minors multiplies two entries of S, each at most 2*N*E.
So every intermediate stays within 4*N*E <= 4*T^2 = 1.6e9 < 2^32 =
EXPONENT_LIMIT, which FIELD_BITS = 34 gives; ``ExponentOverflow`` stays
the guard at run time, and ``_within`` is the one test that raises it.  No
hot path of the package unpacks keys into tuples: the tuple-keyed ``terms``
view is for callers outside it, such as the tests.  ``from_raw``,
``subs_one`` and ``exponent_range`` read each exponent they need off its
field, ``exact_div`` reads each divisor's fields once, and ``graded`` reads
every field of a key once to order the terms for ``render``.
``to_full_poly`` inserts the q field into each key by integer arithmetic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from math import comb


class VariableSetMismatch(ValueError):
    """Raised when combining polynomials or elements over different rings."""


class NonSquare(ValueError):
    """Raised when a determinant of a non-square matrix is requested."""


class RingMismatch(ValueError):
    """Raised when comparing or combining values from different rings."""


class ExponentOverflow(OverflowError):
    """Raised when an exponent could reach EXPONENT_LIMIT in absolute value."""


# ---------------------------------------------------------------------------
# Laurent polynomials

FIELD_BITS = 34
EXPONENT_LIMIT = 1 << (FIELD_BITS - 2)
_HALF = 1 << (FIELD_BITS - 1)
_MASK = (1 << FIELD_BITS) - 1


@lru_cache(maxsize=None)
def _layout(n):
    """For n variables: the shift of each field, first variable highest; the
    key with every entry 1; and the top bit of every field."""
    shifts = tuple(FIELD_BITS * i for i in range(n - 1, -1, -1))
    ones = sum(1 << s for s in shifts)
    return shifts, ones, _HALF * ones


def _pack(vec):
    """The key of an exponent vector: its entries as signed digits in base 2^FIELD_BITS."""
    key = 0
    for e in vec:
        key = (key << FIELD_BITS) + e
    return key


def _unpack(key, n):
    shifts, _, top = _layout(n)
    u = key + top
    return tuple([((u >> s) & _MASK) - _HALF for s in shifts])


def _within(reach):
    """``reach``, the largest absolute value of some exponents, if it lies
    below EXPONENT_LIMIT; else raises ExponentOverflow.  Every exponent
    guard of the package goes through it."""
    if reach >= EXPONENT_LIMIT:
        raise ExponentOverflow(f"exponent {reach} is past the limit {EXPONENT_LIMIT - 1}")
    return reach


def _cell(n, terms, bound):
    """(terms, bound) for packed terms over n variables whose exponents are at
    most ``bound`` in absolute value, the cell form ``det`` takes.

    A bound at or past EXPONENT_LIMIT is replaced by the exact one, the
    largest absolute exponent read off the keys, which must lie below the
    limit too (``_within``).  The keys come from operands whose exponents
    lie below EXPONENT_LIMIT, so no key has carried out of a field.
    """
    if bound >= EXPONENT_LIMIT:
        bound = _within(max((max(map(abs, _unpack(k, n))) for k in terms), default=0))
    return terms, bound


def _poly(vars, packed, bound):
    """A LaurentPoly over packed terms whose exponents are at most ``bound`` in absolute value.

    A bound at or past the limit is replaced by the exact one (``_cell``).
    """
    if bound >= EXPONENT_LIMIT:
        packed, bound = _cell(len(vars), packed, bound)
    poly = object.__new__(LaurentPoly)
    poly.vars, poly._terms, poly._bound, poly._div = vars, packed, bound, None
    return poly


def _addmul(r, a, b, sign=1):
    """r + sign*a*b on packed term dicts: r is updated in place and returned.

    This is the one multiply-accumulate of the package: products (r empty),
    the row updates of both eliminations in ``det``, the expansion of a
    small rest (``_expanded_det``) and the cells of ``matrix._fill`` go
    through it.  A term of r that cancels is deleted at
    once: a sum of two nonzero ints is zero only when the key was already
    in r.  When r is empty and one factor is a monomial the product is a key
    shift, returned as a new dict: distinct keys stay distinct and a
    product of nonzero ints is nonzero, so nothing is tested.  Keys stay exact because every operand keeps its
    exponents below EXPONENT_LIMIT; the caller gives the result its bound
    through ``_poly``.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1 and not r:
        ((ka, va),) = a.items()
        va *= sign
        return {ka + kb: va * vb for kb, vb in b.items()}
    get = r.get
    for ka, va in a.items():
        va *= sign
        for kb, vb in b.items():
            k = ka + kb
            v = get(k, 0) + va * vb
            if v:
                r[k] = v
            else:
                del r[k]
    return r


class LaurentPoly:
    """Sparse Laurent polynomial: map exponent vector -> nonzero int.

    ``_terms`` keys each term by its packed exponent vector (see the module
    docstring), so that adding keys multiplies monomials and comparing keys
    is lex order; ``terms`` is the same map keyed by exponent tuples.
    ``_bound`` bounds the absolute value of every exponent and stays below
    EXPONENT_LIMIT; ``_div`` keeps what ``exact_div`` reads off a divisor.
    """

    __slots__ = ("vars", "_terms", "_bound", "_div")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        n = len(self.vars)
        self._terms, self._bound, self._div = {}, 0, None
        for vec, c in (terms or {}).items():
            if len(vec) != n:
                raise ValueError(f"exponent vector {vec} for variables {self.vars}")
            if c:
                self._bound = max(self._bound, max(map(abs, vec), default=0))
                self._terms[_pack(vec)] = c
        _within(self._bound)

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
        return not self._terms

    @property
    def terms(self):
        """The terms keyed by exponent tuples (a fresh dict)."""
        n = len(self.vars)
        return {_unpack(k, n): c for k, c in self._terms.items()}

    def _extent(self, i):
        """(lowest, highest) exponent of the i-th variable; nonzero polys only."""
        shifts, _, top = _layout(len(self.vars))
        col = [((k + top) >> shifts[i]) & _MASK for k in self._terms]
        return min(col) - _HALF, max(col) - _HALF

    def _as_divisor(self):
        """(terms, leading key and coefficient, packed lowest and highest
        exponents, reach) of a nonzero divisor, computed once; see exact_div."""
        if self._div is None:
            ranges = [self._extent(i) for i in range(len(self.vars))]
            terms = list(self._terms.items())
            lead, lead_c = max(terms)
            reach = max((max(lo, -hi) for lo, hi in ranges), default=0)
            lo, hi = _pack(r[0] for r in ranges), _pack(r[1] for r in ranges)
            self._div = (terms, lead, lead_c, lo, hi, reach)
        return self._div

    def exponent_range(self, var):
        """(min, max) exponent of var over all terms; None for zero poly."""
        if not self._terms:
            return None
        return self._extent(self.vars.index(var))

    # -- arithmetic

    def _check(self, other):
        if self.vars != other.vars:
            raise VariableSetMismatch(f"{self.vars} vs {other.vars}")

    def _plus(self, other, sign):
        """self + sign*other, in one pass over other's terms."""
        self._check(other)
        r = dict(self._terms)
        get = r.get
        for k, v in other._terms.items():
            nv = get(k, 0) + sign * v
            if nv:
                r[k] = nv
            else:
                del r[k]  # a zero sum means k held -sign*v
        return _poly(self.vars, r, max(self._bound, other._bound))

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return _poly(self.vars, {k: -v for k, v in self._terms.items()}, self._bound)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        self._check(other)
        if not self._terms or not other._terms:
            return LaurentPoly(self.vars)
        return _poly(self.vars, _addmul({}, self._terms, other._terms), self._bound + other._bound)

    def exact_div(self, divisor):
        """The quotient h with self == h * divisor; raises ValueError if none.

        Peels lex-leading terms: the leading term of self is that of h times
        that of the divisor, because the coefficients lie in the domain Z.
        For the same reason the lowest and highest exponent of each variable
        add under multiplication, so every term of h lies in the box
        [min self - min divisor, max self - max divisor], and so in the box
        [-e - min divisor, e - max divisor] for e the bound on self's
        exponents, which needs no pass over self's terms.  The peeled
        quotient terms strictly decrease in lex order, so a term outside
        that box, or an integer quotient with a remainder, proves the
        division inexact; the loop ends on every input.

        The box test runs on packed keys (Monagan and Pearce's divisibility
        test): a key d lies in the box [lo, hi] exactly when neither d - lo
        nor hi - d has the top bit of any field set.  That holds because all
        exponents lie below a quarter of the field range, so every field of
        the two differences lies within half of it.
        """
        self._check(divisor)
        if not divisor._terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._terms:
            return LaurentPoly(self.vars)
        # With e bounding self's exponents, each variable's exponent in h
        # lies in [-e - min divisor, e - max divisor]; its absolute value is
        # then at most e + reach, reach = max(min divisor, -max divisor)
        # over the variables.
        e = self._bound
        div, lead, lead_c, g_lo, g_hi, reach = divisor._as_divisor()
        _, ones, guard = _layout(len(self.vars))
        lo, hi = -e * ones - g_lo, e * ones - g_hi
        rem = dict(self._terms)
        heap = [-k for k in rem]  # heapq's minimum is then the lex maximum
        heapq.heapify(heap)
        quot = {}
        while heap:
            top = -heapq.heappop(heap)
            c = rem.get(top)
            if c is None:
                continue  # a stale copy of a term that has cancelled
            q, r = divmod(c, lead_c)
            d = top - lead
            if r or ((d - lo) | (hi - d)) & guard:
                raise ValueError("division is not exact")
            quot[d] = q
            for k, v in div:
                key = d + k
                old = rem.get(key)
                if old is None:
                    rem[key] = -q * v
                    heapq.heappush(heap, -key)
                elif old == q * v:
                    del rem[key]
                else:
                    rem[key] = old - q * v
        return _poly(self.vars, quot, e + reach)

    # -- substitutions

    def subs_one(self, var):
        """Set var = 1."""
        shifts, _, top = _layout(len(self.vars))
        shift = shifts[self.vars.index(var)]
        r = {}
        for k, v in self._terms.items():
            e = (((k + top) >> shift) & _MASK) - _HALF
            key = k - (e << shift)
            nv = r.get(key, 0) + v
            if nv:
                r[key] = nv
            elif key in r:
                del r[key]
        return _poly(self.vars, r, self._bound)

    # -- ordering / rendering

    def graded(self):
        """(degree, key, exponent list, coefficient) of every term, in
        descending graded-lexicographic order: total degree first, then the
        packed key, whose order is the lex order of the exponent vectors.
        Each key's fields are read once."""
        shifts, _, top = _layout(len(self.vars))
        order = []
        for k, c in self._terms.items():
            u = k + top
            exps = [((u >> s) & _MASK) - _HALF for s in shifts]
            order.append((sum(exps), k, exps, c))
        order.sort(reverse=True)
        return order

    def render(self, order=None):
        """The terms in ``graded`` order, as ``c*t^2*x1^-1 - p + 1``; ``order``
        is that order when the caller has read it already."""
        if not self._terms:
            return "0"
        vars = self.vars
        parts = []
        for _, _, exps, coef in self.graded() if order is None else order:
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(vars, exps) if e]
            mag = -coef if coef < 0 else coef
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = f"{mag}*{'*'.join(factors)}"
            parts.append((" - " if coef < 0 else " + ") + body)
        first = parts[0]
        parts[0] = ("-" if first[1] == "-" else "") + first[3:]
        return "".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.vars == other.vars
            and self._terms == other._terms
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

    @lru_cache
    def element(self, coef=1, q=0, **exps):
        """Monomial element coef * t^.. p^.. q^q * extras^.., through ``from_raw``.

        Units act on elements by multiplying with one of these; a sweep asks
        for few distinct units many times over, so the last 128 are kept.
        """
        raw = LaurentPoly.monomial(self.full_vars, coef, q=q, **exps)
        return self.from_raw(raw)

    def from_raw(self, raw):
        """Image in the quotient of a polynomial over ``full_vars``.

        A term c*t^a*p^b*q^k*x^e goes to c*t^a*x^e and c*p^b*x^e under psi1
        and psi2 when k = 0 (to 0 otherwise), and to c*t^(a+b)*x^e times
        (1-t)^k under psi3 and (t-1)^k under psi4.  Every image key is
        built from the packed key: a, b and k are read off their fields, and
        what is left below the q field is the packed x^e, the low fields of
        every image key.
        """
        if raw.vars != self.full_vars:
            raise VariableSetMismatch(f"{raw.vars} vs {self.full_vars}")
        low = FIELD_BITS * len(self.extras)  # q's shift in full_vars, p's in vars
        mid = low + FIELD_BITS  # p's shift in full_vars, t's in vars
        high = mid + FIELD_BITS  # t's shift in full_vars
        top = _layout(len(raw.vars))[2]
        psi1, psi2, psi3, psi4 = {}, {}, {}, {}
        bound = raw._bound
        for key, c in raw._terms.items():
            u = key + top
            a = ((u >> high) & _MASK) - _HALF
            b = ((u >> mid) & _MASK) - _HALF
            k = ((u >> low) & _MASK) - _HALF
            if k < 0:
                raise ValueError("q is not invertible")
            x = key - (a << high) - (b << mid) - (k << low)
            if not k:
                image = (a << mid) + x
                psi1[image] = psi1.get(image, 0) + c
                image = (b << low) + x
                psi2[image] = psi2.get(image, 0) + c
            bound = max(bound, abs(a + b), abs(a + b + k))
            at_pt = ((a + b) << mid) + x
            for i, to_psi3, to_psi4 in _q_power_images(k):
                image = at_pt + (i << mid)
                psi3[image] = psi3.get(image, 0) + c * to_psi3
                psi4[image] = psi4.get(image, 0) + c * to_psi4
        _within(bound)
        vars = self.vars
        parts = (psi1, psi2, psi3, psi4)
        return QElement(self, tuple(_poly(vars, {k: v for k, v in d.items() if v}, bound) for d in parts))

    def __repr__(self):
        return f"QuotientRing({', '.join((self.tag,) + self.extras)})"


@lru_cache(maxsize=None)
def _p_and_m(vars):
    """p, m = (p-1)*(p-t), 2*(t-1) and (p-1)^2 over ``vars``, for
    ``canonical_pair``; callers only read them.  Built once per variable
    set, so each divisor keeps what ``exact_div`` reads off it for every
    later division by it."""
    one, t, p = (LaurentPoly.monomial(vars, 1, **e) for e in ({}, {"t": 1}, {"p": 1}))
    return p, (p - one) * (p - t), (t - one) + (t - one), (p - one) * (p - one)


@lru_cache(maxsize=None)
def _q_power_images(k):
    """(i, coefficient of t^i in (1-t)^k, in (t-1)^k) for i = 0..k: the
    images of q^k under psi3 and psi4."""
    return tuple((i, (-1) ** i * comb(k, i), (-1) ** (k - i) * comb(k, i)) for i in range(k + 1))


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
    act per component, and a unit multiple is the product with the unit's
    ``QuotientRing.element``.  The canonical pair (A, B) that ``render``
    prints is rebuilt from the parts by ``canonical_pair`` the first time it
    is asked for and kept in ``_pair``, its embedding in the free ring is
    kept in ``_full`` by ``to_full_poly``, and the printed order of that
    embedding's terms in ``_order`` by ``graded``; negation carries all
    three over.
    """

    __slots__ = ("ring", "parts", "_pair", "_full", "_order")

    def __init__(self, ring, parts, pair=None, full=None, order=None):
        self.ring = ring
        self.parts = parts
        self._pair = pair
        self._full = full
        self._order = order

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
        pair = None if self._pair is None else (-self._pair[0], -self._pair[1])
        full = None if self._full is None else -self._full
        order = None if self._order is None else [(g, k, e, -c) for g, k, e, c in self._order]
        return QElement(self.ring, tuple(-x for x in self.parts), pair, full, order)

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

    def canonical_pair(self):
        """The canonical (A, B) of A + B*q, rebuilt from the four parts.

        With A = Q1*(p-1)*(p-t) + r0 + r1*p (the form described in the
        module docstring):

            B      = (psi4 - psi3) / (2*(t-1))
            r1     = (psi3 + psi4 - 2*psi1) / (2*(t-1)),    r0 = psi1 - r1
            Q1     = (psi2 - r0(t=1) - r1(t=1)*p) / (p-1)^2

        Each division is ``LaurentPoly.exact_div`` by one of the divisors
        ``_p_and_m`` keeps.  A division that is not exact raises ValueError,
        which four images of one element never cause.
        """
        if self._pair is not None:
            return self._pair
        psi1, psi2, psi3, psi4 = self.parts
        p, m, two_t_minus_one, p_minus_one_squared = _p_and_m(self.ring.vars)
        b = (psi4 - psi3).exact_div(two_t_minus_one)
        r1 = (psi3 + psi4 - psi1 - psi1).exact_div(two_t_minus_one)
        r0 = psi1 - r1
        rest = psi2 - r0.subs_one("t") - r1.subs_one("t") * p
        q1 = rest.exact_div(p_minus_one_squared)
        self._pair = (q1 * m + r0 + r1 * p, b)
        return self._pair

    @property
    def a(self):
        return self.canonical_pair()[0]

    @property
    def b(self):
        return self.canonical_pair()[1]

    def to_full_poly(self):
        """Embed the canonical pair back into the free Laurent ring with explicit q.

        A key over ``vars`` is (t, p) above the packed extras x; over
        ``full_vars`` the q field sits between them.  So each key splits
        into x, its low fields read as one signed number, and the rest,
        which moves up one field, with q^0 for A and q^1 for B.
        """
        if self._full is not None:
            return self._full
        a, b = self.canonical_pair()
        low = FIELD_BITS * len(self.ring.extras)
        low_mask, low_top = (1 << low) - 1, _layout(len(self.ring.extras))[2]
        terms = {}
        for part, q in ((a, 0), (b, 1 << low)):
            for k, c in part._terms.items():
                x = ((k + low_top) & low_mask) - low_top
                terms[((k - x) << FIELD_BITS) + q + x] = c
        bound = max(a._bound, b._bound, 1 if b._terms else 0)
        self._full = _poly(self.ring.full_vars, terms, bound)
        return self._full

    def graded(self):
        """``LaurentPoly.graded`` of ``to_full_poly``, read once and kept: the
        sign ``invariant.normalize`` fixes and the order ``render`` prints in.
        A negation reuses it with the signs flipped, since the coefficients
        play no part in the order."""
        if self._order is None:
            self._order = self.to_full_poly().graded()
        return self._order

    def render(self):
        return self.to_full_poly().render(self.graded())

    def __repr__(self):
        return f"<{self.ring.tag}: {self.render()}>"


# ---------------------------------------------------------------------------
# Variables of the module presentation (its relations are listed in ``matrix``)


RAW_VARS = ("t", "p", "q", "s", "r", "w")


# ---------------------------------------------------------------------------
# Determinants


def det(rows, ring):
    """Determinant of a square matrix over ``ring``.

    ``rows`` is sparse and packed: row i is {j: (terms, bound)} over its
    nonzero cells, terms a packed term dict over ``ring.full_vars`` and
    bound a bound on its exponents below EXPONENT_LIMIT, as
    ``InvariantMatrix.cells`` holds them.  Neither the rows nor their term
    dicts are changed.  A column outside range(n) raises NonSquare; an
    empty row or column makes the determinant zero before any step.

    A signed monomial free of q is a unit of the free Laurent ring and of
    every image, so ``_unit_steps`` first eliminates such pivots over the
    free ring, once for all four images, on a copy of the rows; the cells
    stay packed through the steps, and only what they leave becomes
    ``LaurentPoly`` values, for ``from_raw``.  With u the product of those
    pivots and S the Schur complement they leave, det M = +-u * det S, the
    determinant of S with its first row multiplied by +-u; a matrix of at
    most EXPAND_ROWS rows takes no step and is its own S, with u = 1.  That
    fold is a key shift, since u is a monomial.  When no row is left, the
    value is the image of +-u itself.  An S of at most EXPAND_ROWS rows is
    expanded along its folded first row over the free ring
    (``_expanded_det``), an integral domain, and the one polynomial that
    gives goes through ``from_raw``, a ring homomorphism: so a one-row S
    gives its folded entry, or zero, and a two-row S gives ad - bc.  A
    larger S goes through ``from_raw`` entry by entry and ``_bareiss_det``
    finishes each of its images; the fold changes no term count in any
    image, so Bareiss takes the pivots it would take on S.  q is never taken
    as a pivot: it has no inverse in the quotient.  A row the free-ring
    steps empty makes the determinant zero in all four images.  The 0x0
    determinant is the ring one.
    """
    n = len(rows)
    cols = set().union(*rows)
    if cols and (min(cols) < 0 or max(cols) >= n):
        raise NonSquare(f"a column index outside range({n}) in a {n}-row matrix")
    if len(cols) < n or not all(rows):
        return ring.zero()
    full = ring.full_vars
    rows = [dict(row) for row in rows]
    steps = _unit_steps(rows, full) if n > EXPAND_ROWS else (1, ({0: 1}, 0), list(range(n)), list(range(n)))
    if steps is None:
        return ring.zero()
    sign, (unit, unit_bound), live_rows, live_cols = steps
    unit = {k: sign * c for k, c in unit.items()}
    if not live_rows:
        return ring.from_raw(_poly(full, unit, unit_bound))
    rest = [rows[i] for i in live_rows]
    rest[0] = {j: _cell(len(full), _addmul({}, unit, t), unit_bound + b) for j, (t, b) in rest[0].items()}
    if len(rest) <= EXPAND_ROWS:
        return ring.from_raw(_poly(full, *_expanded_det(rest, live_cols, len(full))))
    place = {j: k for k, j in enumerate(live_cols)}
    rest = [[(place[j], ring.from_raw(_poly(full, *e)).parts) for j, e in row.items()] for row in rest]
    return QElement(ring, tuple(
        _bareiss_det([{j: parts[c] for j, parts in row if parts[c]._terms} for row in rest], ring.vars)
        for c in range(4)
    ))


EXPAND_ROWS = 3
"""The most rows a Schur complement left by the unit steps may have for ``det``
to expand it over the free ring (``_expanded_det``); a larger one is finished
by ``_bareiss_det`` on each image.  Time per rest, mean [median], on the
rests of seeded 8-60-crossing diagrams (2-core x86-64, CPython 3.11.7),
expanded against per image: 3 rows 2.5 [1.3] against 3.6 [2.6] ms, 4 rows
36 [10] against 27 [11] ms, 5 rows 362 [240] against 51 [36] ms, 6 rows
1085 [428] against 201 [24] ms.  Four rows is a tie, and no benchmark
workload leaves such a rest."""


def _expanded_det(rows, cols, nvars):
    """(terms, bound) of the determinant over the free ring on nvars
    variables of the packed sparse ``rows`` restricted to ``cols``.

    Expands along the first row: an entry times the minor of the other rows
    without its column, signs alternating along ``cols``.  Each product is
    one ``_addmul`` into the running sum, with no division, and a minor of
    two rows or more has its bound checked as a cell's is (``_cell``), so
    both factors of a product keep their exponents below EXPONENT_LIMIT
    and its keys stay inside their fields.  The bound of the sum is the
    largest of its products' bounds.  Costs grow as the factorial of the
    row count, so ``det`` calls it on at most EXPAND_ROWS rows.
    """
    first = rows[0]
    if len(rows) == 1:
        return first.get(cols[0], ({}, 0))
    terms, bound = {}, 0
    for k, j in enumerate(cols):
        e = first.get(j)
        if e is None:
            continue
        minor, minor_bound = _expanded_det(rows[1:], cols[:k] + cols[k + 1 :], nvars)
        if minor:
            terms = _addmul(terms, e[0], minor, -1 if k % 2 else 1)
            bound = max(bound, e[1] + minor_bound)
    return _cell(nvars, terms, bound)


def _unit_steps(rows, vars):
    """Gaussian steps on unit pivots of a square packed sparse matrix over ``vars``.

    ``rows`` is a square matrix as packed sparse rows {column: (terms,
    bound)}, as ``det`` takes them, and is changed in place; the term dicts
    of its cells are not.  Each step takes, among the live rows and columns
    (those no step has taken yet), a signed monomial whose q exponent is 0:
    a unit of the free Laurent ring and of every image, whose inverse is a
    monomial.  Every crossing row of the invariant matrices holds one (-1
    on an under-arc).  A cell is a unit when its dict has one term, of
    coefficient +-1 and q field 0; that is read off each cell once, when
    it is made, and each row keeps the set of its unit columns.  The unit
    of lowest Markowitz (1957) cost (r - 1)*(c - 1) is taken, r the cell
    count of its row and c that of its column over live rows, kept as ints,
    ties going to the lowest (row, column).  The pivot row is multiplied by
    the pivot's inverse, a key shift, and a times it is subtracted from
    every live row holding a in the pivot column, with no division and no
    growth but what the products bring.  Each update f - a*e is one
    ``_addmul`` into a copy of f's terms, with the bound f - a*e has,
    max(f's, a's + e's).  The steps stop when no live cell is a unit.

    The product of the pivots is a signed monomial: it is kept as one packed
    key, the sum of the pivots' keys, a sign and a bound, the sum of the
    pivots' bounds.  Each cell of a pivot row, divided by the pivot c*x^k
    (c = +-1), is its keys shifted by -k and its coefficients times c, with
    the bound of that product.  A bound that reaches EXPONENT_LIMIT, of a
    cell or of the product, is replaced by the exact one, read off the keys
    (``_cell``), which raises ExponentOverflow if that reaches it.

    Moving the pivot to the first live row and column is a permutation of
    sign (-1)^(r+c), r and c the pivot's places among the live rows and
    columns; each step multiplies the sign by it.  After a step the pivot
    is the only entry of its column, so the determinant of the matrix is
    sign * unit * (the determinant of the live rows and columns left).

    Returns (sign, unit, live rows, live columns), unit the product of the
    pivots as a packed cell ({key: +-1}, bound) and the live lists in
    increasing order, or None when a live row empties, which makes the
    determinant zero.
    """
    n, nvars = len(rows), len(vars)
    shifts, _, top = _layout(nvars)
    q_shift = shifts[vars.index("q")]
    # each column's cell count over live rows, and each row's unit columns; a
    # step changes a row only in the pivot column and the pivot row's
    # columns, so only those are tested again
    counts, units = [0] * n, [set() for _ in rows]
    for row, row_units in zip(rows, units):
        for j, (terms, _) in row.items():
            counts[j] += 1
            if len(terms) == 1:
                ((k, c),) = terms.items()
                if (c == 1 or c == -1) and ((k + top) >> q_shift) & _MASK == _HALF:
                    row_units.add(j)
    live_rows, live_cols = list(range(n)), list(range(n))
    # the product of the pivots, a signed monomial: its key, sign and bound
    unit_key, unit_sign, unit_bound, sign = 0, 1, 0, 1
    while True:
        best, best_cost = None, n * n
        for i in live_rows:
            r = len(rows[i]) - 1
            for j in units[i]:
                cost = r * (counts[j] - 1)
                # the least (cost, row, column): rows come in increasing
                # order, a row's unit columns in no fixed order
                if cost < best_cost or cost == best_cost and best[0] == i and j < best[1]:
                    best, best_cost = (i, j), cost
            if best_cost == 0:
                break  # no later row beats a zero cost
        if best is None:
            return sign, ({unit_key: unit_sign}, unit_bound), live_rows, live_cols
        pi, pj = best
        sign *= (-1) ** (live_rows.index(pi) + live_cols.index(pj))
        live_rows.remove(pi)
        live_cols.remove(pj)
        prow = rows[pi]
        for j in prow:
            counts[j] -= 1
        pivot, pb = prow.pop(pj)
        ((uk, uc),) = pivot.items()
        unit_key, unit_sign = unit_key + uk, unit_sign * uc
        unit_bound = _cell(nvars, (unit_key,), unit_bound + pb)[1]
        # divided by the pivot uc * x^uk: a shift by -uk, times uc = 1/uc
        scaled = [(j, *_cell(nvars, {k - uk: uc * v for k, v in t.items()}, b + pb)) for j, (t, b) in prow.items()]
        for i in [i for i in live_rows if pj in rows[i]]:
            row, row_units = rows[i], units[i]
            at, ab = row.pop(pj)
            row_units.discard(pj)
            for j, et, eb in scaled:
                f = row.get(j)
                if f is None:
                    terms, bound = _addmul({}, at, et, -1), ab + eb
                    counts[j] += 1
                else:
                    terms = _addmul(dict(f[0]), at, et, -1)
                    if not terms:
                        del row[j]
                        counts[j] -= 1
                        row_units.discard(j)
                        continue
                    bound = max(f[1], ab + eb)
                row[j] = _cell(nvars, terms, bound)
                if len(terms) == 1:
                    ((k, c),) = terms.items()
                    if (c == 1 or c == -1) and ((k + top) >> q_shift) & _MASK == _HALF:
                        row_units.add(j)
                        continue
                row_units.discard(j)
            if not row:
                return None


def _bareiss_det(rows, vars):
    """Determinant over an integral domain of Laurent polynomials, by Bareiss (1968).

    ``rows`` is a square matrix as sparse rows {column: nonzero entry} with
    columns 0..n-1, and is consumed.  Step k takes the entry of column k
    with the fewest terms, ties going to the lowest row at or below row k,
    and swaps its row into row k, each swap flipping the sign.  Every row m
    below becomes (p_k * m - m_k * row k) / p_(k-1), p_k the step-k pivot
    and no division on the first step; a row with no entry in column k
    just becomes p_k * m / p_(k-1).  Each entry p_k * e - m_k * f is built
    by two ``_addmul`` calls into one dict, with the bound of that
    difference, max(p_k's + e's, m_k's + f's), before the exact division.
    By Sylvester's identity every entry so formed is a minor of the matrix,
    so every division is exact, and the last pivot is the determinant.  A
    column with no entry at or below its step makes the determinant zero;
    the 0x0 determinant is one.
    """
    n = len(rows)
    sign, prev = 1, LaurentPoly.const(vars, 1)
    for k in range(n):
        holders = [i for i in range(k, n) if k in rows[i]]
        if not holders:
            return LaurentPoly.zero(vars)
        pi = min(holders, key=lambda i: (len(rows[i][k]._terms), i))
        if pi != k:
            rows[pi], rows[k] = rows[k], rows[pi]
            sign = -sign
        prow = rows[k]
        pivot = prow.pop(k)
        pt, pb = pivot._terms, pivot._bound
        for i in range(k + 1, n):
            row = rows[i]
            a = row.pop(k, None)
            new = {j: (_addmul({}, pt, e._terms), pb + e._bound) for j, e in row.items()}
            if a is not None:
                at, ab = a._terms, a._bound
                for j, e in prow.items():
                    terms, bound = new.get(j, ({}, 0))
                    new[j] = _addmul(terms, at, e._terms, -1), max(bound, ab + e._bound)
            row = rows[i] = {}
            for j, (terms, bound) in new.items():
                if terms:
                    e = _poly(vars, terms, bound)
                    row[j] = e.exact_div(prev) if k else e
        prev = pivot
    return prev if sign > 0 else -prev
