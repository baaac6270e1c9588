"""Invariant values, unit normalization, and equivalence-up-to-units.

The determinants are defined only up to units +- t^a p^b q^c, so values are
stored as a canonical orbit representative plus the unit that was applied.

Elements are stored as their images psi1..psi4 under the four ring maps of
``rings`` (p=1; t=1; p=t with q=1-t; p=t with q=t-1), and a unit
+- t^a p^b acts on them as plain exponent shifts:

    psi1 -- picks up t^a            (fixes a when nonzero)
    psi2 -- picks up p^b            (fixes b when nonzero)
    psi3, psi4 -- pick up t^(a+b)   (fix a+b when either is nonzero)

Normalization takes a and b from the lowest exponents of psi1 and psi2 and,
where one of those images vanishes, the missing shift from the lowest
exponent of psi3 and psi4.  Whenever a shift is left free by vanishing
images, the corresponding unit action is trivial on the element, so pinning
the free exponent to zero still yields a canonical orbit representative: the
result satisfies canonical(u*x) == canonical(x) exactly.  The sign is fixed
by making the leading coefficient of the rendered form positive in the fixed
monomial order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rings
from .matrix import build_M, build_Npp, build_N_presentation
from .parity import parity_map, hierarchy_types


EQUIVALENT = "EquivalentUpToUnits"
DISTINCT = "Distinct"


@dataclass(frozen=True)
class UnitRecord:
    sign: int
    t_shift: int
    p_shift: int
    q_power: int = 0


@dataclass(frozen=True)
class InvariantValue:
    tag: str
    element: object          # canonical orbit representative (QElement)
    record: UnitRecord       # element == sign * t^a * p^b * original

    @property
    def is_zero(self):
        return self.element.is_zero

    def original(self):
        """Undo the normalization."""
        r = self.record
        return self.element.times_unit(r.sign, -r.t_shift, -r.p_shift)

    def render(self):
        return self.element.render()


@dataclass(frozen=True)
class ComparisonResult:
    verdict: str
    unit: UnitRecord | None = None
    expressed: str | None = None   # "second_from_first" | "first_from_second"


def _min_exp(poly, var):
    rng = poly.exponent_range(var)
    return None if rng is None else rng[0]


def normalize(elem):
    """Canonical orbit representative under units +- t^a p^b.

    Returns (representative, UnitRecord) with
    representative == sign * t^a * p^b * elem.
    """
    if elem.is_zero:
        return elem, UnitRecord(1, 0, 0)
    psi1, psi2, psi3, psi4 = elem.parts
    alpha = None if psi1.is_zero else -_min_exp(psi1, "t")
    beta = None if psi2.is_zero else -_min_exp(psi2, "p")
    mins = [_min_exp(x, "t") for x in (psi3, psi4) if not x.is_zero]
    delta = -min(mins) if mins else None
    if alpha is None and beta is None:
        alpha, beta = 0, (delta if delta is not None else 0)
    elif alpha is None:
        alpha = (delta - beta) if delta is not None else 0
    elif beta is None:
        beta = (delta - alpha) if delta is not None else 0
    w = elem.times_unit(1, alpha, beta)
    sign = 1
    if w.to_full_poly().leading_coeff() < 0:
        sign = -1
        w = -w
    return w, UnitRecord(sign, alpha, beta)


def make_value(tag, elem):
    w, rec = normalize(elem)
    return InvariantValue(tag, w, rec)


def s_invariant(d):
    """Determinant invariant of a surface diagram, canonicalized."""
    return make_value("G", build_M(d, parity_map(d)).det())


def nprime_invariant(d):
    """Hierarchy invariant of a Gauss diagram, canonicalized."""
    return make_value("Rprime", build_Npp(d, hierarchy_types(d)).det())


def n_presentation(d):
    """Presentation matrix of the invariant module (export only)."""
    return build_N_presentation(d, hierarchy_types(d))


def _value(x):
    """(normalized value, original element) of a value or a bare element."""
    if isinstance(x, InvariantValue):
        return x, x.original()
    return make_value(x.ring.tag, x), x


def _unit_between(va, vb, q_power=0):
    """If the canonical orbits agree, the unit u with vb's original == u * va's."""
    if va.element != vb.element:
        return None
    ra, rb = va.record, vb.record
    return UnitRecord(
        ra.sign * rb.sign, ra.t_shift - rb.t_shift, ra.p_shift - rb.p_shift, q_power
    )


def compare(first, second):
    """Decide equivalence up to +- t^a p^b q^c with c in {0, 1}.

    Accepts InvariantValue or bare elements over the same ring; stored
    values are not normalized again, only the q-multiples are.  Zero is
    equivalent only to zero.  The q-power is searched in {0, 1} only: as a
    multiplier, q^2 rewrites to the q-free (1-t)(1-p) and stops acting as a
    monomial unit.
    """
    va, a = _value(first)
    vb, b = _value(second)
    if a.ring != b.ring:
        raise rings.RingMismatch(f"{a.ring} vs {b.ring}")
    if a.is_zero or b.is_zero:
        if a.is_zero and b.is_zero:
            return ComparisonResult(EQUIVALENT, UnitRecord(1, 0, 0), "second_from_first")
        return ComparisonResult(DISTINCT)

    unit = _unit_between(va, vb)
    if unit is not None:
        _verify(a, b, unit, "second_from_first")
        return ComparisonResult(EQUIVALENT, unit, "second_from_first")
    for src, dst, vdst, expressed in (
        (a, b, vb, "second_from_first"),
        (b, a, va, "first_from_second"),
    ):
        qsrc = src.times_q()
        if qsrc.is_zero:
            continue
        unit = _unit_between(make_value(va.tag, qsrc), vdst, q_power=1)
        if unit is not None:
            _verify(src, dst, unit, expressed)
            return ComparisonResult(EQUIVALENT, unit, expressed)
    return ComparisonResult(DISTINCT)


def _verify(src, dst, unit, expressed):
    prod = src
    for _ in range(unit.q_power):
        prod = prod.times_q()
    prod = prod.times_unit(unit.sign, unit.t_shift, unit.p_shift)
    if prod != dst:
        raise AssertionError("unit witness failed verification")
