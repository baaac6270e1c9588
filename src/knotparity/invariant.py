"""Invariant values, unit normalization, and equivalence-up-to-units.

The determinants are defined only up to units +- t^a p^b q^c.  A value keeps
its determinant as computed; deciding equivalence works on that, and a
canonical orbit representative is built only when something prints it.

A unit is an element of the value's ring like any other, built by
``ring.element`` and acting by multiplication.  Elements are stored as their
images psi1..psi4 under the four ring maps of ``rings`` (p=1; t=1; p=t with
q=1-t; p=t with q=t-1), where a unit +- t^a p^b shows as plain exponent
shifts:

    psi1 -- picks up t^a            (fixes a when nonzero)
    psi2 -- picks up p^b            (fixes b when nonzero)
    psi3, psi4 -- pick up t^(a+b)   (fix a+b when either is nonzero)

``_shifted`` takes a and b from the lowest exponents of psi1 and psi2 and,
where one of those images vanishes, the missing shift from the lowest
exponent of psi3 and psi4.  Whenever a shift is left free by vanishing
images, the corresponding unit action is trivial on the element, so pinning
the free exponent to zero still fixes the orbit up to sign: the shifted
element satisfies shift(u*x) == +-shift(x) exactly.

``compare`` decides on the shifted images alone: x and y agree up to
+- t^a p^b iff shift(x) == shift(y) or shift(x) == -shift(y), and the sign
is determined, because a nonzero element never equals its negative (the
images lie in Laurent rings over Z).  ``normalize``, for printing only,
fixes that sign too, by making the leading coefficient of the rendered form
positive in the fixed monomial order; this needs the canonical pair, so
``InvariantValue`` computes it on first use and caches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    det: object              # the determinant as computed (QElement)

    @cached_property
    def _normal(self):
        return normalize(self.det)

    @cached_property
    def _shift(self):
        """``_shifted`` of the determinant, which ``compare`` reads on every call."""
        return _shifted(self.det)

    @property
    def element(self):
        """Canonical orbit representative of the determinant."""
        return self._normal[0]

    @property
    def record(self):
        """The unit with element == sign * t^a * p^b * det."""
        return self._normal[1]

    def render(self):
        return self.element.render()


@dataclass(frozen=True)
class ComparisonResult:
    verdict: str
    unit: UnitRecord | None = None
    expressed: str | None = None   # "second_from_first" | "first_from_second"


def _shifted(elem):
    """(w, a, b) with w = t^a * p^b * elem, canonical in elem's orbit up to sign."""
    psi1, psi2, psi3, psi4 = elem.parts
    alpha = None if psi1.is_zero else -psi1.exponent_range("t")[0]
    beta = None if psi2.is_zero else -psi2.exponent_range("p")[0]
    mins = [x.exponent_range("t")[0] for x in (psi3, psi4) if not x.is_zero]
    delta = -min(mins) if mins else None
    if alpha is None and beta is None:
        alpha, beta = 0, (delta if delta is not None else 0)
    elif alpha is None:
        alpha = (delta - beta) if delta is not None else 0
    elif beta is None:
        beta = (delta - alpha) if delta is not None else 0
    return elem * elem.ring.element(t=alpha, p=beta), alpha, beta


def normalize(elem):
    """Canonical orbit representative under units +- t^a p^b.

    Returns (representative, UnitRecord) with
    representative == sign * t^a * p^b * elem.
    """
    w, alpha, beta = _shifted(elem)
    order = w.to_full_poly().graded()  # the leading term is the first one rendered
    if order and order[0][3] < 0:
        return -w, UnitRecord(-1, alpha, beta)
    return w, UnitRecord(1, alpha, beta)


def make_value(tag, elem):
    return InvariantValue(tag, elem)


def s_invariant(d):
    """Determinant invariant of a surface diagram."""
    return make_value("G", build_M(d, parity_map(d)).det())


def nprime_invariant(d):
    """Hierarchy invariant of a Gauss diagram."""
    return make_value("Rprime", build_Npp(d, hierarchy_types(d)).det())


def n_presentation(d):
    """Presentation matrix of the invariant module (export only)."""
    return build_N_presentation(d, hierarchy_types(d))


def compare(first, second):
    """Decide equivalence up to +- t^a p^b q^c with c in {0, 1}.

    Takes two InvariantValues over the same ring, and decides on their
    shifted determinants without normalizing them; a value's shift is
    computed once and kept on it.  Zero is equivalent only to zero.  The
    q-power is searched in {0, 1} only: as a multiplier, q^2 rewrites to the
    q-free (1-t)(1-p) and stops acting as a monomial unit.
    """
    a, b = first.det, second.det
    if a.ring != b.ring:
        raise rings.RingMismatch(f"{a.ring} vs {b.ring}")
    if a.is_zero != b.is_zero:
        return ComparisonResult(DISTINCT)
    shift_a, shift_b = first._shift, second._shift
    q = a.ring.element(q=1)
    for q_power, src, dst, shift_dst, expressed in (
        (0, a, b, shift_b, "second_from_first"),
        (1, a, b, shift_b, "second_from_first"),
        (1, b, a, shift_a, "first_from_second"),
    ):
        ws, a_src, b_src = _shifted(src * q) if q_power else shift_a
        wd, a_dst, b_dst = shift_dst
        sign = 1 if ws == wd else -1 if ws == -wd else 0
        if sign:
            unit = UnitRecord(sign, a_src - a_dst, b_src - b_dst, q_power)
            _verify(src, dst, unit)
            return ComparisonResult(EQUIVALENT, unit, expressed)
    return ComparisonResult(DISTINCT)


def _verify(src, dst, unit):
    """Check the witness: dst == src * sign * t^a * p^b * q^c."""
    if src * src.ring.element(unit.sign, q=unit.q_power, t=unit.t_shift, p=unit.p_shift) != dst:
        raise AssertionError("unit witness failed verification")
