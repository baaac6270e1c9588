"""Crossing/arc matrices for the invariants.

Row rules at a crossing (each contribution multiplied by the side-label
monomial of the incident subarc, x1^a1 * ... * x2g^a2g):

    even, sign +:   -1 * out   + t * in    + (1-t) * over
    even, sign -:    t * out   - 1 * in    + (1-t) * over
    odd,  sign +:   -1 * out   + p * in    + q * over
    odd,  sign -:    p * out   - 1 * in    + q * over

"out"/"in" are the under-arcs leaving/entering the crossing, "over" the arc
passing over it.  The in/out coefficient swap at negative crossings is forced
by the invariance of the determinant under the second Reidemeister move,
whose two crossings always carry opposite signs; with a sign-blind rule the
move changes the determinant by more than a unit.  Subdivision vertices
contribute the row  -1 * out + x^label * in.

The virtual-knot matrix uses the same rules with type 2 in place of even and
type 1 in place of odd, labels being powers of s accumulated through type-0
crossings; type-0 crossings contribute no rows.  Both matrices are filled by
one routine, ``_fill``, from the arc tables of ``diagram.arcs`` and
``diagram.short_arcs``; the label monomial of an incidence is the product of
the ring's extra variables (x1..x2g, or s) raised to its label entries.  The
presentation matrix reads its generators from the same arc walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rings
from .diagram import OVER, STOP, Passage, arcs, short_arcs, walk
from .parity import EVEN


class ParityIncomplete(ValueError):
    pass


@dataclass(frozen=True)
class InvariantMatrix:
    tag: str              # "G" | "Rprime" | "Rraw"
    ring: object
    entries: tuple        # tuple of row tuples
    row_keys: tuple
    col_keys: tuple

    @property
    def shape(self):
        return (len(self.entries), len(self.col_keys))

    def render_rows(self):
        return ["\t".join(e.render() for e in row) for row in self.entries]

    def triples(self):
        out = []
        for rk, row in zip(self.row_keys, self.entries):
            for ck, e in zip(self.col_keys, row):
                if not e.is_zero:
                    out.append((rk, ck, e.render()))
        return out


def _role_table(ring):
    """(even_like, sign > 0) -> {role: coefficient}, by the rules in the module docstring."""
    one, t = ring.one(), ring.element(t=1)
    table = {}
    for even_like, in_pos, over in (
        (True, t, one - t),
        (False, ring.element(p=1), ring.element(q=1)),
    ):
        table[even_like, True] = {"out": -one, "in": in_pos, "over": over}
        table[even_like, False] = {"out": in_pos, "in": -one, "over": over}
    return table


def _fill(ring, table, keys, coef):
    """Square grid over ``keys``: arc j adds coef(inc) * label monomial at row inc.

    Rows and columns are both indexed by ``keys``, the (kind, id) sites in
    display order; arc columns are keyed by their origin.  Empty cells share
    one zero.
    """
    idx = {k: i for i, k in enumerate(keys)}
    zero = ring.zero()
    grid = [[zero] * len(keys) for _ in keys]
    monomials = {}
    for arc in table.arcs:
        j = idx[arc.origin_kind, arc.origin]
        for inc in arc.incidences:
            i = idx[inc.site_kind, inc.site]
            if inc.label not in monomials:
                monomials[inc.label] = ring.element(1, **dict(zip(ring.extras, inc.label)))
            grid[i][j] = grid[i][j] + coef(inc) * monomials[inc.label]
    return tuple(tuple(row) for row in grid)


def build_M(d, par):
    """Matrix of a surface diagram over the genus-g quotient ring.

    One column per arc, one row per crossing (plus one per subdivision
    vertex), both in that order; empty diagrams give the 0x0 matrix.
    """
    ring = rings.g_ring(d.genus)
    for cid in d.crossings:
        if cid not in par:
            raise ParityIncomplete(f"no parity for crossing {cid}")
    keys = tuple(
        [("crossing", c) for c in sorted(d.crossings)]
        + [("vertex", v) for v in sorted(d.vertex_ids)]
    )
    roles = _role_table(ring)
    vertex_roles = {"out": -ring.one(), "in": ring.one()}

    def coef(inc):
        if inc.site_kind == "vertex":
            return vertex_roles[inc.role]
        return roles[par[inc.site] == EVEN, d.sign_of(inc.site) > 0][inc.role]

    return InvariantMatrix("G", ring, _fill(ring, arcs(d), keys, coef), keys, keys)


def build_Npp(d, types):
    """Matrix of a Gauss diagram over the s-twisted quotient ring.

    Rows are the type-1/2 crossings, columns the short arcs; type-0
    crossings only twist the labels.  All-type-0 diagrams give the 0x0
    matrix.
    """
    ring = rings.rprime_ring()
    table = short_arcs(d, types)
    keep = tuple(sorted(c for c in d.crossings if types[c] != 0))
    roles = _role_table(ring)

    def coef(inc):
        return roles[types[inc.site] == 2, d.sign_of(inc.site) > 0][inc.role]

    grid = _fill(ring, table, [("crossing", c) for c in keep], coef)
    return InvariantMatrix("Rprime", ring, grid, keep, keep)


# -- module presentation over the big ring -----------------------------------

# Type-0 crossing of sign e, incoming under-arc a, incoming over-arc c,
# emanating under-arc b, emanating over-arc d:
#     b = s^e * a
#     d = g_e * w * a + r^e * c        (g_+ , g_-) = (1, -1/t)
# Setting r = 1/s, w = 0 collapses this to the pure s-twist used by the
# virtual-knot matrix; the asymmetric w-coefficient is what makes a
# cancelling pair of type-0 crossings compose to the identity (see the
# transfer tests in the move suite).
_G_PLUS = {"w": 1}
_G_MINUS = {"w": 1, "t": -1}


def _type0_coeffs(ring, sign):
    if sign > 0:
        under_in = ring.element(s=1)
        over_mix = ring.element(1, **_G_PLUS)
        over_in = ring.element(r=1)
    else:
        under_in = ring.element(s=-1)
        over_mix = ring.element(-1, **_G_MINUS)
        over_in = ring.element(r=-1)
    return under_in, over_mix, over_in


def build_N_presentation(d, types):
    """Presentation matrix of the invariant module over the big ring.

    Generators are the short arcs broken at every classical under-passage
    and at type-0 over-passages, keyed ("u", c) and ("o", c) by the passage
    they leave, in token order; type-1/2 crossings contribute a single row
    with the usual role labels, type-0 crossings two rows expressing both
    emanating arcs in the incoming ones.
    """
    ring = rings.RawRing()

    def action(tok):
        if not isinstance(tok, Passage):
            return None
        if not tok.over:
            return STOP, tok.crossing, "u"
        return (STOP if types[tok.crossing] == 0 else OVER), tok.crossing, "o"

    table = walk(d.tokens, 0, action)
    gens = tuple((a.origin_kind, a.origin) for a in table.arcs)
    gidx = {k: i for i, k in enumerate(gens)}
    ends = {}        # terminal passage key -> generator of the arc ending there
    overs = {}       # type-1/2 crossing -> generator passing over it
    for gen, arc in zip(gens, table.arcs):
        for inc in arc.incidences[1:]:
            if inc.role == "over":
                overs[inc.site] = gen
            else:
                ends[inc.site_kind, inc.site] = gen

    zero = ring.zero()
    rows, row_keys = [], []

    def add_row(key, *terms):
        row = [zero] * len(gens)
        for gen, c in terms:
            row[gidx[gen]] = row[gidx[gen]] + c
        rows.append(tuple(row))
        row_keys.append(key)

    roles = _role_table(ring)
    minus = -ring.one()
    for c in sorted(d.crossings):
        sign = d.sign_of(c)
        under, over = ("u", c), ("o", c)
        if types[c] != 0:
            coef = roles[types[c] == 2, sign > 0]
            add_row(("rel", c), (under, coef["out"]), (ends[under], coef["in"]),
                    (overs[c], coef["over"]))
        else:
            under_in, over_mix, over_in = _type0_coeffs(ring, sign)
            add_row(("rel-under", c), (under, minus), (ends[under], under_in))
            add_row(("rel-over", c), (over, minus), (ends[under], over_mix),
                    (ends[over], over_in))
    return InvariantMatrix("Rraw", ring, tuple(rows), tuple(row_keys), gens)
