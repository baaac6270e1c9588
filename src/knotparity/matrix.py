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
crossings; type-0 crossings contribute no rows.  All three matrices are
filled by one routine, ``_fill``, from one arc walk each: ``diagram.arcs``,
``diagram.short_arcs`` and the presentation's walk, which also stops at
type-0 over-passages.  A per-incidence rule gives the rows an incidence
writes to, with a coefficient for each, to be multiplied by the label
monomial of the incidence, the product of the ring's extra variables
(x1..x2g, or s) raised to its label entries; the presentation's labels are
empty.  Those variables are the last of the ring's, so the packed key of
the label is the key of its monomial, and ``_fill`` adds each coefficient's
terms, their keys shifted by it, into one packed term dict per cell, which
becomes a polynomial once the walk is done.

All three matrices hold one entry type: plain ``LaurentPoly`` values over
the free ring, ``ring.full_vars`` for the two determinant matrices and
``RAW_VARS`` for the presentation.  The relations of a quotient ring matter
only to a determinant, so ``InvariantMatrix.det`` hands the entries to
``rings.det`` as built, which maps into the quotient ring only what its
unit steps over the free ring leave.  Each entry of the
two determinant matrices is a sum of role coefficients times label
monomials, so it has p-degree and q-degree at most 1 and a p-free q-part:
it is already the canonical pair of its image and renders as built.

The invariant module of Section 4 lives over Rraw, the quotient of the free
Laurent ring Z[t^±1, q, p^±1, s^±1, r^±1, w] (variables ``RAW_VARS``) by
the eight relations

    q(p-t) = 0           q^2 = (1-t)(1-p)
    w(1-s) = 0           w(t-r) = 0         w(p-r) = 0
    w(ps+q-1) = 0        w(r+q-1) = 0
    w^2 = (1-t)(1-rs)    w^2 = q(1-rs)

The presentation matrix is only exported, so it needs no arithmetic modulo
them: its entries are the signed role monomials (-1, t, 1-t, p, q, s^±1,
r^±1, w, -w/t), exported as built over the free ring.  The relations are
checked only by the rewrite-system oracle in the tests
(``tests/rraw_oracle.py``), which shows that reducing the exported entries
would change none of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import rings
from .rings import RAW_VARS, LaurentPoly
from .diagram import OVER, STOP, Passage, arcs, short_arcs, walk
from .parity import EVEN


class ParityIncomplete(ValueError):
    pass


@dataclass(frozen=True)
class InvariantMatrix:
    tag: str              # "G" | "Rprime" | "Rraw"
    ring: object          # the QuotientRing of the determinant; None for "Rraw"
    entries: tuple        # tuple of row tuples of LaurentPoly
    row_keys: tuple
    col_keys: tuple

    @property
    def shape(self):
        return (len(self.entries), len(self.col_keys))

    def render_rows(self):
        return ["\t".join(e.render() for e in row) for row in self.entries]

    def triples(self):
        """(row key, column key, rendered entry) of every nonzero cell, row by row.

        A matrix repeats few distinct entries (the presentation's are a
        handful of signed role monomials), so each is rendered once, through
        a memo keyed by its terms that lives for this call only.
        """
        out = []
        rendered = {}
        for rk, row in zip(self.row_keys, self.entries):
            for ck, e in zip(self.col_keys, row):
                if e._terms:
                    terms = tuple(e._terms.items())
                    text = rendered.get(terms)
                    if text is None:
                        text = rendered[terms] = e.render()
                    out.append((rk, ck, text))
        return out

    def det(self):
        """The determinant in ``ring``, of the entries as built over the free ring.

        The presentation matrix has no ring and raises ValueError.
        """
        if self.ring is None:
            raise ValueError(f"the {self.tag} presentation matrix has no determinant")
        return rings.det(self.entries, self.ring)


@functools.lru_cache(maxsize=None)
def _role_table(vars):
    """(even_like, sign > 0) -> {role: coefficient over ``vars``}, by the module docstring's rules.

    It depends on ``vars`` alone, so it is built once per variable set; the
    callers only read it."""
    one, t = LaurentPoly.const(vars, 1), LaurentPoly.monomial(vars, t=1)
    table = {}
    for even_like, in_pos, over in (
        (True, t, one - t),
        (False, LaurentPoly.monomial(vars, p=1), LaurentPoly.monomial(vars, q=1)),
    ):
        table[even_like, True] = {"out": -one, "in": in_pos, "over": over}
        table[even_like, False] = {"out": in_pos, "in": -one, "over": over}
    return table


def _fill(vars, extras, table, rows, cols, rule):
    """Grid over ``rows`` x ``cols`` filled from the arcs of ``table``.

    Arc j's column is keyed (origin_kind, origin).  Each incidence of the arc
    adds, for every (row key, coefficient) pair of ``rule(inc)``, coefficient
    times its label monomial at that row; the monomial is ``extras`` raised
    to the label.  The extras are the last variables of ``vars``, so the
    label's packed key is the key of that monomial, and each product is a
    key shift: every term of the coefficient is added, its key shifted by
    the label's, into one packed term dict per cell.  A cell's bound is the
    largest over its contributions of the coefficient's bound plus the
    label's largest absolute exponent, as the bound of a sum of products;
    each cell written to becomes one polynomial over ``vars``, and empty
    cells share one zero.
    """
    ridx = {k: i for i, k in enumerate(rows)}
    cidx = {k: j for j, k in enumerate(cols)}
    labels = {}  # label -> (its monomial as packed terms {key: 1}, its bound)
    cells = {}  # (row, column) -> [packed terms, bound]
    for arc in table:
        j = cidx[arc.origin_kind, arc.origin]
        for inc in arc.incidences:
            label = labels.get(inc.label)
            if label is None:
                reach = max(map(abs, inc.label), default=0)
                if reach >= rings.EXPONENT_LIMIT:
                    raise rings.ExponentOverflow(f"exponent {reach} is past the limit {rings.EXPONENT_LIMIT - 1}")
                label = labels[inc.label] = {rings._pack(inc.label): 1}, reach
            mono, reach = label
            for key, coef in rule(inc):
                cell = cells.get((ridx[key], j))
                if cell is None:
                    cells[ridx[key], j] = [rings._addmul({}, coef._terms, mono), coef._bound + reach]
                else:
                    rings._addmul(cell[0], coef._terms, mono)
                    cell[1] = max(cell[1], coef._bound + reach)
    zero = LaurentPoly.zero(vars)
    grid = [[zero] * len(cols) for _ in rows]
    for (i, j), (terms, bound) in cells.items():
        grid[i][j] = rings._poly(vars, terms, bound)
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
    roles = _role_table(ring.full_vars)
    one = LaurentPoly.const(ring.full_vars, 1)
    vertex_roles = {"out": -one, "in": one}

    def rule(inc):
        site = inc.site_kind, inc.site
        if inc.site_kind == "vertex":
            return [(site, vertex_roles[inc.role])]
        return [(site, roles[par[inc.site] == EVEN, d.sign_of(inc.site) > 0][inc.role])]

    grid = _fill(ring.full_vars, ring.extras, arcs(d), keys, keys, rule)
    return InvariantMatrix("G", ring, grid, keys, keys)


def build_Npp(d, types):
    """Matrix of a Gauss diagram over the s-twisted quotient ring.

    Rows are the type-1/2 crossings, columns the short arcs; type-0
    crossings only twist the labels.  All-type-0 diagrams give the 0x0
    matrix.
    """
    ring = rings.rprime_ring()
    table = short_arcs(d, types)
    keep = tuple(sorted(c for c in d.crossings if types[c] != 0))
    roles = _role_table(ring.full_vars)

    def rule(inc):
        return [(inc.site, roles[types[inc.site] == 2, d.sign_of(inc.site) > 0][inc.role])]

    grid = _fill(ring.full_vars, ring.extras, table, keep, [("crossing", c) for c in keep], rule)
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


@functools.lru_cache(maxsize=None)
def _type0_coeffs(sign):
    """(s^e, g_e * w, r^e) over ``RAW_VARS`` for a type-0 crossing of sign e,
    built once per sign; the callers only read it."""
    mono = functools.partial(LaurentPoly.monomial, RAW_VARS)
    if sign > 0:
        return mono(s=1), mono(1, **_G_PLUS), mono(r=1)
    return mono(s=-1), mono(-1, **_G_MINUS), mono(r=-1)


def build_N_presentation(d, types):
    """Presentation matrix of the invariant module over the free ring on ``RAW_VARS``.

    Generators are the short arcs broken at every classical under-passage
    and at type-0 over-passages, keyed ("u", c) and ("o", c) by the passage
    they leave, in token order; type-1/2 crossings contribute a single row
    ("rel", c) with the usual role labels, type-0 crossings two rows
    ("rel-under", c) and ("rel-over", c) expressing both emanating arcs in
    the incoming ones.  The matrix has no determinant, so its ``ring`` is
    None.
    """

    def action(tok):
        if not isinstance(tok, Passage):
            return None
        if not tok.over:
            return STOP, tok.crossing, "u"
        return (STOP if types[tok.crossing] == 0 else OVER), tok.crossing, "o"

    table = walk(d.tokens, 0, action)
    gens = tuple((a.origin_kind, a.origin) for a in table)
    rows = tuple(
        (kind, c)
        for c in sorted(d.crossings)
        for kind in (("rel",) if types[c] else ("rel-under", "rel-over"))
    )
    roles = _role_table(RAW_VARS)
    minus = LaurentPoly.const(RAW_VARS, -1)

    def rule(inc):
        c, sign = inc.site, d.sign_of(inc.site)
        if types[c] != 0:
            return [(("rel", c), roles[types[c] == 2, sign > 0][inc.role])]
        if inc.role == "out":
            return [(("rel-under" if inc.site_kind == "u" else "rel-over", c), minus)]
        under_in, over_mix, over_in = _type0_coeffs(sign)
        if inc.site_kind == "o":
            return [(("rel-over", c), over_in)]
        return [(("rel-under", c), under_in), (("rel-over", c), over_mix)]

    return InvariantMatrix("Rraw", None, _fill(RAW_VARS, (), table, rows, gens, rule), rows, gens)
