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
crossings; type-0 crossings contribute no rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rings
from .diagram import Passage, Vertex, arcs, short_arcs
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


def build_M(d, par):
    """Matrix of a surface diagram over the genus-g quotient ring.

    One column per arc, one row per crossing (plus one per subdivision
    vertex); empty diagrams give the 0x0 matrix.
    """
    ring = rings.g_ring(d.genus)
    for cid in d.crossings:
        if cid not in par:
            raise ParityIncomplete(f"no parity for crossing {cid}")
    table = arcs(d)
    col_keys = tuple(
        sorted(
            ((a.origin_kind, a.origin) for a in table.arcs),
            key=lambda k: (k[0] != "crossing", k[1]),
        )
    )
    row_keys = tuple(
        [("crossing", c) for c in sorted(d.crossings)]
        + [("vertex", v) for v in sorted(d.vertex_ids)]
    )
    cidx = {k: i for i, k in enumerate(col_keys)}
    ridx = {k: i for i, k in enumerate(row_keys)}
    n = len(row_keys)
    grid = [[ring.zero() for _ in range(n)] for _ in range(n)]
    roles = _role_table(ring)
    vertex_roles = {"out": -ring.one(), "in": ring.one()}
    label_elems = {}
    for arc in table.arcs:
        j = cidx[(arc.origin_kind, arc.origin)]
        for inc in arc.incidences:
            i = ridx[(inc.site_kind, inc.site)]
            if inc.site_kind == "vertex":
                coef = vertex_roles[inc.role]
            else:
                coef = roles[par[inc.site] == EVEN, d.sign_of(inc.site) > 0][inc.role]
            if inc.label not in label_elems:
                exps = {f"x{k + 1}": e for k, e in enumerate(inc.label) if e}
                label_elems[inc.label] = ring.element(1, **exps)
            grid[i][j] = grid[i][j] + coef * label_elems[inc.label]
    return InvariantMatrix(
        "G", ring, tuple(tuple(row) for row in grid), row_keys, col_keys
    )


def build_Npp(d, types):
    """Matrix of a Gauss diagram over the s-twisted quotient ring.

    Rows are the type-1/2 crossings, columns the short arcs; type-0
    crossings only twist the labels.  All-type-0 diagrams give the 0x0
    matrix.
    """
    ring = rings.rprime_ring()
    table = short_arcs(d, types)
    keep = sorted(c for c in d.crossings if types[c] != 0)
    idx = {c: i for i, c in enumerate(keep)}
    n = len(keep)
    grid = [[ring.zero() for _ in range(n)] for _ in range(n)]
    roles = _role_table(ring)
    label_elems = {}
    for arc in table.arcs:
        j = idx[arc.origin]
        for inc in arc.incidences:
            i = idx[inc.crossing]
            coef = roles[types[inc.crossing] == 2, d.sign_of(inc.crossing) > 0][inc.role]
            if inc.s_exp not in label_elems:
                label_elems[inc.s_exp] = ring.element(1, s=inc.s_exp)
            grid[i][j] = grid[i][j] + coef * label_elems[inc.s_exp]
    return InvariantMatrix(
        "Rprime",
        ring,
        tuple(tuple(row) for row in grid),
        tuple(keep),
        tuple(keep),
    )


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
    and at type-0 over-passages; type-1/2 crossings contribute a single row
    with the usual role labels, type-0 crossings two rows expressing both
    emanating arcs in the incoming ones.
    """
    ring = rings.RawRing()
    delim = []
    for i, tok in enumerate(d.tokens):
        if isinstance(tok, Passage):
            if not tok.over:
                delim.append((i, ("u", tok.crossing)))
            elif types[tok.crossing] == 0:
                delim.append((i, ("o", tok.crossing)))
    gens = [key for _, key in delim]
    gidx = {k: i for i, k in enumerate(gens)}
    if not gens:
        return InvariantMatrix("Rraw", ring, (), (), ())

    n = len(d.tokens)
    ends = {}        # terminal passage key -> generator key of the arc ending there
    overs = {}       # type-1/2 crossing -> generator key passing over it
    delim_pos = {i for i, _ in delim}
    for start, key in delim:
        i = (start + 1) % n
        while True:
            tok = d.tokens[i]
            if isinstance(tok, Passage):
                if i in delim_pos:
                    ends[("u" if not tok.over else "o", tok.crossing)] = key
                    break
                if tok.over:
                    overs[tok.crossing] = key
            i = (i + 1) % n

    rows = []
    row_keys = []
    roles = _role_table(ring)
    for c in sorted(d.crossings):
        sign = d.sign_of(c)
        if types[c] != 0:
            coef = roles[types[c] == 2, sign > 0]
            row = [ring.zero() for _ in gens]
            row[gidx[("u", c)]] = row[gidx[("u", c)]] + coef["out"]
            row[gidx[ends[("u", c)]]] = row[gidx[ends[("u", c)]]] + coef["in"]
            row[gidx[overs[c]]] = row[gidx[overs[c]]] + coef["over"]
            rows.append(tuple(row))
            row_keys.append(("rel", c))
        else:
            under_in, over_mix, over_in = _type0_coeffs(ring, sign)
            minus = -ring.one()
            row = [ring.zero() for _ in gens]
            row[gidx[("u", c)]] = row[gidx[("u", c)]] + minus
            row[gidx[ends[("u", c)]]] = row[gidx[ends[("u", c)]]] + under_in
            rows.append(tuple(row))
            row_keys.append(("rel-under", c))
            row = [ring.zero() for _ in gens]
            row[gidx[("o", c)]] = row[gidx[("o", c)]] + minus
            row[gidx[ends[("u", c)]]] = row[gidx[ends[("u", c)]]] + over_mix
            row[gidx[ends[("o", c)]]] = row[gidx[ends[("o", c)]]] + over_in
            rows.append(tuple(row))
            row_keys.append(("rel-over", c))
    return InvariantMatrix(
        "Rraw", ring, tuple(rows), tuple(row_keys), tuple(gens)
    )
