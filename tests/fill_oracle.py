"""The matrix fill as it was before each cell became one packed term dict,
kept as a test oracle for ``knotparity.matrix._fill``.

Each incidence's contribution is formed as a polynomial, the coefficient
times the label monomial through ``LaurentPoly.__mul__``, and added into its
cell through ``LaurentPoly.__add__``; so every cell's bound is the one the
general product and sum give it.  The arguments are those of
``matrix._fill``, and a label's entries are the exponents of the last
``len(label)`` variables, the ring's extras, as there; so a test can put it
in the module's place and build any of the three matrices through it; the
dense grid it returns then stands where the matrix keeps its packed cells.
"""

from knotparity.rings import LaurentPoly


def oracle_fill(vars, table, rows, cols, rule):
    ridx = {k: i for i, k in enumerate(rows)}
    cidx = {k: j for j, k in enumerate(cols)}
    zero = LaurentPoly.zero(vars)
    grid = [[zero] * len(cols) for _ in rows]
    monomials = {}
    for arc in table:
        j = cidx[arc.origin_kind, arc.origin]
        for inc in arc.incidences:
            if inc.label not in monomials:
                extras = vars[len(vars) - len(inc.label) :]
                mono = LaurentPoly.monomial(vars, **dict(zip(extras, inc.label)))
                monomials[inc.label] = mono if any(inc.label) else None  # the zero label scales by 1
            mono = monomials[inc.label]
            for key, coef in rule(inc):
                i = ridx[key]
                grid[i][j] = grid[i][j] + (coef if mono is None else coef * mono)
    return tuple(tuple(row) for row in grid)
