"""Determinants kept as test oracles for ``knotparity.rings.det``.

``berkowitz_det`` is the Berkowitz vector recurrence and ``cofactor_det`` the
Laplace expansion along the first row.  Both use only ring addition and
multiplication, so they are sound over rings with zero divisors and act on
whole quotient-ring elements.  The package computes determinants by
fraction-free elimination on each of the four images instead; the tests
compare the two.

``bareiss_loop`` is textbook Bareiss elimination on one image, and
``per_image_det`` runs it on each of the four image matrices of a matrix of
``QElement``, whole.  Neither shares elimination code with ``rings``, which
takes unit steps over the free ring before Bareiss.

``det_images_mod_p`` and ``images_mod_p`` make an oracle that scales to
diagrams the exact oracles cannot reach (Schwartz, J. ACM 27, 1980; Zippel,
EUROSAM 1979).  At a seeded random point modulo the prime P = 2^61 - 1,
every free-ring entry of a matrix is evaluated under each of psi1..psi4,
the determinant of each image matrix is taken mod P by Gaussian
elimination, and the result must equal the matching image of the exact
determinant evaluated at the same point.  An image determinant is a
Laurent polynomial whose degrees are far below P, so a wrong one agrees at
a random point with negligible probability.

``oracle_unit_steps`` is ``rings._unit_steps`` as it was before the product
of the unit pivots became one packed key: it multiplies that product by
each pivot, and each entry of the pivot row by the pivot's inverse, with
``LaurentPoly.__mul__``, so each keeps the bound the general product gives
it.  Pivot rule and row updates are the same as in ``rings``.
"""

from knotparity.rings import _HALF, _MASK, LaurentPoly, NonSquare, QElement, _addmul, _layout, _poly

P = (1 << 61) - 1


def _check_square(rows):
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise NonSquare(f"{len(row)} entries in a row of a {n}-row matrix")
    return n


def berkowitz_det(rows, ring):
    """Determinant via the Berkowitz vector recurrence.

    The 0x0 determinant is the ring one.
    """
    n = _check_square(rows)
    if n == 0:
        return ring.element()
    zero, one = ring.zero(), ring.element()

    def dot(u, v):
        acc = zero
        for a, b in zip(u, v):
            if a.is_zero or b.is_zero:
                continue
            acc = acc + a * b
        return acc

    polys = [one, -rows[0][0]]
    for k in range(1, n):
        akk = rows[k][k]
        row_r = rows[k][:k]
        col_s = [rows[i][k] for i in range(k)]
        sub = [row[:k] for row in rows[:k]]
        items = [one, -akk]
        vec = col_s
        for j in range(k):
            items.append(-dot(row_r, vec))
            if j < k - 1:
                vec = [dot(sub[i], vec) for i in range(k)]
        new = []
        for i in range(k + 2):
            acc = zero
            for j in range(min(i, k) + 1):
                if i - j < len(items):
                    it, pj = items[i - j], polys[j]
                    if not (it.is_zero or pj.is_zero):
                        acc = acc + it * pj
            new.append(acc)
        polys = new
    d = polys[n]
    return d if n % 2 == 0 else -d


def cofactor_det(rows, ring):
    """Naive Laplace expansion along the first row."""
    n = _check_square(rows)
    if n == 0:
        return ring.element()
    if n == 1:
        return rows[0][0]
    acc = ring.zero()
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * cofactor_det(minor, ring)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def bareiss_loop(rows, vars):
    """Determinant of a nonempty matrix over an integral domain of Laurent polynomials.

    ``rows`` is a square matrix as sparse rows {column: nonzero entry}, and
    is consumed.  Bareiss (1968): step k turns every entry below and right
    of the pivot into the (k+2)-minor  (p_k * m_ij - m_ik * m_kj) / p_(k-1),
    where p_k is the step-k pivot and p_(-1) = 1 (a row with no entry in
    column k just becomes p_k * m_ij / p_(k-1)); by Sylvester's identity
    every division is exact, and the last pivot is the determinant.

    The pivot is the entry in column k with the fewest terms, ties going to
    the lowest row; each row swap flips the sign.
    """
    n = len(rows)
    sign = 1
    prev = None
    for k in range(n):
        candidates = [i for i in range(k, n) if k in rows[i]]
        if not candidates:
            return LaurentPoly.zero(vars)
        i = min(candidates, key=lambda i: (len(rows[i][k]._terms), i))
        if i != k:
            rows[i], rows[k] = rows[k], rows[i]
            sign = -sign
        prow = rows[k]
        pivot = prow.pop(k)
        for i in range(k + 1, n):
            row = rows[i]
            a = row.pop(k, None)
            new = {j: pivot * e for j, e in row.items()}
            if a is not None:
                for j, e in prow.items():
                    new[j] = new[j] - a * e if j in new else -(a * e)
            rows[i] = {j: e if prev is None else e.exact_div(prev) for j, e in new.items() if e._terms}
        prev = pivot
    return prev if sign > 0 else -prev


def per_image_det(rows, ring):
    """Determinant of a square matrix of ``QElement`` over ``ring``.

    The four ring maps are homomorphisms, so the determinant's images are
    the determinants of the four image matrices; each is computed over its
    Laurent ring by ``bareiss_loop``.  The 0x0 determinant is the ring one.
    """
    if not _check_square(rows):
        return ring.element()
    return QElement(
        ring,
        tuple(
            bareiss_loop(
                [{j: e.parts[c] for j, e in enumerate(row) if not e.parts[c].is_zero} for row in rows],
                ring.vars,
            )
            for c in range(4)
        ),
    )


def random_point(rng, ring):
    """A value mod P for each of ``ring.vars``, never 0 or 1, so that every
    variable and 1 - t are invertible."""
    return {v: rng.randrange(2, P - 1) for v in ring.vars}


def _image_points(point):
    """The values of t, p, q and the extras under psi1..psi4 at ``point``."""
    t = point["t"]
    return (
        {**point, "p": 1, "q": 0},
        {**point, "t": 1, "q": 0},
        {**point, "p": t, "q": (1 - t) % P},
        {**point, "p": t, "q": (t - 1) % P},
    )


def _at(poly, values):
    """A Laurent polynomial evaluated mod P; negative powers are inverses."""
    total = 0
    for exps, c in poly.terms.items():
        for v, e in zip(poly.vars, exps):
            c = c * pow(values[v], e, P) % P
        total += c
    return total % P


def det_mod_p(matrix):
    """Determinant mod P of a square matrix of ints, by Gaussian elimination."""
    a = [[x % P for x in row] for row in matrix]
    n = len(a)
    value = 1
    for k in range(n):
        pi = next((i for i in range(k, n) if a[i][k]), None)
        if pi is None:
            return 0
        if pi != k:
            a[pi], a[k] = a[k], a[pi]
            value = -value
        prow = a[k]
        value = value * prow[k] % P
        inv = pow(prow[k], -1, P)
        for row in a[k + 1 :]:
            f = row[k] * inv % P
            if f:
                for j in range(k + 1, n):
                    row[j] = (row[j] - f * prow[j]) % P
    return value % P


def det_images_mod_p(entries, point):
    """The determinants mod P of the four images of a square matrix of
    ``LaurentPoly`` over a ring's ``full_vars``, at ``point``."""
    return [det_mod_p([[_at(e, values) for e in row] for row in entries]) for values in _image_points(point)]


def images_mod_p(value, point):
    """The four images of a ``QElement`` at ``point``, mod P."""
    return [_at(part, values) for part, values in zip(value.parts, _image_points(point))]


def oracle_unit_steps(rows, vars):
    """(sign, unit, live rows, live columns) or None, as ``rings._unit_steps``
    returns them, with ``rows`` changed in place the same way."""
    n = len(rows)
    shifts, _, top = _layout(len(vars))
    q_shift = shifts[vars.index("q")]

    def is_unit(e):
        if len(e._terms) != 1:
            return False
        ((k, c),) = e._terms.items()
        return abs(c) == 1 and ((k + top) >> q_shift) & _MASK == _HALF

    cols = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    live_rows, live_cols = list(range(n)), list(range(n))
    units = [{j for j, e in row.items() if is_unit(e)} for row in rows]
    unit, sign = LaurentPoly.const(vars, 1), 1
    while True:
        best, best_cost = None, n * n
        for i in live_rows:
            r = len(rows[i]) - 1
            for j in units[i]:
                cost = r * (len(cols[j]) - 1)
                if cost < best_cost or cost == best_cost and best[0] == i and j < best[1]:
                    best, best_cost = (i, j), cost
            if best_cost == 0:
                break
        if best is None:
            return sign, unit, live_rows, live_cols
        pi, pj = best
        if (live_rows.index(pi) + live_cols.index(pj)) % 2:
            sign = -sign
        live_rows.remove(pi)
        live_cols.remove(pj)
        prow = rows[pi]
        for j in prow:
            cols[j].discard(pi)
        pivot = prow.pop(pj)
        unit = unit * pivot
        ((uk, uc),) = pivot._terms.items()
        inv = _poly(vars, {-uk: uc}, pivot._bound)
        prow = [(j, e * inv) for j, e in prow.items()]
        for i in sorted(cols[pj]):
            row, row_units = rows[i], units[i]
            a = row.pop(pj)
            row_units.discard(pj)
            at, ab = a._terms, a._bound
            for j, e in prow:
                f = row.get(j)
                if f is None:
                    f = row[j] = _poly(vars, _addmul({}, at, e._terms, -1), ab + e._bound)
                    cols[j].add(i)
                else:
                    f = _poly(vars, _addmul(dict(f._terms), at, e._terms, -1), max(f._bound, ab + e._bound))
                    if not f._terms:
                        del row[j]
                        cols[j].discard(i)
                        row_units.discard(j)
                        continue
                    row[j] = f
                if is_unit(f):
                    row_units.add(j)
                else:
                    row_units.discard(j)
            if not row:
                return None
