"""Division-free determinants, kept as test oracles for ``knotparity.rings.det``.

``berkowitz_det`` is the Berkowitz vector recurrence and ``cofactor_det`` the
Laplace expansion along the first row.  Both use only ring addition and
multiplication, so they are sound over rings with zero divisors and act on
whole quotient-ring elements.  The package computes determinants by
fraction-free elimination on each of the four images instead; the tests
compare the two.
"""

from knotparity.rings import NonSquare


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
        return ring.one()
    zero, one = ring.zero(), ring.one()

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
        return ring.one()
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
