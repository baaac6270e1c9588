"""The removal-site search and move application that ``knotparity.moves``
used before its passage-position index, kept as a test oracle.

``applicable`` lists adjacent passage pairs, pairs every over-over pair with
every under-under pair for R2-, and runs a triple loop over over-over, mixed
and under-under pairs for R3.  ``apply`` checks each removal site by hand and
only checks that an R3 site is three adjacent passage pairs, so it performs
non-moves; the differential tests call it on listed sites only.
``_cancel_side_pairs`` restarts its scan after every cancellation.
"""

from knotparity.diagram import Diagram, Passage, SideToken, Vertex
from knotparity.moves import INSERTION_SAMPLES, MoveInstance, MoveNotApplicable


def _adjacent_passage_pairs(d):
    """Cyclically adjacent token pairs that are both crossing passages."""
    n = len(d.tokens)
    out = []
    for i in range(n):
        j = (i + 1) % n
        if i == j:
            break
        a, b = d.tokens[i], d.tokens[j]
        if isinstance(a, Passage) and isinstance(b, Passage):
            out.append((i, j, a, b))
    return out


def applicable(d, rng):
    """Move instances applicable to a diagram.

    Removal-type sites (R1-, R2-, R3, SidePass) are enumerated exhaustively;
    insertion sites (R1+, R2+, Subdivide) exist everywhere, and
    ``INSERTION_SAMPLES`` of each kind are drawn from ``rng``.
    """
    out = []
    n = len(d.tokens)

    pairs = _adjacent_passage_pairs(d)
    for i, j, a, b in pairs:
        if a.crossing == b.crossing:
            out.append(MoveInstance("R1-", (i, j)))
    overs = [(i, j, a, b) for i, j, a, b in pairs if a.over and b.over and a.crossing != b.crossing]
    unders = [(i, j, a, b) for i, j, a, b in pairs if not a.over and not b.over and a.crossing != b.crossing]
    for i, j, oa, ob in overs:
        for k, l, ua, ub in unders:
            if len({i, j, k, l}) < 4:
                continue
            if oa.sign != -ob.sign:
                continue
            if {ua.crossing, ub.crossing} == {oa.crossing, ob.crossing}:
                out.append(MoveInstance("R2-", ((i, j), (k, l))))

    out.extend(_r3_sites(pairs, overs, unders))

    seen = set()
    for i, tok in enumerate(d.tokens):
        if not isinstance(tok, Passage):
            continue
        prv = d.tokens[(i - 1) % n]
        nxt = d.tokens[(i + 1) % n]
        if isinstance(prv, SideToken):
            key = (tok.crossing, prv.side, -prv.sign)
            if key not in seen:
                seen.add(key)
                out.append(MoveInstance("SidePass", key))
        if isinstance(nxt, SideToken):
            key = (tok.crossing, nxt.side, nxt.sign)
            if key not in seen:
                seen.add(key)
                out.append(MoveInstance("SidePass", key))

    gaps = list(range(n + 1)) if n else [0]
    chosen = [rng.choice(gaps) for _ in range(INSERTION_SAMPLES)]
    r1_variants = [
        (rng.choice(("OU", "UO")), rng.choice((1, -1))) for _ in chosen
    ]
    r2_specs = [
        (
            rng.choice(gaps),
            rng.choice(gaps),
            rng.random() < 0.5,
            rng.random() < 0.5,
            rng.choice((1, -1)),
        )
        for _ in range(INSERTION_SAMPLES)
    ]
    for gap, (order, sign) in zip(chosen, r1_variants * len(chosen)):
        out.append(MoveInstance("R1+", (gap, order, sign)))
    for spec in r2_specs:
        out.append(MoveInstance("R2+", spec))
    if d.crossings:
        for gap in chosen:
            out.append(MoveInstance("Subdivide", (gap,)))
    return out


def _r3_sites(pairs, overs, unders):
    sites = []
    mixed = [(i, j, a, b) for i, j, a, b in pairs if a.over != b.over and a.crossing != b.crossing]
    for oi, oj, o1, o2 in overs:
        for mi, mj, m1, m2 in mixed:
            for ui, uj, u1, u2 in unders:
                pos = {oi, oj, mi, mj, ui, uj}
                if len(pos) < 6:
                    continue
                # form L: (O_a O_b)(U_a O_c)(U_b U_c)
                if (
                    not m1.over
                    and m1.crossing == o1.crossing
                    and u1.crossing == o2.crossing
                    and u2.crossing == m2.crossing
                ):
                    trip = (o1, o2, m2)
                # form R: (O_b O_a)(O_c U_a)(U_c U_b)
                elif (
                    m2.over is False
                    and m1.over
                    and m2.crossing == o2.crossing
                    and u2.crossing == o1.crossing
                    and u1.crossing == m1.crossing
                ):
                    trip = (o1, o2, m1)
                else:
                    continue
                if len({t.crossing for t in trip}) < 3:
                    continue
                if not (trip[0].sign == trip[1].sign == trip[2].sign):
                    continue
                sites.append(MoveInstance("R3", ((oi, oj), (mi, mj), (ui, uj))))
    return sites


def _fresh_crossing(d):
    return max(d.crossings, default=0) + 1


def _cancel_side_pairs(tokens):
    toks = list(tokens)
    changed = True
    while changed and toks:
        changed = False
        n = len(toks)
        for i in range(n):
            j = (i + 1) % n
            if i == j:
                break
            a, b = toks[i], toks[j]
            if (
                isinstance(a, SideToken)
                and isinstance(b, SideToken)
                and a.side == b.side
                and a.sign == -b.sign
            ):
                for k in sorted((i, j), reverse=True):
                    del toks[k]
                changed = True
                break
    return toks


def apply(d, move):
    """Apply a move instance; raises MoveNotApplicable on a stale site."""
    toks = list(d.tokens)
    kind, data = move.kind, move.data
    if kind == "R1-":
        i, j = data
        ok = (
            j == (i + 1) % len(toks)
            and isinstance(toks[i], Passage)
            and isinstance(toks[j], Passage)
            and toks[i].crossing == toks[j].crossing
        )
        if not ok:
            raise MoveNotApplicable(move.describe())
        for k in sorted((i, j), reverse=True):
            del toks[k]
    elif kind == "R1+":
        gap, order, sign = data
        if not 0 <= gap <= len(toks):
            raise MoveNotApplicable(move.describe())
        c = _fresh_crossing(d)
        pair = [Passage(c, order[0] == "O", sign), Passage(c, order[1] == "O", sign)]
        toks[gap:gap] = pair
    elif kind == "R2-":
        (i, j), (k, l) = data
        try:
            oa, ob, ua, ub = toks[i], toks[j], toks[k], toks[l]
        except IndexError:
            raise MoveNotApplicable(move.describe())
        ok = (
            j == (i + 1) % len(toks)
            and l == (k + 1) % len(toks)
            and all(isinstance(t, Passage) for t in (oa, ob, ua, ub))
            and oa.over
            and ob.over
            and not ua.over
            and not ub.over
            and oa.sign == -ob.sign
            and {ua.crossing, ub.crossing} == {oa.crossing, ob.crossing}
        )
        if not ok:
            raise MoveNotApplicable(move.describe())
        for idx in sorted((i, j, k, l), reverse=True):
            del toks[idx]
    elif kind == "R2+":
        g1, g2, over_at_first, co, sign = data
        if not (0 <= g1 <= len(toks) and 0 <= g2 <= len(toks)):
            raise MoveNotApplicable(move.describe())
        a = _fresh_crossing(d)
        b = a + 1
        over_pair = [Passage(a, True, sign), Passage(b, True, -sign)]
        under_pair = (
            [Passage(a, False, sign), Passage(b, False, -sign)]
            if co
            else [Passage(b, False, -sign), Passage(a, False, sign)]
        )
        first, second = (over_pair, under_pair) if over_at_first else (under_pair, over_pair)
        if g1 == g2:
            toks[g1:g1] = first + second
        else:
            for gap, pair in sorted(((g1, first), (g2, second)), key=lambda x: -x[0]):
                toks[gap:gap] = pair
    elif kind == "R3":
        pairs = data
        flat = [idx for pr in pairs for idx in pr]
        if len(set(flat)) < 6:
            raise MoveNotApplicable(move.describe())
        for i, j in pairs:
            if j != (i + 1) % len(toks) or not (
                isinstance(toks[i], Passage) and isinstance(toks[j], Passage)
            ):
                raise MoveNotApplicable(move.describe())
        for i, j in pairs:
            toks[i], toks[j] = toks[j], toks[i]
    elif kind == "SidePass":
        c, m, delta = data
        if c not in d.crossings or not (1 <= m <= 2 * d.genus):
            raise MoveNotApplicable(move.describe())
        new = []
        for tok in toks:
            if isinstance(tok, Passage) and tok.crossing == c:
                new.extend([SideToken(m, delta), tok, SideToken(m, -delta)])
            else:
                new.append(tok)
        toks = _cancel_side_pairs(new)
    elif kind == "Subdivide":
        (gap,) = data
        if not d.crossings or not 0 <= gap <= len(toks):
            raise MoveNotApplicable(move.describe())
        vid = max(d.vertex_ids, default=0) + 1
        toks[gap:gap] = [Vertex(vid)]
    else:
        raise MoveNotApplicable(f"unknown kind {kind}")
    return Diagram(d.name, d.genus, tuple(toks))
