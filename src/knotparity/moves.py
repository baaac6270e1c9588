"""Move rewriting on diagram codes and the randomized invariance harness.

Moves operate on the cyclic token sequence:

* R1-: delete an adjacent passage pair of one crossing; R1+ inserts one
  (four variants: over/under loop, either sign).
* R2-: delete an adjacent over-over pair plus the matching adjacent
  under-under pair of the same two crossings with opposite signs (co- and
  anti-oriented patterns); R2+ inserts such a configuration into two gaps.
* R3: the single oriented triangle variant and its mirror.  Sites are three
  disjoint adjacent pairs carrying the pattern

      (O_a O_b) (U_a O_c) (U_b U_c)        all signs equal,

  or the swapped form; applying the move swaps each pair in place.  Crossing
  ids are preserved, which is what gives the before/after correspondence the
  parity-axiom checks need.
* SidePass: a crossing passes through a side of the polygon.  Implemented as
  inserting x_m^d before and x_m^-d after both passages of the crossing and
  then cancelling adjacent inverse side-token pairs; a site is applicable
  when at least one cancellation fires (that is, a passage of the crossing
  is adjacent to a matching side token).  Both strands are rewritten
  together; moving a token past a single passage on its own is not a valid
  move and demonstrably breaks invariance.
* Subdivide: insert a degree-2 vertex into an arc of a nonempty diagram.

The harness generates seeded random diagrams, applies every enumerable move
instance (plus sampled insertions), and checks the parity axioms, the type
axioms, and invariance of the chosen polynomial up to units.  Comparisons
where either side has a 0x0 matrix are skipped and counted: the empty
determinant is 1 by convention, while any one-move neighbour of such a
diagram has rows that collapse onto too few columns and a determinant that
is no unit multiple of 1 (for the surface polynomial this is the 0-crossing
unknot versus its kink; for the virtual polynomial it is any diagram with no
type-1/2 crossings).  The invariance statements only bite once the matrix is
nonempty on both sides, and there the suites find no counterexamples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .diagram import Diagram, Passage, SideToken, Vertex
from .invariant import compare, nprime_invariant, s_invariant, EQUIVALENT
from .parity import EVEN, ODD, parity_map, hierarchy_types


class MoveNotApplicable(ValueError):
    pass


@dataclass(frozen=True)
class MoveInstance:
    kind: str
    data: tuple

    def describe(self):
        return f"{self.kind}{self.data}"


_R3_CASES = {(2, 2, 2), (0, 0, 1), (0, 0, 2), (1, 1, 2)}

# Insertion gaps (R1+, Subdivide) and R2+ sites sampled per diagram.
INSERTION_SAMPLES = 2


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


def applicable(d, rng=None):
    """Move instances applicable to a diagram.

    Removal-type sites (R1-, R2-, R3, SidePass) are enumerated exhaustively;
    insertion sites (R1+, R2+, Subdivide) exist everywhere and are sampled,
    deterministically unless an rng is supplied.
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
    if rng is None:
        chosen = [gaps[0], gaps[len(gaps) // 2]][: min(INSERTION_SAMPLES, len(gaps))]
        r1_variants = [("OU", 1), ("UO", -1)]
        r2_specs = [(gaps[0], gaps[len(gaps) // 2], True, True, 1)]
    else:
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


# ---------------------------------------------------------------------------
# Random diagrams


def random_diagram(rng, crossings, genus=0, max_side_tokens=2, name="rnd"):
    """Uniform random pairing with random over/under split and signs.

    Side tokens (up to ``max_side_tokens`` per side, random copy) are spliced
    into random gaps.  Every code is a legal virtual/surface diagram, so no
    rejection is needed.
    """
    n = crossings
    slots = list(range(2 * n))
    rng.shuffle(slots)
    toks = [None] * (2 * n)
    for cid in range(1, n + 1):
        i, j = slots[2 * (cid - 1)], slots[2 * cid - 1]
        sign = rng.choice((1, -1))
        toks[i] = Passage(cid, True, sign)
        toks[j] = Passage(cid, False, sign)
    for m in range(1, 2 * genus + 1):
        for _ in range(rng.randint(0, max_side_tokens)):
            gap = rng.randint(0, len(toks))
            toks[gap:gap] = [SideToken(m, rng.choice((1, -1)))]
    return Diagram(name, genus, tuple(toks))


# ---------------------------------------------------------------------------
# Axiom checks and the verification harness


def _axiom_problems(before, after, move, par_b, ty_b):
    """Axiom violations of one move; par_b and ty_b are the parity map and
    hierarchy types of ``before``, computed once for all of its moves."""
    problems = []
    par_a, ty_a = parity_map(after), hierarchy_types(after)
    common = set(par_b) & set(par_a)
    kind = move.kind

    touched = set()
    if kind in ("R1-", "R1+"):
        side = before if kind == "R1-" else after
        loop_ids = set(side.crossings) - set((after if kind == "R1-" else before).crossings)
        touched = loop_ids
        par, ty = (par_b, ty_b) if kind == "R1-" else (par_a, ty_a)
        for c in loop_ids:
            if par[c] != EVEN:
                problems.append(f"loop crossing {c} not even")
            if ty[c] != 2:
                problems.append(f"loop crossing {c} not type 2")
    elif kind in ("R2-", "R2+"):
        pair = set(before.crossings) ^ set(after.crossings)
        touched = pair
        par, ty = (par_b, ty_b) if kind == "R2-" else (par_a, ty_a)
        vals = [par[c] for c in pair]
        tys = [ty[c] for c in pair]
        if len(set(vals)) > 1:
            problems.append(f"pair parity differs: {vals}")
        if len(set(tys)) > 1:
            problems.append(f"pair type differs: {tys}")
    elif kind == "R3":
        trip = {
            before.tokens[i].crossing
            for pr in move.data
            for i in pr
        }
        touched = trip
        for c in trip:
            if par_b[c] != par_a[c]:
                problems.append(f"R3 crossing {c} parity changed")
        n_odd = sum(1 for c in trip if par_b[c] == ODD)
        if n_odd % 2:
            problems.append(f"odd count {n_odd} in R3 triple")
        for ty in (ty_b, ty_a):
            case = tuple(sorted(ty[c] for c in trip))
            if case not in _R3_CASES:
                problems.append(f"R3 type case {case} not allowed")
    for c in common - touched:
        if par_b[c] != par_a[c]:
            problems.append(f"untouched crossing {c} parity changed")
        if ty_b[c] != ty_a[c]:
            problems.append(f"untouched crossing {c} type changed")
    return problems


@dataclass
class VerifyReport:
    seed: int
    trials: int
    invariant: str
    max_crossings: int
    genus: int
    moves_checked: int = 0
    compares: int = 0
    skipped_boundary: int = 0
    by_kind: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.counterexamples

    def render(self):
        lines = [
            f"verify invariant={self.invariant} seed={self.seed} trials={self.trials} "
            f"max-crossings={self.max_crossings} genus={self.genus}",
            f"moves checked: {self.moves_checked} "
            + " ".join(f"{k}={v}" for k, v in sorted(self.by_kind.items())),
            f"invariant comparisons: {self.compares} "
            f"(skipped at the empty-diagram boundary: {self.skipped_boundary})",
        ]
        for trial, code, mv, what, detail in self.counterexamples:
            lines.append(f"COUNTEREXAMPLE trial={trial} move={mv} [{what}] {detail}")
            lines.append(f"  diagram: {code}")
        lines.append(
            f"{len(self.counterexamples)} counterexamples"
            if self.counterexamples
            else "zero counterexamples"
        )
        return "\n".join(lines)

    def to_json(self):
        return {
            "seed": self.seed,
            "trials": self.trials,
            "invariant": self.invariant,
            "max_crossings": self.max_crossings,
            "genus": self.genus,
            "moves_checked": self.moves_checked,
            "by_kind": dict(sorted(self.by_kind.items())),
            "compares": self.compares,
            "skipped_boundary": self.skipped_boundary,
            "counterexamples": [
                {"trial": t, "diagram": c, "move": m, "what": w, "detail": d}
                for t, c, m, w, d in self.counterexamples
            ],
            "ok": self.ok,
        }


def _degenerate(d, invariant):
    """True when the diagram's matrix is 0x0, i.e. its invariant is the
    empty determinant and the invariance statement does not apply."""
    if invariant == "s":
        return not d.crossings and not d.vertex_ids
    return all(v == 0 for v in hierarchy_types(d).values())


def verify_invariance(seed, trials, max_crossings, genus=0, invariant="s"):
    """Randomized invariance and axiom verification; fully deterministic.

    ``invariant`` is "s" (surface diagrams, all move kinds) or "nprime"
    (Gauss codes, classical move kinds only).  Failures are report entries,
    never exceptions.
    """
    rng = random.Random(seed)
    genus = genus if invariant == "s" else 0
    rep = VerifyReport(seed, trials, invariant, max_crossings, genus)
    inv = s_invariant if invariant == "s" else nprime_invariant
    for trial in range(trials):
        n = rng.randint(1, max_crossings)
        g = rng.randint(0, genus) if invariant == "s" else 0
        d = random_diagram(rng, n, g, name=f"t{trial}")
        moves = applicable(d, rng=rng)
        if invariant == "nprime":
            moves = [m for m in moves if m.kind not in ("SidePass", "Subdivide")]
        value = None
        par, types = parity_map(d), hierarchy_types(d)
        degenerate = _degenerate(d, invariant)
        for mv in moves:
            d2 = apply(d, mv)
            rep.moves_checked += 1
            rep.by_kind[mv.kind] = rep.by_kind.get(mv.kind, 0) + 1
            for prob in _axiom_problems(d, d2, mv, par, types):
                rep.counterexamples.append(
                    (trial, d.serialize(), mv.describe(), "axiom", prob)
                )
            if degenerate or _degenerate(d2, invariant):
                rep.skipped_boundary += 1
                continue
            if value is None:
                value = inv(d)
            res = compare(value, inv(d2))
            rep.compares += 1
            if res.verdict != EQUIVALENT:
                rep.counterexamples.append(
                    (
                        trial,
                        d.serialize(),
                        mv.describe(),
                        "invariance",
                        f"{invariant} changed: {res.verdict}; after = {d2.serialize()}",
                    )
                )
    return rep
