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

  or its mirror (O_b O_a) (O_c U_a) (U_c U_b); applying the move swaps each
  pair in place.  Crossing ids are preserved, which is what gives the
  before/after correspondence the parity-axiom checks need.
* SidePass: a crossing passes through a side of the polygon.  Implemented as
  inserting x_m^d before and x_m^-d after both passages of the crossing and
  then cancelling adjacent inverse side-token pairs; a site is applicable
  when at least one cancellation fires (that is, a passage of the crossing
  is adjacent to a matching side token).  Both strands are rewritten
  together; moving a token past a single passage on its own is not a valid
  move and demonstrably breaks invariance.  Cancellation is one stack pass
  over the sequence, then a trim of inverse pairs that meet across the
  basepoint.
* Subdivide: insert a degree-2 vertex into an arc of a nonempty diagram.

Removal sites (R1-, R2-, R3) are found through one index per diagram,
(crossing, over) -> position of each passage; a crossing has one passage of
each kind, so every check is a lookup.  One predicate per kind, anchored at a
position i, returns the sites whose first pair starts there: at most one for
R1- and R2-, up to two for R3 (form L reads forward from the under-passages
of the over pair at i, form R backward).  ``applicable`` asks each predicate
at every position, in kind order R1-, R2-, R3; ``apply`` accepts a removal
instance only when the same predicate returns it at the instance's first
index, so a stale or malformed site raises MoveNotApplicable.

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
from dataclasses import asdict, dataclass, field

from .diagram import MAX_GENUS, MAX_TOKENS, Diagram, Passage, SideToken, Vertex
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

# Side tokens a random diagram carries on each side, at most.
MAX_SIDE_TOKENS = 2

# The most crossings a verify trial may draw.  Its random code has 2n
# passages and at most MAX_SIDE_TOKENS side tokens on each of
# 2g <= 2 * MAX_GENUS sides, and a one-move neighbour adds at most 4 tokens
# (R2+, SidePass), so every diagram a trial builds stays within
# diagram.MAX_TOKENS.
MAX_CROSSINGS = (MAX_TOKENS - 2 * MAX_SIDE_TOKENS * MAX_GENUS - 4) // 2


def _passage_index(tokens):
    """(crossing, over) -> position of each passage."""
    return {(t.crossing, t.over): k for k, t in enumerate(tokens) if isinstance(t, Passage)}


def _r1_sites(toks, pos, i):
    """R1- at i: positions i and i+1 hold the two passages of one crossing."""
    j = (i + 1) % len(toks)
    a, b = toks[i], toks[j]
    if isinstance(a, Passage) and isinstance(b, Passage) and a.crossing == b.crossing:
        return [(i, j)]
    return []


def _r2_sites(toks, pos, i):
    """R2- at i: over-passages of two crossings of opposite signs at i and
    i+1, whose under-passages are adjacent in either order."""
    n = len(toks)
    j = (i + 1) % n
    a, b = toks[i], toks[j]
    if not (isinstance(a, Passage) and isinstance(b, Passage) and a.over and b.over):
        return []
    if a.sign != -b.sign:
        return []
    ua, ub = pos[a.crossing, False], pos[b.crossing, False]
    if ub == (ua + 1) % n:
        return [((i, j), (ua, ub))]
    if ua == (ub + 1) % n:
        return [((i, j), (ub, ua))]
    return []


def _r3_sites(toks, pos, i):
    """R3 at i: the over-passages at i and i+1 begin one of the patterns

        form L   (O_a O_b) (U_a O_c) (U_b U_c)
        form R   (O_b O_a) (O_c U_a) (U_c U_b)

    of three distinct crossings of one sign.  Each form reads the token after
    (L) or before (R) the under-passages of the over pair; the sites come in
    the order of their middle pair."""
    n = len(toks)
    j = (i + 1) % n
    x, y = toks[i], toks[j]
    if not (isinstance(x, Passage) and isinstance(y, Passage) and x.over and y.over):
        return []
    sites = []
    for a, b, step in ((x, y, 1), (y, x, -1)):
        mid, low = pos[a.crossing, False], pos[b.crossing, False]
        c, uc = toks[(mid + step) % n], toks[(low + step) % n]
        if not (isinstance(c, Passage) and c.over and isinstance(uc, Passage) and not uc.over):
            continue
        if uc.crossing == c.crossing and len({a.crossing, b.crossing, c.crossing}) == 3:
            if a.sign == b.sign == c.sign:
                m, u = (mid + min(step, 0)) % n, (low + min(step, 0)) % n
                sites.append(((i, j), (m, (m + 1) % n), (u, (u + 1) % n)))
    return sorted(sites, key=lambda site: site[1])


# removal kind -> predicate giving its sites at one position
_SITES = {"R1-": _r1_sites, "R2-": _r2_sites, "R3": _r3_sites}


def applicable(d, rng):
    """Move instances applicable to a diagram.

    Removal-type sites (R1-, R2-, R3, SidePass) are enumerated exhaustively;
    insertion sites (R1+, R2+, Subdivide) exist everywhere, and
    ``INSERTION_SAMPLES`` of each kind are drawn from ``rng``.
    """
    out = []
    toks = d.tokens
    n = len(toks)
    pos = _passage_index(toks)
    for kind, sites in _SITES.items():
        for i in range(n):
            for site in sites(toks, pos, i):
                out.append(MoveInstance(kind, site))

    # SidePass keys in order of first sight: the side token before a passage
    # gives delta -sign, the one after it +sign
    passes = {}
    for i, tok in enumerate(toks):
        if isinstance(tok, Passage):
            for step in (-1, 1):
                nb = toks[(i + step) % n]
                if isinstance(nb, SideToken):
                    passes[tok.crossing, nb.side, step * nb.sign] = None
    out += [MoveInstance("SidePass", key) for key in passes]

    gaps = list(range(n + 1)) if n else [0]
    chosen = [rng.choice(gaps) for _ in range(INSERTION_SAMPLES)]
    for gap in chosen:
        out.append(MoveInstance("R1+", (gap, rng.choice(("OU", "UO")), rng.choice((1, -1)))))
    for _ in range(INSERTION_SAMPLES):
        spec = (
            rng.choice(gaps),
            rng.choice(gaps),
            rng.random() < 0.5,
            rng.random() < 0.5,
            rng.choice((1, -1)),
        )
        out.append(MoveInstance("R2+", spec))
    if d.crossings:
        for gap in chosen:
            out.append(MoveInstance("Subdivide", (gap,)))
    return out


def _fresh_crossing(d):
    return max(d.crossings, default=0) + 1


def _inverse(a, b):
    both = isinstance(a, SideToken) and isinstance(b, SideToken)
    return both and a.side == b.side and a.sign == -b.sign


def _cancel_side_pairs(tokens):
    """Cancel adjacent inverse side tokens of the cyclic sequence: one stack
    pass reduces the sequence, then inverse pairs meeting across the
    basepoint are trimmed from both ends."""
    toks = []
    for tok in tokens:
        if toks and _inverse(toks[-1], tok):
            toks.pop()
        else:
            toks.append(tok)
    lo, hi = 0, len(toks)
    while hi - lo >= 2 and _inverse(toks[hi - 1], toks[lo]):
        lo, hi = lo + 1, hi - 1
    return toks[lo:hi]


def _removal_site(d, move):
    """The site equal to the move's data among those its kind's predicate
    returns at the data's first index; anything else, including data of the
    wrong shape or type, raises MoveNotApplicable."""
    first = move.data
    while isinstance(first, tuple) and first:
        first = first[0]
    toks = d.tokens
    if type(first) is int and 0 <= first < len(toks):
        for site in _SITES[move.kind](toks, _passage_index(toks), first):
            if site == move.data:
                return site
    raise MoveNotApplicable(move.describe())


# insertion kind -> the values each field of its data may take (int: any int)
_FIELDS = {
    "R1+": (int, ("OU", "UO"), (1, -1)),  # gap, order, sign
    "R2+": (int, int, (True, False), (True, False), (1, -1)),  # gaps, over_at_first, co, sign
    "SidePass": (int, int, (1, -1)),  # crossing, side, delta
    "Subdivide": (int,),  # gap
}


def _allowed(x, values):
    """Whether x is an int, when ``values`` is int, or one of ``values`` of the same type."""
    return type(x) is int if values is int else any(type(x) is type(v) and x == v for v in values)


def apply(d, move):
    """Apply a move instance; raises MoveNotApplicable on a stale site or on
    data of the wrong shape, type or range."""
    toks = list(d.tokens)
    kind, data = move.kind, move.data
    fields = _FIELDS.get(kind)
    if fields and not (
        isinstance(data, tuple) and len(data) == len(fields) and all(map(_allowed, data, fields))
    ):
        raise MoveNotApplicable(move.describe())
    if kind in ("R1-", "R2-"):
        site = _removal_site(d, move)
        drop = set(site) if kind == "R1-" else set(site[0] + site[1])
        toks = [tok for k, tok in enumerate(toks) if k not in drop]
    elif kind == "R3":
        for i, j in _removal_site(d, move):
            toks[i], toks[j] = toks[j], toks[i]
    elif kind == "R1+":
        gap, order, sign = data
        if not 0 <= gap <= len(toks):
            raise MoveNotApplicable(move.describe())
        c = _fresh_crossing(d)
        pair = [Passage(c, order[0] == "O", sign), Passage(c, order[1] == "O", sign)]
        toks[gap:gap] = pair
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


def random_diagram(rng, crossings, genus=0, name="rnd"):
    """Uniform random pairing with random over/under split and signs.

    Side tokens (up to ``MAX_SIDE_TOKENS`` per side, random copy) are spliced
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
        for _ in range(rng.randint(0, MAX_SIDE_TOKENS)):
            gap = rng.randint(0, len(toks))
            toks[gap:gap] = [SideToken(m, rng.choice((1, -1)))]
    return Diagram(name, genus, tuple(toks))


# ---------------------------------------------------------------------------
# Axiom checks and the verification harness


def _axiom_problems(before, after, move):
    """Axiom violations of one move."""
    par_b, ty_b = parity_map(before), hierarchy_types(before)
    par_a, ty_a = parity_map(after), hierarchy_types(after)
    problems = []
    common = set(par_b) & set(par_a)
    kind = move.kind

    touched = ()
    if kind in ("R1-", "R1+", "R2-", "R2+"):
        # the loop crossing or the pair, read on the side that holds it
        touched = sorted(set(before.crossings) ^ set(after.crossings))
        par, ty = (par_b, ty_b) if kind.endswith("-") else (par_a, ty_a)
        if kind.startswith("R1"):
            for c in touched:
                if par[c] != EVEN:
                    problems.append(f"loop crossing {c} not even")
                if ty[c] != 2:
                    problems.append(f"loop crossing {c} not type 2")
        else:
            vals, tys = [par[c] for c in touched], [ty[c] for c in touched]
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
    for c in common.difference(touched):
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
    by_kind: dict = field(default_factory=dict)
    compares: int = 0
    skipped_boundary: int = 0
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
            **asdict(self),
            "by_kind": dict(sorted(self.by_kind.items())),
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
    never exceptions; an unknown ``invariant``, ``trials`` below 1,
    ``max_crossings`` outside 1..MAX_CROSSINGS or ``genus`` outside
    0..MAX_GENUS raises ValueError.
    """
    if invariant not in ("s", "nprime"):
        raise ValueError(f"invariant {invariant!r} is not 's' or 'nprime'")
    if not (type(trials) is int and trials >= 1):
        raise ValueError(f"trials {trials!r} is not an integer of at least 1")
    if not (type(max_crossings) is int and 1 <= max_crossings <= MAX_CROSSINGS):
        raise ValueError(f"max_crossings {max_crossings!r} is outside 1..{MAX_CROSSINGS}")
    if not (type(genus) is int and 0 <= genus <= MAX_GENUS):
        raise ValueError(f"genus {genus!r} is outside 0..{MAX_GENUS}")
    rng = random.Random(seed)
    genus = genus if invariant == "s" else 0
    rep = VerifyReport(seed, trials, invariant, max_crossings, genus)
    inv = s_invariant if invariant == "s" else nprime_invariant
    for trial in range(trials):
        n = rng.randint(1, max_crossings)
        g = rng.randint(0, genus) if invariant == "s" else 0
        d = random_diagram(rng, n, g, name=f"t{trial}")
        moves = applicable(d, rng)
        if invariant == "nprime":
            moves = [m for m in moves if m.kind not in ("SidePass", "Subdivide")]
        value = None
        degenerate = _degenerate(d, invariant)
        for mv in moves:
            d2 = apply(d, mv)
            rep.moves_checked += 1
            rep.by_kind[mv.kind] = rep.by_kind.get(mv.kind, 0) + 1
            for prob in _axiom_problems(d, d2, mv):
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
