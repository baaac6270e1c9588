"""Seeded inputs for the benchmark workloads.

Nothing here imports knotparity: the inputs are built from the seed alone, so
a change to the library (its random-diagram generator included) cannot change
what a workload runs.  The same (workload, seed) gives byte-identical inputs
on every platform, because only ``random.Random`` seeded with a string is used.

The workloads are stratified: every cell (a crossing count and a genus or
type split) gets the same number of requests, so the cost of one run depends
on the random codes inside each cell, not on how many large diagrams a seed
happened to draw.
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("census-s", "census-nprime", "verify-sweep")

# Every workload has an odd number of cells of equal size, so the median
# request falls inside one cell's cost band instead of on a gap between two.
# census-s: surface diagrams, (genus, crossings) -> diagrams per cell.
S_CELLS = tuple(((g, n), 20) for g in (0, 1, 2) for n in (10, 11, 12))
# census-nprime: virtual knots, (crossings, type-1 count, type-2 count) ->
# diagrams per cell.  The nprime matrix is square on the type-1/2 crossings
# and its entries depend on the type split, so fixing both keeps the cost of
# each cell in a narrow band; the counts are the most common ones at each size.
NPRIME_CELLS = tuple(
    (cell, 28) for cell in ((16, 4, 4), (18, 4, 6), (20, 4, 6), (22, 6, 6), (24, 6, 6))
)
# verify-sweep: `knotparity verify --trials 1` at the acceptance settings
# (at most 8 crossings, genus at most 2), with trial seeds chosen so that every
# (crossings, genus) cell gets the same count.  One-crossing trials are left
# out: they cost almost nothing, and with them the cell count would be even.
VERIFY_MAX_CROSSINGS = 8
VERIFY_GENUS = 2
VERIFY_CELLS = tuple((n, g) for n in range(2, VERIFY_MAX_CROSSINGS + 1) for g in range(VERIFY_GENUS + 1))
VERIFY_PER_CELL = 4

# A small diagram run once per request kind before timing starts.
WARMUP = {
    "census-s": ["genus 1; warm: O1+ x1+ U2- O3+ U1+ x2- O2- U3+"],
    "census-nprime": ["warm: O1+ U2- O3+ U1+ O2- U3+ O4- U4-"],
    "verify-sweep": [1],
}


def _rng(workload, seed):
    return random.Random(f"knotparity-bench/{workload}/{seed}")


def random_body(rng, crossings, genus):
    """Token text of a random diagram code.

    A uniform random pairing of 2n passage slots into crossings, each with a
    random sign and a random over/under order, crossing ids numbered by first
    appearance, then exactly one side token (random copy) per polygon side
    spliced into a random gap.
    """
    slots = list(range(2 * crossings))
    rng.shuffle(slots)
    passages = [None] * (2 * crossings)
    for c in range(crossings):
        sign = rng.choice("+-")
        passages[slots[2 * c]] = ("O", c, sign)
        passages[slots[2 * c + 1]] = ("U", c, sign)
    ids = {}
    tokens = []
    for kind, c, sign in passages:
        ids.setdefault(c, len(ids) + 1)
        tokens.append(f"{kind}{ids[c]}{sign}")
    for side in range(1, 2 * genus + 1):
        tokens.insert(rng.randrange(len(tokens) + 1), f"x{side}{rng.choice('+-')}")
    return " ".join(tokens)


def census_s(seed):
    rng = _rng("census-s", seed)
    lines = []
    for (genus, crossings), count in S_CELLS:
        for _ in range(count):
            name = f"s{len(lines):03d}"
            lines.append(f"genus {genus}; {name}: {random_body(rng, crossings, genus)}")
    return lines


def census_nprime(seed):
    rng = _rng("census-nprime", seed)
    lines = []
    for (crossings, n1, n2), count in NPRIME_CELLS:
        while count:
            body = random_body(rng, crossings, 0)
            types = list(parity_and_types(body)[1].values())
            if types.count(1) == n1 and types.count(2) == n2:
                lines.append(f"n{len(lines):03d}: {body}")
                count -= 1
    return lines


def verify_cell(trial_seed):
    """(crossings, genus) of the single trial `verify --trials 1 --seed S`
    draws: the first two draws of verify_invariance's own generator."""
    rng = random.Random(trial_seed)
    crossings = rng.randint(1, VERIFY_MAX_CROSSINGS)
    return crossings, rng.randint(0, VERIFY_GENUS)


def verify_seeds(seed):
    """Trial seeds, VERIFY_PER_CELL for every cell of VERIFY_CELLS."""
    rng = _rng("verify-sweep", seed)
    by_cell = {cell: [] for cell in VERIFY_CELLS}
    while any(len(seeds) < VERIFY_PER_CELL for seeds in by_cell.values()):
        s = rng.randrange(2**31)
        seeds = by_cell.get(verify_cell(s))
        if seeds is not None and len(seeds) < VERIFY_PER_CELL:
            seeds.append(s)
    return [s for cell in VERIFY_CELLS for s in by_cell[cell]]


def generate(workload, seed):
    """The request inputs of one run: census lines, or verify trial seeds."""
    if workload == "census-s":
        return census_s(seed)
    if workload == "census-nprime":
        return census_nprime(seed)
    if workload == "verify-sweep":
        return verify_seeds(seed)
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(items):
    text = "\n".join(str(x) for x in items) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Independent parity: the output checks compare the program's parity and type
# maps against these, which share no code with knotparity.parity.


def _chords(body):
    ends = {}
    pos = 0
    for word in body.split():
        if word[0] in "OU":
            ends.setdefault(int(word[1:-1]), []).append(pos)
            pos += 1
    return ends


def _crossed(e1, e2):
    a, b = sorted(e1)
    return (a < e2[0] < b) != (a < e2[1] < b)


def parity_and_types(body):
    """({crossing: "even"|"odd"}, {crossing: 0|1|2}) of a diagram code."""
    ends = _chords(body)
    parity = {
        c: "odd" if sum(_crossed(e, f) for o, f in ends.items() if o != c) % 2 else "even"
        for c, e in ends.items()
    }
    even = [c for c in ends if parity[c] == "even"]
    types = {c: 0 for c in ends if parity[c] == "odd"}
    for c in even:
        n = sum(_crossed(ends[c], ends[o]) for o in even if o != c)
        types[c] = 1 if n % 2 else 2
    return parity, types
