import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from knotparity.diagram import Passage, parse_file, parse_gauss, parse_line, Diagram
from knotparity.invariant import nprime_invariant, s_invariant
from knotparity.moves import MoveInstance, apply, random_diagram, verify_invariance
from knotparity.parity import EVEN, ODD, hierarchy_types, parity_map
from test_diagram import renumbered

import pathlib

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def brute_interleave_counts(d):
    """Oracle: pairwise chord interleaving by direct position checks."""
    pos = {}
    k = 0
    for tok in d.tokens:
        if isinstance(tok, Passage):
            pos.setdefault(tok.crossing, []).append(k)
            k += 1
    def inter(c1, c2):
        a, b = sorted(pos[c1])
        return sum(1 for x in pos[c2] if a < x < b) == 1
    return {c: sum(inter(c, o) for o in pos if o != c) for c in pos}


def _chords(tokens):
    """Oracle: crossing -> its two positions among the passages."""
    endpoints = {}
    pos = 0
    for tok in tokens:
        if isinstance(tok, Passage):
            endpoints.setdefault(tok.crossing, []).append(pos)
            pos += 1
    return {c: tuple(ps) for c, ps in endpoints.items()}


def _interleave(e1, e2):
    a, b = sorted(e1)
    x, y = e2
    return (a < x < b) != (a < y < b)


def pairwise_oracle(d):
    """Oracle: interleaving, counts and types by pairwise endpoint scans, the
    types re-counting interlacement among the even crossings only."""
    endpoints = _chords(d.tokens)
    inter = {(c, o): _interleave(e, endpoints[o]) for c, e in endpoints.items() for o in endpoints}
    counts = {c: sum(inter[c, o] for o in endpoints if o != c) for c in endpoints}
    survivors = [c for c, n in counts.items() if n % 2 == 0]
    types = {c: 0 for c, n in counts.items() if n % 2}
    for c in survivors:
        n = sum(1 for o in survivors if o != c and inter[c, o])
        types[c] = 1 if n % 2 else 2
    return inter, counts, types


def _sweep_diagrams(seed, count):
    """Seeded random diagrams of 1-40 crossings at genus 0-2, a third of
    them with subdivision vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        d = random_diagram(rng, rng.randint(1, 40), rng.randint(0, 2))
        if rng.random() < 1 / 3:
            for _ in range(rng.randint(1, 3)):
                d = apply(d, MoveInstance("Subdivide", (rng.randint(0, len(d.tokens)),)))
        yield rng, d


def _assert_matches_pairwise_oracle(d):
    inter, counts, types = pairwise_oracle(d)
    cd = d.chords
    assert cd.counts == counts
    assert {(c, o): bool(cd.links[c] & cd.bits[o]) for c, o in inter} == inter
    assert parity_map(d) == {c: ODD if n % 2 else EVEN for c, n in counts.items()}
    assert hierarchy_types(d) == types
    # bit i stands for the i-th crossing in order of first appearance, so no
    # bit set is wider than the crossing count, whatever the ids
    assert list(cd.bits.values()) == [1 << i for i in range(len(d.crossings))]
    assert list(cd.bits) == d.crossings
    assert all(0 <= s < 1 << len(cd.bits) for s in cd.links.values())
    return types


def test_bit_sets_match_pairwise_oracle():
    levels = set()
    for _, d in _sweep_diagrams(1009, 150):
        levels.update(_assert_matches_pairwise_oracle(d).values())
    assert levels == {0, 1, 2}


def test_bit_sets_match_pairwise_oracle_under_any_ids():
    for rng, d in _sweep_diagrams(1013, 60):
        n = len(d.crossings)
        ids = rng.sample(range(-3 * n, 0), n // 3) + rng.sample(range(10**9 - 5 * n, 10**9 + 5 * n), n - n // 3)
        rng.shuffle(ids)
        mapping = dict(zip(d.crossings, ids))
        rn = renumbered(d, mapping)
        types = _assert_matches_pairwise_oracle(rn)
        assert types == {mapping[c]: t for c, t in hierarchy_types(d).items()}


def test_virtual_trefoil_counts():
    d = parse_gauss("vtrefoil: O1+ O2+ U1+ U2+")
    cd = d.chords
    assert cd.counts == {1: 1, 2: 1}
    assert cd.links[1] & cd.bits[2] and cd.links[2] & cd.bits[1]
    assert parity_map(d) == {1: ODD, 2: ODD}


def test_classical_trefoil_counts_match_oracle():
    d = parse_gauss("trefoil: O1- U2- O3- U1- O2- U3-")
    cd = d.chords
    assert cd.counts == brute_interleave_counts(d) == {1: 2, 2: 2, 3: 2}
    assert set(parity_map(d).values()) == {EVEN}


def test_single_crossing_loop():
    d = parse_gauss("kink: O1+ U1+")
    assert d.chords.counts == {1: 0}


def test_torus_pair_all_even():
    diagrams, _ = parse_file(FIXTURES / "torus_pair.surf")
    assert len(diagrams) == 2
    for d in diagrams:
        assert set(parity_map(d).values()) == {EVEN}


def test_hierarchy_trefoils():
    assert hierarchy_types(parse_gauss("v: O1+ O2+ U1+ U2+")) == {1: 0, 2: 0}
    assert hierarchy_types(parse_gauss("t: O1- U2- O3- U1- O2- U3-")) == {
        1: 2,
        2: 2,
        3: 2,
    }


def _delete_odd_oracle(d):
    """Oracle for types: delete odd crossings from the code and re-run parity."""
    par = parity_map(d)
    types = {c: 0 for c, v in par.items() if v == ODD}
    toks = tuple(
        t
        for t in d.tokens
        if not (isinstance(t, Passage) and par[t.crossing] == ODD)
    )
    if toks or not types:
        projected = Diagram(d.name, d.genus, toks)
        for c, v in parity_map(projected).items():
            types[c] = 1 if v == ODD else 2
    return types


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_hierarchy_matches_deletion_oracle(seed, n):
    rng = random.Random(seed)
    d = random_diagram(rng, n, 0)
    assert hierarchy_types(d) == _delete_odd_oracle(d)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(0, 2))
def test_parity_independent_of_basepoint_and_numbering(seed, n, genus):
    rng = random.Random(seed)
    d = random_diagram(rng, n, genus)
    base_par, base_ty = parity_map(d), hierarchy_types(d)
    for k in range(1, len(d.tokens), max(1, len(d.tokens) // 3)):
        r = d.rotated(k)
        assert parity_map(r) == base_par
        assert hierarchy_types(r) == base_ty
    ids = d.crossings
    mapping = {c: 100 + c for c in ids}
    rn = renumbered(d, mapping)
    assert parity_map(rn) == {mapping[c]: v for c, v in base_par.items()}
    assert hierarchy_types(rn) == {mapping[c]: v for c, v in base_ty.items()}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_total_interlacement_even(seed, n):
    rng = random.Random(seed)
    d = random_diagram(rng, n, 0)
    assert sum(d.chords.counts.values()) % 2 == 0


def test_type_zero_iff_odd():
    rng = random.Random(5)
    for _ in range(30):
        d = random_diagram(rng, rng.randint(1, 8), 0)
        par, ty = parity_map(d), hierarchy_types(d)
        for c in d.crossings:
            assert (ty[c] == 0) == (par[c] == ODD)


def _record_chord_passes(monkeypatch):
    """The diagram objects whose chord pass runs from here on, in order."""
    passes = []
    original = Diagram.chords.func

    def recorded(d):
        passes.append(d)
        return original(d)

    monkeypatch.setattr(Diagram.chords, "func", recorded)
    return passes


def test_one_chord_pass_per_diagram_object(monkeypatch):
    passes = _record_chord_passes(monkeypatch)
    d = parse_gauss("t: O1- U2- O3- U1- O2- U3-")
    for read in (parity_map, hierarchy_types, s_invariant, nprime_invariant, parity_map):
        read(d)
    assert len(passes) == 1 and passes[0] is d
    # a trial diagram serves every move of its trial with one pass, and each
    # one-move neighbour is a new object with a pass of its own
    for kind, genus in (("s", 2), ("nprime", 0)):
        passes.clear()
        rep = verify_invariance(seed=3, trials=8, max_crossings=5, genus=genus, invariant=kind)
        assert rep.compares
        assert len({id(x) for x in passes}) == len(passes) == rep.trials + rep.moves_checked


def test_chord_cache_is_invisible():
    assert [f.name for f in dataclasses.fields(Diagram)] == ["name", "genus", "tokens"]
    text = "genus 1; k: O1+ x1+ O2- U1+ x1- U2-"
    a, b = parse_line(text), parse_line(text)
    seen = (hash(a), repr(a))
    assert a.chords.counts == {1: 1, 2: 1}
    assert "chords" in vars(a) and "chords" not in vars(b)
    assert a == b and b == a
    assert hash(a) == hash(b) == seen[0]
    assert repr(a) == repr(b) == seen[1]
    assert {a: 1}[b] == 1
