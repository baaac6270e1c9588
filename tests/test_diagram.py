import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotparity.diagram import (
    CrossingSeenOnce,
    CrossingSeenTwiceSameStrand,
    MalformedToken,
    Passage,
    SideIndexOutOfRange,
    SideToken,
    SignMismatch,
    arcs,
    parse_gauss,
    parse_line,
    parse_surface,
    short_arcs,
)
from knotparity.moves import random_diagram
from knotparity.parity import hierarchy_types


def test_parse_gauss_basic():
    d = parse_gauss("vtrefoil: O1+ O2+ U1+ U2+")
    assert d.name == "vtrefoil"
    assert len(d.tokens) == 4
    assert d.crossings == [1, 2]
    d = parse_gauss("trefoil: O1- U2- O3- U1- O2- U3-")
    assert len(d.crossings) == 3
    assert all(d.sign_of(c) == -1 for c in d.crossings)


def test_parse_gauss_errors():
    with pytest.raises(CrossingSeenTwiceSameStrand):
        parse_gauss("bad: O1+ O1+")
    with pytest.raises(CrossingSeenOnce):
        parse_gauss("bad: O1+ U1+ O2+")
    with pytest.raises(SignMismatch):
        parse_gauss("bad: O1+ U1-")
    with pytest.raises(MalformedToken):
        parse_gauss("bad: O1+ Q2-")
    with pytest.raises(MalformedToken):
        parse_gauss("no separator here")


def test_parse_surface():
    d = parse_surface("genus 1; k: O1+ x1+ U1+")
    assert d.genus == 1
    assert len(d.tokens) == 3
    d = parse_surface("genus 0; u:")
    assert d.genus == 0 and d.tokens == ()
    with pytest.raises(SideIndexOutOfRange):
        parse_surface("genus 1; bad: x3+")


def test_renumbering_by_first_appearance():
    d = parse_gauss("k: O7+ O9- U7+ U9-")
    assert d.crossings == [1, 2]


def test_serialize_round_trip_fixed():
    for line in (
        "genus 1; 1.12: U1+ x1- U2- O3- x1+ O1+ O2- U3- U4+ x1- O4+",
        "trefoil: O1- U2- O3- U1- O2- U3-",
        "genus 0; u:",
    ):
        d = parse_line(line)
        assert parse_line(d.serialize()) == d


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 2))
def test_serialize_round_trip_random(seed, n, genus):
    rng = random.Random(seed)
    d = random_diagram(rng, n, genus)
    d0 = parse_line(d.serialize())
    assert parse_line(d0.serialize()) == d0


def test_arcs_virtual_trefoil_hand_trace():
    d = parse_gauss("vtrefoil: O1+ O2+ U1+ U2+")
    table = arcs(d).by_origin()
    # arc 1 runs from just after U1 to U2 with nothing inside
    a1 = table[("crossing", 1)]
    assert [i.role for i in a1.incidences] == ["out", "in"]
    assert a1.incidences[-1].site == 2
    # arc 2 runs from after U2 through O1 and O2 up to U1
    a2 = table[("crossing", 2)]
    assert [(i.site, i.role) for i in a2.incidences] == [
        (2, "out"),
        (1, "over"),
        (2, "over"),
        (1, "in"),
    ]


def test_arcs_torus_label_accumulation():
    d = parse_surface("genus 1; k: O1+ x1+ U1+")
    (arc,) = arcs(d).arcs
    roles = {i.role: i.label for i in arc.incidences}
    # the over and under incidences of the single arc differ by (1, 0)
    diff = tuple(a - b for a, b in zip(roles["in"], roles["over"]))
    assert diff == (1, 0)


def test_arcs_empty_diagram():
    d = parse_surface("genus 0; u:")
    assert len(arcs(d)) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(0, 2))
def test_arc_count_and_origin_labels(seed, n, genus):
    rng = random.Random(seed)
    d = random_diagram(rng, n, genus)
    table = arcs(d)
    assert len(table) == len(d.crossings)
    for arc in table.arcs:
        out = arc.incidences[0]
        assert out.role == "out"
        assert all(e == 0 for e in out.label)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 2))
def test_basepoint_rotation_leaves_arcs_invariant(seed, n, genus):
    rng = random.Random(seed)
    d = random_diagram(rng, n, genus)
    base = frozenset(arcs(d).arcs)
    for k in range(1, len(d.tokens)):
        assert frozenset(arcs(d.rotated(k)).arcs) == base


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(1, 2))
def test_homology_class_matches_token_sum(seed, n, genus):
    rng = random.Random(seed)
    d = random_diagram(rng, n, genus)
    vec = [0] * (2 * genus)
    for tok in d.tokens:
        if isinstance(tok, SideToken):
            vec[tok.side - 1] += tok.sign
    assert d.homology_class() == tuple(vec)
    for k in range(len(d.tokens)):
        assert d.rotated(k).homology_class() == d.homology_class()


# --- short arcs --------------------------------------------------------------


def test_short_arcs_all_type_zero():
    d = parse_gauss("vtrefoil: O1+ O2+ U1+ U2+")
    types = {1: 0, 2: 0}
    assert len(short_arcs(d, types)) == 0


def test_short_arcs_trefoil_all_type2():
    d = parse_gauss("trefoil: O1- U2- O3- U1- O2- U3-")
    table = short_arcs(d, {1: 2, 2: 2, 3: 2})
    assert len(table) == 3
    for arc in table.arcs:
        assert all(i.label[0] == 0 for i in arc.incidences)


def _oracle_short_walk(d, types):
    """Independent strand walk: dict (origin -> [(crossing, role, exp)])."""
    toks = d.tokens
    n = len(toks)
    signs = {t.crossing: t.sign for t in toks if isinstance(t, Passage)}
    starts = [
        i
        for i, t in enumerate(toks)
        if isinstance(t, Passage) and not t.over and types[t.crossing] != 0
    ]
    out = {}
    for st_ in starts:
        exp = 0
        rec = [(toks[st_].crossing, "out", 0)]
        i = st_
        while True:
            i = (i + 1) % n
            t = toks[i]
            if not isinstance(t, Passage):
                continue
            if types[t.crossing] == 0:
                exp += signs[t.crossing] * (1 if not t.over else -1)
            elif t.over:
                rec.append((t.crossing, "over", exp))
            else:
                rec.append((t.crossing, "in", exp))
                break
        out[toks[st_].crossing] = rec
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_short_arcs_match_walk_oracle(seed, n):
    rng = random.Random(seed)
    d = random_diagram(rng, n, 0)
    types = hierarchy_types(d)
    table = short_arcs(d, types)
    oracle = _oracle_short_walk(d, types)
    assert len(table) == sum(1 for v in types.values() if v != 0)
    got = {
        arc.origin: [(i.site, i.role, i.label[0]) for i in arc.incidences]
        for arc in table.arcs
    }
    assert got == oracle


def test_short_arcs_requires_full_type_map():
    d = parse_gauss("kink: O1+ U1+")
    with pytest.raises(KeyError):
        short_arcs(d, {})
