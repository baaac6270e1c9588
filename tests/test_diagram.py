import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotparity.diagram import (
    MAX_GENUS,
    CrossingSeenOnce,
    CrossingSeenTwiceSameStrand,
    Diagram,
    DiagramError,
    GenusTooLarge,
    MalformedToken,
    Passage,
    SideIndexOutOfRange,
    SideToken,
    SignMismatch,
    VertexRepeated,
    arcs,
    parse_file,
    parse_gauss,
    parse_line,
    parse_surface,
    short_arcs,
)
from knotparity.moves import random_diagram
from knotparity.parity import hierarchy_types


def renumbered(d, mapping):
    """d with its crossing ids relabelled through the dict ``mapping``."""
    toks = tuple(
        Passage(mapping[t.crossing], t.over, t.sign) if isinstance(t, Passage) else t
        for t in d.tokens
    )
    return Diagram(d.name, d.genus, toks)


def homology_class(d):
    """Total signed side crossings of d, one entry per side 1..2g."""
    vec = [0] * (2 * d.genus)
    for tok in d.tokens:
        if isinstance(tok, SideToken):
            vec[tok.side - 1] += tok.sign
    return tuple(vec)


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


def test_genus_ceiling(tmp_path):
    assert parse_surface(f"genus {MAX_GENUS}; k: O1+ x1+ U1+").genus == MAX_GENUS
    assert parse_surface("genus 0001; k: O1+ x1+ U1+").genus == 1
    assert issubclass(GenusTooLarge, DiagramError)
    # a digit string too long for int() fails the same way, at once
    for genus in (str(MAX_GENUS + 1), "99999999", "9" * 5000):
        with pytest.raises(GenusTooLarge, match=f"k: genus more than the {MAX_GENUS} allowed"):
            parse_surface(f"genus {genus}; k: O1+ x1+ U1+")
    path = tmp_path / "big.surf"
    path.write_text("genus 1; small: O1+ x1+ U1+\ngenus 99999999; big: O1+ x1+ U1+\n")
    with pytest.raises(GenusTooLarge):
        parse_file(path)
    diagrams, errors = parse_file(path, lenient=True)
    assert [d.name for d in diagrams] == ["small"] and [e[0] for e in errors] == [2]


def test_repeated_vertex_id(tmp_path):
    # two vertices with one id would share one matrix column
    assert issubclass(VertexRepeated, DiagramError)
    with pytest.raises(VertexRepeated, match="b: a vertex id appears twice"):
        parse_surface("genus 1; b: O1+ v1 x1+ U1+ v1")
    assert parse_surface("genus 1; b: O1+ v1 x1+ U1+ v2").vertex_ids == [1, 2]
    path = tmp_path / "v.surf"
    path.write_text("genus 1; b: O1+ v1 x1+ U1+ v1\ngenus 1; c: O1+ v1 x1+ U1+ v2\n")
    diagrams, errors = parse_file(path, lenient=True)
    assert [d.name for d in diagrams] == ["c"] and [e[0] for e in errors] == [1]


def test_number_tokens():
    # a number int() refuses is a malformed token, not a ValueError
    ones = "1" * 5000
    for line in (f"k: O{ones}+ U{ones}+", f"k: O1+ U1+ v{ones}"):
        with pytest.raises(MalformedToken, match="too many digits"):
            parse_gauss(line)
    # only ASCII digits are digits
    for line in ("k: O\u0661+ U\u0661+", "k: O1+ U1+ v\u0661"):
        with pytest.raises(MalformedToken, match="bad token"):
            parse_gauss(line)
    with pytest.raises(MalformedToken, match="missing 'genus g;' header"):
        parse_line("genus \u0661; k: O1+ x1+ U1+")


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


def test_gauss_code_named_like_a_genus_header():
    # only "genus" and whitespace starts a surface line
    for name in ("genus1", "genus", "genus-2", "genus_x"):
        d = parse_gauss(f"{name}: O1+ U1+")
        assert parse_line(d.serialize()) == d and d.genus == 0
    d = parse_surface("genus 1; genus2: O1+ x1+ U1+")
    assert parse_line(d.serialize()) == d
    for line in ("genus 1: O1+ U1+", " genus\t1: O1+ U1+"):
        with pytest.raises(MalformedToken, match="missing 'genus g;' header"):
            parse_line(line)


def test_undecodable_line_is_malformed(tmp_path):
    path = tmp_path / "bytes.gauss"
    path.write_bytes(b"k: O1+ U1+\r\n\xff\n# caf\xc3\xa9\nj: O1- U1-\rbad: \xc3\x28\n")
    with pytest.raises(DiagramError, match="line 2 is not valid UTF-8"):
        parse_file(path)
    diagrams, errors = parse_file(path, lenient=True)
    # lines end at \n, \r\n or \r; UTF-8 in a comment is fine
    assert [d.name for d in diagrams] == ["k", "j"]
    assert [lineno for lineno, _ in errors] == [2, 5]
    assert all("not valid UTF-8" in msg for _, msg in errors)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 2))
def test_serialize_round_trip_random(seed, n, genus):
    rng = random.Random(seed)
    d = random_diagram(rng, n, genus)
    d0 = parse_line(d.serialize())
    assert parse_line(d0.serialize()) == d0


def test_arcs_virtual_trefoil_hand_trace():
    d = parse_gauss("vtrefoil: O1+ O2+ U1+ U2+")
    table = {(a.origin_kind, a.origin): a for a in arcs(d)}
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
    (arc,) = arcs(d)
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
    for arc in table:
        out = arc.incidences[0]
        assert out.role == "out"
        assert all(e == 0 for e in out.label)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 2))
def test_basepoint_rotation_leaves_arcs_invariant(seed, n, genus):
    rng = random.Random(seed)
    d = random_diagram(rng, n, genus)
    base = frozenset(arcs(d))
    for k in range(1, len(d.tokens)):
        assert frozenset(arcs(d.rotated(k))) == base


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(1, 2))
def test_homology_class_matches_token_sum(seed, n, genus):
    rng = random.Random(seed)
    d = random_diagram(rng, n, genus)
    sides = [tok for tok in d.tokens if isinstance(tok, SideToken)]
    vec = tuple(sum(tok.sign for tok in sides if tok.side == m) for m in range(1, 2 * genus + 1))
    assert homology_class(d) == vec
    for k in range(len(d.tokens)):
        assert homology_class(d.rotated(k)) == homology_class(d)


# --- short arcs --------------------------------------------------------------


def test_short_arcs_all_type_zero():
    d = parse_gauss("vtrefoil: O1+ O2+ U1+ U2+")
    types = {1: 0, 2: 0}
    assert len(short_arcs(d, types)) == 0


def test_short_arcs_trefoil_all_type2():
    d = parse_gauss("trefoil: O1- U2- O3- U1- O2- U3-")
    table = short_arcs(d, {1: 2, 2: 2, 3: 2})
    assert len(table) == 3
    for arc in table:
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
        for arc in table
    }
    assert got == oracle


def test_short_arcs_requires_full_type_map():
    d = parse_gauss("kink: O1+ U1+")
    with pytest.raises(KeyError):
        short_arcs(d, {})
