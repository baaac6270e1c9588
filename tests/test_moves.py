import json
import random

import pytest

import moves_oracle as oracle
from test_diagram import homology_class
from knotparity.diagram import (
    Diagram,
    Passage,
    SideToken,
    Vertex,
    parse_gauss,
    parse_line,
    parse_surface,
)
from knotparity.invariant import EQUIVALENT, compare, s_invariant
from knotparity import moves
from knotparity.diagram import MAX_GENUS
from knotparity.moves import (
    MAX_CROSSINGS,
    MoveInstance,
    MoveNotApplicable,
    _cancel_side_pairs,
    applicable,
    apply,
    random_diagram,
    verify_invariance,
)


def kinds(moves):
    return {m.kind for m in moves}


def test_kink_has_r1_minus():
    d = parse_gauss("kink: O1+ U1+")
    moves = applicable(d, random.Random(0))
    assert any(m.kind == "R1-" for m in moves)
    r1 = next(m for m in moves if m.kind == "R1-")
    assert apply(d, r1).tokens == ()


def test_r2_pattern_detected():
    # the two crossings of a removable bigon carry opposite signs
    d = parse_gauss("pair: O1+ U2- U1+ O2-")
    moves = applicable(d, random.Random(0))
    assert any(m.kind == "R2-" for m in moves)
    r2 = next(m for m in moves if m.kind == "R2-")
    assert apply(d, r2).tokens == ()
    # with equal signs the pattern is not a Reidemeister bigon
    same = parse_gauss("pair: O1+ U2+ U1+ O2+")
    assert not any(m.kind == "R2-" for m in applicable(same, random.Random(0)))


def test_empty_diagram_offers_insertions_only():
    d = parse_gauss("u:")
    moves = applicable(d, random.Random(0))
    assert kinds(moves) <= {"R1+", "R2+"}
    assert "R1+" in kinds(moves) and "R2+" in kinds(moves)


def test_r1_round_trip():
    d = parse_gauss("t: O1- U2- O3- U1- O2- U3-")
    rng = random.Random(2)
    for _ in range(5):
        gap = rng.randint(0, len(d.tokens))
        order = rng.choice(("OU", "UO"))
        sign = rng.choice((1, -1))
        d2 = apply(d, MoveInstance("R1+", (gap, order, sign)))
        assert len(d2.tokens) == len(d.tokens) + 2
        back = [
            m for m in applicable(d2, random.Random(0)) if m.kind == "R1-" and m.data[0] in (gap, gap + 1)
        ]
        undone = apply(d2, back[0])
        assert parse_line(undone.serialize()) == parse_line(d.serialize())


def test_r2_round_trip():
    d = parse_gauss("t: O1- U2- O3- U1- O2- U3-")
    d2 = apply(d, MoveInstance("R2+", (1, 4, True, True, 1)))
    assert len(d2.tokens) == len(d.tokens) + 4
    r2s = [m for m in applicable(d2, random.Random(0)) if m.kind == "R2-"]
    assert r2s
    undone = apply(d2, r2s[0])
    assert parse_line(undone.serialize()) == parse_line(d.serialize())


def test_r3_swap_on_braid_pattern():
    # triangle site: (O1 O2)(U1 O3)(U2 U3), all positive
    d = parse_gauss("b: O1+ O2+ U1+ O3+ U2+ U3+")
    moves = [m for m in applicable(d, random.Random(0)) if m.kind == "R3"]
    assert len(moves) == 1
    d2 = apply(d, moves[0])
    assert d2.serialize() == "b: O2+ O1+ O3+ U1+ U3+ U2+"
    # applying the move at the swapped site returns the original code
    back = [m for m in applicable(d2, random.Random(0)) if m.kind == "R3"]
    assert back
    assert apply(d2, back[0]).serialize() == d.serialize()


def test_sidepass_detection_and_conservation():
    d = parse_surface("genus 1; k: U1+ x1- U2- O3- x1+ O1+ O2- U3- U4+ x1- O4+")
    moves = [m for m in applicable(d, random.Random(0)) if m.kind == "SidePass"]
    assert moves
    v = s_invariant(d)
    for mv in moves:
        d2 = apply(d, mv)
        assert homology_class(d2) == homology_class(d)
        assert compare(v, s_invariant(d2)).verdict == EQUIVALENT


def test_sidepass_round_trip_up_to_cancellation():
    d = parse_surface("genus 1; k: U1+ x1- U2- O3- x1+ O1+ O2- U3- U4+ x1- O4+")
    mv = next(m for m in applicable(d, random.Random(0)) if m.kind == "SidePass")
    c, m, delta = mv.data
    d2 = apply(d, mv)
    d3 = apply(d2, MoveInstance("SidePass", (c, m, -delta)))
    assert parse_line(d3.serialize()) == parse_line(d.serialize())


def test_sidepass_on_essential_kink_is_neutral():
    # the lone crossing of an essential kink can pass through the side
    # without changing the code: every inserted token cancels
    d = parse_surface("genus 1; k: O1+ x1+ U1+")
    for delta in (1, -1):
        d2 = apply(d, MoveInstance("SidePass", (1, 1, delta)))
        assert d2 == d


def test_apply_rejects_stale_sites():
    d = parse_gauss("t: O1- U2- O3- U1- O2- U3-")
    with pytest.raises(MoveNotApplicable):
        apply(d, MoveInstance("R1-", (0, 1)))
    with pytest.raises(MoveNotApplicable):
        apply(d, MoveInstance("Subdivide", (99,)))
    with pytest.raises(MoveNotApplicable):
        apply(parse_gauss("u:"), MoveInstance("Subdivide", (0,)))


def test_apply_rejects_non_sites_and_malformed_data():
    # three disjoint adjacent pairs that carry no triangle pattern, indices
    # past the end, and data of the wrong shape or type
    d = parse_gauss("k: O1+ U2+ O3+ U1+ O2+ U3+")
    bad = [
        ("R3", ((0, 1), (2, 3), (4, 5))),
        ("R1-", (7, 2)),
        ("R1-", (-1, 0)),
        ("R2-", ((7, 0), (1, 2))),
        ("R3", ((7, 0), (1, 2), (3, 4))),
        ("R1-", ("0", "1")),
        ("R1-", (0.0, 1)),
        ("R1-", (True, 1)),
        ("R1-", 0),
        ("R1-", ()),
        ("R1-", None),
        ("R2-", (0, 1, 2, 3)),
        ("R2-", ((0, 1),)),
        ("R2-", [(0, 1), (3, 4)]),
        ("R3", (0, 1)),
        ("R3", ((0, 1), (2, 3))),
        ("R3", (((0, 1),), (2, 3), (4, 5))),
    ]
    for kind, data in bad:
        with pytest.raises(MoveNotApplicable):
            apply(d, MoveInstance(kind, data))
    with pytest.raises(MoveNotApplicable):
        apply(parse_gauss("u:"), MoveInstance("R1-", (0, 1)))


def test_apply_rejects_malformed_insertion_data():
    # each bad instance breaks one of the good ones below in its shape, the
    # type of a field, or the range of an order, sign or delta
    d = parse_surface("genus 1; k: O1+ x1+ U1+")
    good = [
        ("R1+", (0, "OU", 1)),
        ("R2+", (0, 1, True, False, -1)),
        ("SidePass", (1, 1, -1)),
        ("Subdivide", (1,)),
    ]
    for kind, data in good:
        apply(d, MoveInstance(kind, data))
    bad = [
        ("R1+", 5),
        ("R1+", (0, "OU")),
        ("R1+", [0, "OU", 1]),
        ("R1+", (0.0, "OU", 1)),
        ("R1+", (True, "OU", 1)),
        ("R1+", (0, "OO", 1)),
        ("R1+", (0, "UU", 1)),
        ("R1+", (0, "OU", 7)),
        ("R1+", (0, "OU", 1.0)),
        ("R2+", (0, 1)),
        ("R2+", (0, 1.5, True, False, -1)),
        ("R2+", (0, 1, 1, False, -1)),
        ("R2+", (0, 1, True, False, 0)),
        ("SidePass", (1, 1)),
        ("SidePass", (1, 1, 7)),
        ("SidePass", (1, 1, True)),
        ("SidePass", ("1", 1, 1)),
        ("Subdivide", ("x",)),
        ("Subdivide", (1.0,)),
        ("Subdivide", 1),
    ]
    for kind, data in bad:
        with pytest.raises(MoveNotApplicable):
            apply(d, MoveInstance(kind, data))


def test_apply_rejects_every_unlisted_removal_site():
    # random adjacent pairs of random 3-6-crossing codes: apply accepts an
    # R1-, R2- or R3 instance exactly when applicable lists it
    rng = random.Random(10)
    rejected = 0
    for _ in range(300):
        d = random_diagram(rng, rng.randint(3, 6), rng.randint(0, 1))
        n = len(d.tokens)
        listed = set(applicable(d, random.Random(0)))
        pairs = [(i, (i + 1) % n) for i in rng.sample(range(n), 3)]
        for mv in (
            MoveInstance("R1-", pairs[0]),
            MoveInstance("R2-", tuple(pairs[:2])),
            MoveInstance("R3", tuple(pairs)),
        ):
            if mv in listed:
                apply(d, mv)
                continue
            rejected += 1
            with pytest.raises(MoveNotApplicable):
                apply(d, mv)
    assert rejected > 800


def _plant_r3(rng, d):
    """Splice the three pairs of an R3 pattern, form L (the braid pattern of
    test_r3_swap_on_braid_pattern) or its mirror form R, on three fresh
    crossings into random gaps; one time in four the signs are random."""
    a, b, c = (max(d.crossings, default=0) + k for k in (1, 2, 3))
    sign = rng.choice((1, -1))
    sa, sb, sc = (rng.choice((1, -1)) for _ in range(3)) if rng.random() < 0.25 else (sign,) * 3
    o_a, o_b, o_c = Passage(a, True, sa), Passage(b, True, sb), Passage(c, True, sc)
    u_a, u_b, u_c = Passage(a, False, sa), Passage(b, False, sb), Passage(c, False, sc)
    if rng.random() < 0.5:
        pairs = [[o_a, o_b], [u_a, o_c], [u_b, u_c]]
    else:
        pairs = [[o_b, o_a], [o_c, u_a], [u_c, u_b]]
    toks = list(d.tokens)
    gaps = sorted((rng.randint(0, len(toks)) for _ in pairs), reverse=True)
    rng.shuffle(pairs)
    for gap, pair in zip(gaps, pairs):
        toks[gap:gap] = pair
    return Diagram(d.name, d.genus, tuple(toks))


def _plant_r2(rng, d):
    n = len(d.tokens)
    spec = (rng.randint(0, n), rng.randint(0, n), rng.random() < 0.5, rng.random() < 0.5,
            rng.choice((1, -1)))
    return apply(d, MoveInstance("R2+", spec))


def test_sites_and_moves_match_the_pairwise_oracle():
    # seeded diagrams of 0-14 crossings at genus 0-2 with planted R2 and R3
    # sites: the index finds the oracle's instances in the oracle's order,
    # and apply gives the oracle's diagram for each
    counts = {}
    for seed in range(1500):
        rng = random.Random(seed)
        d = random_diagram(rng, rng.randint(0, 14), rng.randint(0, 2))
        for _ in range(rng.randint(0, 2)):
            d = _plant_r2(rng, d)
        for _ in range(rng.randint(0, 2)):
            d = _plant_r3(rng, d)
        moves = applicable(d, random.Random(seed))
        assert moves == oracle.applicable(d, random.Random(seed))
        for mv in moves:
            counts[mv.kind] = counts.get(mv.kind, 0) + 1
            assert apply(d, mv) == oracle.apply(d, mv), mv
    assert counts["R1-"] > 500 and counts["R2-"] > 500 and counts["R3"] > 500
    assert counts["SidePass"] > 500


def test_side_cancellation_matches_the_restart_oracle():
    # random words with inverse pairs already adjacent and nested pairs
    # straddling the basepoint; passages and vertices never cancel
    rng = random.Random(11)
    letters = [SideToken(m, e) for m in (1, 2) for e in (1, -1)]
    letters += [Passage(1, True, 1), Vertex(1)]
    for _ in range(20000):
        toks = [rng.choice(letters) for _ in range(rng.randint(0, 10))]
        for _ in range(rng.randint(0, 2)):
            x = rng.choice(letters[:4])
            k = rng.randint(0, len(toks))
            toks[k:k] = [x, SideToken(x.side, -x.sign)]
        for _ in range(rng.randint(0, 3)):
            x = rng.choice(letters[:4])
            toks = [x, *toks, SideToken(x.side, -x.sign)]
        assert _cancel_side_pairs(toks) == oracle._cancel_side_pairs(toks), toks


def test_apply_preserves_validity_and_ids():
    rng = random.Random(4)
    for _ in range(30):
        d = random_diagram(rng, rng.randint(1, 6), rng.randint(0, 2))
        for mv in applicable(d, rng):
            d2 = apply(d, mv)  # Diagram construction re-validates
            if mv.kind in ("R3", "SidePass", "Subdivide"):
                assert set(d2.crossings) == set(d.crossings)
            elif mv.kind in ("R1+", "R2+"):
                assert set(d.crossings) <= set(d2.crossings)
            else:
                assert set(d2.crossings) <= set(d.crossings)


def test_verify_deterministic_and_clean():
    rep1 = verify_invariance(seed=42, trials=12, max_crossings=5, genus=1, invariant="s")
    rep2 = verify_invariance(seed=42, trials=12, max_crossings=5, genus=1, invariant="s")
    assert json.dumps(rep1.to_json()) == json.dumps(rep2.to_json())
    assert rep1.ok
    rep3 = verify_invariance(seed=43, trials=12, max_crossings=5, invariant="nprime")
    assert rep3.ok
    assert "zero counterexamples" in rep3.render()


def test_verify_report_json_key_order():
    rep = moves.VerifyReport(3, 2, "s", 4, 1)
    rep.by_kind.update({"R2+": 1, "R1-": 2})
    rep.counterexamples.append((1, "k: O1+ U1+", "R1-(0, 1)", "axiom", "detail"))
    data = rep.to_json()
    assert list(data) == [
        "seed", "trials", "invariant", "max_crossings", "genus", "moves_checked",
        "by_kind", "compares", "skipped_boundary", "counterexamples", "ok",
    ]
    assert list(data["by_kind"]) == ["R1-", "R2+"]
    assert data["counterexamples"] == [
        {"trial": 1, "diagram": "k: O1+ U1+", "move": "R1-(0, 1)", "what": "axiom", "detail": "detail"}
    ]
    assert list(data["counterexamples"][0]) == ["trial", "diagram", "move", "what", "detail"]
    assert data["ok"] is False


def test_verify_rejects_out_of_range_arguments(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a diagram")

    monkeypatch.setattr(moves, "random_diagram", no_draw)
    bad = [
        {"max_crossings": 0},
        {"max_crossings": MAX_CROSSINGS + 1},
        {"max_crossings": 11000},
        {"max_crossings": 2.0},
        {"max_crossings": 5, "genus": -1},
        {"max_crossings": 5, "genus": MAX_GENUS + 1},
        {"max_crossings": 5, "genus": 1.0},
        {"max_crossings": 5, "genus": -1, "invariant": "nprime"},
        {"max_crossings": 5, "invariant": "bogus"},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            verify_invariance(0, 1, **kwargs)
    for trials in (0, -5, 2.0, True):
        with pytest.raises(ValueError):
            verify_invariance(0, trials, 3)


def test_r2_plus_forced_odd_pair_on_virtual_trefoil():
    from knotparity.invariant import nprime_invariant
    from knotparity.parity import hierarchy_types, parity_map

    d = parse_gauss("v: O1+ O2+ U1+ U2+")
    d2 = apply(d, MoveInstance("R2+", (1, 3, True, True, 1)))
    par = parity_map(d2)
    new = sorted(set(d2.crossings) - set(d.crossings))
    assert [par[c] for c in new] == ["odd", "odd"]
    assert all(t == 0 for t in hierarchy_types(d2).values())
    # both diagrams have empty matrices, so both values are the empty det
    assert nprime_invariant(d).element == nprime_invariant(d2).element


def test_empty_diagram_boundary_is_outside_the_invariance_statement():
    # the 0-crossing code has the empty matrix (determinant 1), while its
    # one-kink neighbour has a single row that sums to zero; the polynomial
    # is only an invariant once the matrix is nonempty, and the harness
    # counts such comparisons as skipped rather than as counterexamples
    empty = parse_surface("genus 0; u:")
    kink = apply(empty, MoveInstance("R1+", (0, "OU", 1)))
    assert s_invariant(empty).render() == "1"
    assert s_invariant(kink).det.is_zero
    rep = verify_invariance(seed=1, trials=1, max_crossings=1, invariant="s")
    assert rep.ok


def test_random_diagram_shape():
    rng = random.Random(8)
    d = random_diagram(rng, 5, 2)
    assert len(d.crossings) == 5
    passages = [t for t in d.tokens if isinstance(t, Passage)]
    assert len(passages) == 10
    sides = [t for t in d.tokens if isinstance(t, SideToken)]
    assert all(1 <= t.side <= 4 for t in sides)
