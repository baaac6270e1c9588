import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotparity import invariant
from knotparity.cli import run
from knotparity.diagram import parse_file, parse_gauss, parse_line, parse_surface
from knotparity.invariant import (
    DISTINCT,
    EQUIVALENT,
    UnitRecord,
    compare,
    make_value,
    normalize,
    nprime_invariant,
    s_invariant,
)
from knotparity.moves import MoveInstance, apply, random_diagram, verify_invariance
from knotparity.rings import LaurentPoly, QElement, RingMismatch, g_ring, rprime_ring
from test_diagram import renumbered

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

G1 = g_ring(1)


def _embed_tx(termmap):
    """Laurent polynomial in t and x1 as an element of the genus-1 ring."""
    fv = G1.full_vars
    terms = {}
    for (et, ex), coef in termmap.items():
        key = [0] * len(fv)
        key[fv.index("t")] = et
        key[fv.index("x1")] = ex
        terms[tuple(key)] = coef
    return G1.from_raw(LaurentPoly(fv, terms))


S_112 = _embed_tx(
    {
        (1, 0): -2, (2, 0): 4, (3, 0): -1,
        (2, -2): 1, (3, -2): -1,
        (1, -1): 1, (2, -1): -4, (3, -1): 2,
        (1, 1): 1, (2, 1): -1,
    }
)
S_113BAR = _embed_tx(
    {
        (1, 0): -2, (2, 0): 4, (3, 0): -1,
        (1, -1): 1, (2, -1): -1,
        (1, 1): 1, (2, 1): -4, (3, 1): 2,
        (2, 2): 1, (3, 2): -1,
    }
)


@pytest.fixture(scope="module")
def torus_pair():
    diagrams, _ = parse_file(FIXTURES / "torus_pair.surf")
    return {d.name: d for d in diagrams}


def test_s_values_match_census_polynomials(torus_pair):
    v112 = s_invariant(torus_pair["1.12"])
    v113 = s_invariant(torus_pair["1.13bar"])
    # raw determinants reproduce the census polynomials on the nose
    assert v112.det == S_112
    assert v113.det == S_113BAR
    # and the stored canonical forms equal the canonicalized census values
    assert v112.element == normalize(S_112)[0]
    assert v113.element == normalize(S_113BAR)[0]


def test_pair_distinct(torus_pair):
    res = compare(s_invariant(torus_pair["1.12"]), s_invariant(torus_pair["1.13bar"]))
    assert res.verdict == DISTINCT


def test_unknot_and_trefoils():
    assert s_invariant(parse_surface("genus 0; u:")).render() == "1"
    assert nprime_invariant(parse_gauss("t: O1- U2- O3- U1- O2- U3-")).det.is_zero
    assert nprime_invariant(parse_gauss("v: O1+ O2+ U1+ U2+")).render() == "1"


def test_compare_unit_examples(torus_pair):
    v = s_invariant(torus_pair["1.12"])
    t3v = make_value("G", v.det * G1.element(t=3))
    res = compare(v, t3v)
    assert res.verdict == EQUIVALENT
    assert (res.unit.sign, res.unit.t_shift, res.unit.p_shift, res.unit.q_power) == (
        1, 3, 0, 0,
    )
    mpv = make_value("G", v.det * G1.element(-1, p=1))
    res = compare(v, mpv)
    assert res.verdict == EQUIVALENT
    assert (res.unit.sign, res.unit.t_shift, res.unit.p_shift, res.unit.q_power) == (
        -1, 0, 1, 0,
    )


def test_compare_q_unit(torus_pair):
    v = s_invariant(torus_pair["1.12"])
    qv = make_value("G", v.det * G1.element(-1, q=1, t=2))
    res = compare(v, qv)
    assert res.verdict == EQUIVALENT
    assert res.unit.q_power == 1
    # and symmetrically
    res2 = compare(qv, v)
    assert res2.verdict == EQUIVALENT
    assert res2.expressed == "first_from_second"


def test_compare_zero_only_equivalent_to_zero():
    zero = make_value("G", G1.zero())
    one = make_value("G", G1.element())
    assert compare(zero, zero).verdict == EQUIVALENT
    assert compare(zero, one).verdict == DISTINCT
    assert compare(one, zero).verdict == DISTINCT
    # q*(p-t) = 0, so a q-multiple must not let p-t match zero
    p_minus_t = make_value("G", G1.element(p=1) - G1.element(t=1))
    assert (p_minus_t.det * G1.element(q=1)).is_zero
    assert compare(p_minus_t, zero).verdict == DISTINCT
    assert compare(zero, p_minus_t).verdict == DISTINCT


def test_compare_ring_mismatch(torus_pair):
    v = s_invariant(torus_pair["1.12"])
    n = nprime_invariant(parse_gauss("v: O1+ O2+ U1+ U2+"))
    with pytest.raises(RingMismatch):
        compare(v, n)
    # s values of two genera: the message tells the rings apart
    genus0 = s_invariant(parse_surface("genus 0; c:"))
    with pytest.raises(RingMismatch, match=r"^QuotientRing\(G, x1, x2\) vs QuotientRing\(G\)$"):
        compare(v, genus0)


def test_verify_rejects_a_wrong_witness(torus_pair):
    v = s_invariant(torus_pair["1.12"]).det
    qv = v * G1.element(-1, q=1, t=2)
    invariant._verify(v, qv, UnitRecord(-1, 2, 0, 1))
    for wrong in (UnitRecord(1, 2, 0, 1), UnitRecord(-1, 2, 0, 0), UnitRecord(-1, 1, 0, 1), UnitRecord(-1, 2, 1, 1)):
        with pytest.raises(AssertionError, match="unit witness failed verification"):
            invariant._verify(v, qv, wrong)


def _rand_elem(rng, ring):
    raw = LaurentPoly.zero(ring.full_vars)
    for _ in range(rng.randint(1, 4)):
        exps = {
            v: (rng.randint(0, 2) if v == "q" else rng.randint(-2, 2))
            for v in ring.full_vars
        }
        raw = raw + LaurentPoly.monomial(ring.full_vars, rng.randint(-3, 3), **exps)
    return ring.from_raw(raw)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_canonicalization_idempotent_and_unit_stable(seed):
    rng = random.Random(seed)
    ring = G1 if seed % 2 == 0 else rprime_ring()
    x = _rand_elem(rng, ring)
    w, rec = normalize(x)
    w2, rec2 = normalize(w)
    assert w2 == w and (rec2.sign, rec2.t_shift, rec2.p_shift) == (1, 0, 0)
    sign = rng.choice((1, -1))
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    assert normalize(x * ring.element(sign, t=a, p=b))[0] == w


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compare_finds_planted_units(seed):
    rng = random.Random(seed)
    ring = G1 if seed % 2 == 0 else rprime_ring()
    x = _rand_elem(rng, ring)
    if x.is_zero:
        return
    sign = rng.choice((1, -1))
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    gamma = rng.choice((0, 1))
    y = x * ring.element(sign, q=gamma, t=a, p=b)
    tag = ring.tag
    res = compare(make_value(tag, x), make_value(tag, y))
    if y.is_zero:
        assert res.verdict == DISTINCT
        return
    assert res.verdict == EQUIVALENT
    # reflexivity and symmetry
    assert compare(make_value(tag, x), make_value(tag, x)).verdict == EQUIVALENT
    assert compare(make_value(tag, y), make_value(tag, x)).verdict == EQUIVALENT


def test_subdivision_metamorphic(torus_pair):
    rng = random.Random(17)
    for d in torus_pair.values():
        v = s_invariant(d)
        for _ in range(3):
            gap = rng.randint(0, len(d.tokens))
            d2 = apply(d, MoveInstance("Subdivide", (gap,)))
            assert compare(v, s_invariant(d2)).verdict == EQUIVALENT


def test_detour_style_renumbering_gives_equal_canonical_values():
    rng = random.Random(23)
    for _ in range(10):
        d = random_diagram(rng, rng.randint(1, 6), 0)
        ids = d.crossings
        perm = ids[:]
        rng.shuffle(perm)
        d2 = parse_line(renumbered(d, dict(zip(ids, perm))).serialize())
        assert nprime_invariant(d2).element == nprime_invariant(d).element
        for k in range(len(d.tokens)):
            assert nprime_invariant(d.rotated(k)).element == nprime_invariant(d).element


def test_deciding_never_builds_the_canonical_pair(torus_pair, monkeypatch, capsys):
    """Only printing normalizes: values, compare and verify decide on the
    determinants' images and never rebuild the canonical pair."""

    def no_pair(self):
        raise AssertionError("built the canonical pair")

    monkeypatch.setattr(QElement, "canonical_pair", no_pair)
    for invariant in ("s", "nprime"):
        report = verify_invariance(5, 6, 6, 2, invariant)
        assert report.ok and report.compares > 0
    v112, v113 = s_invariant(torus_pair["1.12"]), s_invariant(torus_pair["1.13bar"])
    assert compare(v112, v113).verdict == DISTINCT
    assert compare(v113, v113).verdict == EQUIVALENT
    res = compare(v112, make_value("G", v112.det * G1.element(-1, q=1, t=2)))
    assert (res.verdict, res.unit.q_power) == (EQUIVALENT, 1)
    path = str(FIXTURES / "torus_pair.surf")
    assert run(["compare", path, "1.12", "1.13bar"]) == 0
    assert capsys.readouterr().out.strip() == DISTINCT
    assert run(["compare", path, "1.12", "1.12", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == EQUIVALENT
    path = str(FIXTURES / "sample.gauss")
    assert run(["compare", path, "vtrefoil", "four1", "--type", "nprime", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == DISTINCT


def test_verify_shifts_each_value_once(monkeypatch):
    """``verify_invariance`` compares one before-value with every move's
    after-value; each value's determinant is shifted at most once."""
    values, shifted = [], []
    make_value, shift = invariant.make_value, invariant._shifted

    def spy_make_value(tag, elem):
        values.append(make_value(tag, elem))
        return values[-1]

    def spy_shifted(elem):
        shifted.append(elem)
        return shift(elem)

    monkeypatch.setattr(invariant, "make_value", spy_make_value)
    monkeypatch.setattr(invariant, "_shifted", spy_shifted)
    compares = 0
    for kind in ("s", "nprime"):
        rep = verify_invariance(seed=5, trials=12, max_crossings=6, genus=2, invariant=kind)
        assert rep.ok
        compares += rep.compares
    # more compares than trials: some before-value met several after-values
    assert compares > 2 * 12
    assert max(sum(elem is value.det for elem in shifted) for value in values) == 1


def test_each_printed_value_is_sorted_once(monkeypatch, capsys):
    """``normalize`` reads the printed order of a value's terms to fix its
    sign, and ``render`` prints in that same order: one ``graded`` call per
    printed value, in the text and the JSON output alike."""
    calls = []
    graded = LaurentPoly.graded

    def spy(self):
        calls.append(self)
        return graded(self)

    monkeypatch.setattr(LaurentPoly, "graded", spy)
    for fixture, kind in (("torus_pair.surf", "s"), ("sample.gauss", "nprime"), ("sample.gauss", "s")):
        path = str(FIXTURES / fixture)
        count = len(parse_file(path)[0])
        for extra in ([], ["--json"]):
            calls.clear()
            assert run(["invariant", "--type", kind, *extra, path]) == 0
            out = capsys.readouterr().out
            assert len(calls) == count and out.count("\n") >= count


def test_parity_pair_certificate():
    """``fixtures/parity_pair.surf``: two genus-1 diagrams whose two
    crossings are both odd.  Their ``s`` values are distinct up to units,
    while the determinants built with every crossing even agree and are
    nonzero, so the parity rows separate them.  A computed certificate, not
    a figure from the paper."""
    from knotparity.matrix import build_M
    from knotparity.parity import EVEN, ODD, parity_map

    diagrams, errors = parse_file(FIXTURES / "parity_pair.surf")
    assert not errors and [d.name for d in diagrams] == ["a", "b"]
    assert all(set(parity_map(d).values()) == {ODD} and len(d.crossings) == 2 for d in diagrams)
    a, b = diagrams
    assert compare(s_invariant(a), s_invariant(b)).verdict == DISTINCT
    even = [make_value("G", build_M(d, {c: EVEN for c in d.crossings}).det()) for d in diagrams]
    assert [v.render() for v in even] == ["t^2*x1 - t^2 - t*x1 + t + x1 - 1"] * 2
    assert compare(*even).verdict == EQUIVALENT
    assert not even[0].det.is_zero
