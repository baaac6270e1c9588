"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line when its
assertions hold (run with ``pytest -s tests/test_acceptance.py`` to see
them).  The randomized criteria use fixed seeds and are fully deterministic.
"""

import pathlib
import random
import time

import pytest

from knotparity.diagram import parse_file, parse_gauss, parse_surface
from knotparity.invariant import (
    DISTINCT,
    compare,
    normalize,
    nprime_invariant,
    s_invariant,
)
from knotparity.matrix import build_M
from knotparity.moves import verify_invariance
from knotparity.parity import EVEN, parity_map
from knotparity.rings import (
    LaurentPoly,
    det,
    g_ring,
    rprime_ring,
)

from det_oracle import cofactor_det

from test_invariant import S_112, S_113BAR
from test_matrix import _expected_m_112, _expected_m_113bar
from test_rings import (
    divides_exactly,
    full_rows,
    naive_fixpoint_pair,
    rand_elem,
    rand_matrix_elem,
    rand_raw,
    uc_poly,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

SUITE_TRIALS = 500
SUITE_MAX_CROSSINGS = 8
SUITE_GENUS = 2


@pytest.fixture(scope="module")
def torus_pair():
    diagrams, _ = parse_file(FIXTURES / "torus_pair.surf")
    return {d.name: d for d in diagrams}


@pytest.fixture(scope="module")
def report_s():
    t0 = time.time()
    rep = verify_invariance(
        seed=20240801,
        trials=SUITE_TRIALS,
        max_crossings=SUITE_MAX_CROSSINGS,
        genus=SUITE_GENUS,
        invariant="s",
    )
    return rep, time.time() - t0


@pytest.fixture(scope="module")
def report_nprime():
    t0 = time.time()
    rep = verify_invariance(
        seed=20240802,
        trials=SUITE_TRIALS,
        max_crossings=SUITE_MAX_CROSSINGS,
        invariant="nprime",
    )
    return rep, time.time() - t0


def test_criterion_1_census_pair_reproduction(torus_pair):
    t0 = time.time()
    m112 = build_M(torus_pair["1.12"], parity_map(torus_pair["1.12"]))
    m113 = build_M(torus_pair["1.13bar"], parity_map(torus_pair["1.13bar"]))
    assert [list(r) for r in m112.entries] == _expected_m_112()
    assert [list(r) for r in m113.entries] == _expected_m_113bar()
    v112 = s_invariant(torus_pair["1.12"])
    v113 = s_invariant(torus_pair["1.13bar"])
    assert v112.det == S_112
    assert v113.det == S_113BAR
    assert v112.element == normalize(S_112)[0]
    assert v113.element == normalize(S_113BAR)[0]
    assert compare(v112, v113).verdict == DISTINCT
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1: PASS (matrices entry-for-entry, polynomials exact, "
        f"Distinct, {elapsed:.2f}s)"
    )


def test_criterion_2_parity_fixture(torus_pair):
    for d in torus_pair.values():
        par = parity_map(d)
        assert set(par.values()) == {EVEN}
    print("\nACCEPTANCE 2: PASS (all crossings of both census diagrams even)")


def test_criterion_3_surface_invariance_suite(report_s):
    rep, elapsed = report_s
    inv_fail = [c for c in rep.counterexamples if c[3] == "invariance"]
    assert rep.trials == SUITE_TRIALS
    assert inv_fail == []
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 3: PASS ({rep.compares} comparisons over "
        f"{rep.moves_checked} moves in {elapsed:.0f}s, {rep.skipped_boundary} "
        f"empty-matrix boundary cases skipped, zero counterexamples)"
    )


def test_criterion_4_gauss_invariance_suite(report_nprime):
    rep, elapsed = report_nprime
    inv_fail = [c for c in rep.counterexamples if c[3] == "invariance"]
    assert rep.trials == SUITE_TRIALS
    assert inv_fail == []
    print(
        f"\nACCEPTANCE 4: PASS ({rep.compares} comparisons over "
        f"{rep.moves_checked} moves in {elapsed:.0f}s, {rep.skipped_boundary} "
        f"empty-matrix boundary cases skipped, zero counterexamples)"
    )


def test_criterion_5_parity_and_type_axioms(report_s, report_nprime):
    for rep, _ in (report_s, report_nprime):
        axiom_fail = [c for c in rep.counterexamples if c[3] == "axiom"]
        assert axiom_fail == []
    total = report_s[0].moves_checked + report_nprime[0].moves_checked
    print(f"\nACCEPTANCE 5: PASS (parity/type axioms hold across all {total} moves)")


def test_criterion_6_ring_correctness():
    rng = random.Random(600)
    rings = [g_ring(1), rprime_ring()]
    for i in range(1000):
        ring = rings[i % 2]
        a, b, c = (rand_elem(rng, ring, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    rng = random.Random(601)
    for i in range(200):
        ring = rings[i % 2]
        raw = rand_raw(rng, ring)
        elem = ring.from_raw(raw)
        a_fix, b_fix = naive_fixpoint_pair(ring, raw)
        assert b_fix == elem.b
        assert divides_exactly(uc_poly(elem.a.vars), a_fix - elem.a)
    print(
        "\nACCEPTANCE 6: PASS (1000 associativity/distributivity triples, "
        "200 normal forms against the rewrite-to-fixpoint oracle, exact)"
    )


def test_criterion_7_determinant_correctness():
    ring = g_ring(1)
    rng = random.Random(700)
    for i in range(100):
        n = (i % 6) + 1
        m = [[rand_matrix_elem(rng, ring) for _ in range(n)] for _ in range(n)]
        assert det(full_rows(m), ring) == cofactor_det(m, ring)
    for n in range(0, 9):
        eye = [
            [ring.element() if i == j else ring.zero() for j in range(n)]
            for i in range(n)
        ]
        assert det(full_rows(eye), ring) == ring.element()
    for _ in range(5):
        m = [[rand_matrix_elem(rng, ring) for _ in range(5)] for _ in range(5)]
        swapped = [m[2], m[1], m[0], m[3], m[4]]
        assert det(full_rows(swapped), ring) == -det(full_rows(m), ring)
    print(
        "\nACCEPTANCE 7: PASS (100 matrices sizes 1-6 vs cofactor oracle, "
        "identity 0-8, row-swap antisymmetry, exact)"
    )


def test_criterion_8_analytic_sanity():
    # nonempty genus-0 all-even diagrams have rows summing to zero
    all_even = [
        parse_gauss("kink: O1+ U1+"),
        parse_gauss("trefoil: O1- U2- O3- U1- O2- U3-"),
        parse_gauss("four1: O1+ U2- O3+ U4- O2- U1+ O4- U3+"),
        parse_gauss("nested: O1+ O2- U2- U1+"),
    ]
    from knotparity.moves import random_diagram

    rng = random.Random(800)
    found = 0
    while found < 25:
        d = random_diagram(rng, rng.randint(1, 6), 0)
        if set(parity_map(d).values()) == {EVEN}:
            all_even.append(d)
            found += 1
    for d in all_even:
        par = parity_map(d)
        assert set(par.values()) == {EVEN}, d.name
        assert s_invariant(d).det.is_zero, d.name
    assert nprime_invariant(parse_gauss("t: O1- U2- O3- U1- O2- U3-")).det.is_zero
    assert nprime_invariant(parse_gauss("v: O1+ O2+ U1+ U2+")).render() == "1"
    assert s_invariant(parse_surface("genus 0; u:")).render() == "1"
    print(
        "\nACCEPTANCE 8: PASS (genus-0 all-even s=0, trefoil n'=0, "
        "virtual trefoil n'=1, empty unknot s=1)"
    )
