"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s``) and enforces
the criterion's runtime budget with wall-clock measurements of uncached
computations.  All equality checks are exact; there are no tolerances.
"""

import math
import random
import time
from fractions import Fraction

from quonalg import linalg
from quonalg.colored_perm import (
    ColoredPermutation,
    act,
    cinv,
    enumerate_arrangements,
    enumerate_group,
)
from quonalg.exact_arith import Polynomial
from quonalg.formulas import _color_part, det_closed_form, regular_block_det, verify_inverse
from quonalg.gram import _build_gram_cached, build_gram
from quonalg.group_algebra import (
    GroupAlgebraElement,
    cinv_sum,
    ga_mul,
    rep_matrix,
)
from quonalg.posdef import POSITIVE_DEFINITE, SINGULAR, interval_of_definiteness, scan
from quonalg.quon_engine import vacuum_expectation

from golden_block import GOLDEN_M3_N2_EXPONENTS
from lemmas import all_shifts_sum, at_position, decompose, inverse, single_shift_inverse

P = Polynomial
ONE = P.one()
Q = P.q()


def _report(number, message, elapsed):
    print(f"ACCEPTANCE {number}: PASS - {message} [{elapsed:.3f}s]")


def test_criterion_1_worked_expectation_under_one_ms():
    bra = ((2, 4), (5, 1), (2, 4))
    ket = ((5, 2), (2, 3), (2, 1))
    value = vacuum_expectation(bra, ket, 4)  # warm-up, also checks the value
    assert str(value) == "q^4 + q^5"
    best = min(_timed_expectation(bra, ket) for _ in range(5))
    assert best < 1e-3, f"{best * 1e3:.3f} ms"
    _report(1, f'worked example renders "q^4 + q^5" in {best * 1e6:.0f} us', best)


def _timed_expectation(bra, ket):
    start = time.perf_counter()
    value = vacuum_expectation(bra, ket, 4)
    elapsed = time.perf_counter() - start
    assert str(value) == "q^4 + q^5"
    return elapsed


def test_criterion_2_golden_block_entry_exact_under_one_second():
    start = time.perf_counter()
    block = _build_gram_cached.__wrapped__(3, (1, 2), "operator")
    elapsed = time.perf_counter() - start
    assert block.size == 18
    for i in range(18):
        for j in range(18):
            assert block.entries[i][j] == Q ** GOLDEN_M3_N2_EXPONENTS[i][j], (i, j)
    assert elapsed < 1.0
    _report(2, "printed 18x18 block reproduced entry-for-entry", elapsed)


def test_criterion_3_three_way_agreement_under_30s():
    cases = [
        (1, (1, 2)),
        (1, (1, 2, 3)),
        (2, (1, 2)),
        (2, (1, 2, 3)),
        (3, (1, 2)),
        (2, (2, 2)),
        (2, (2, 2, 5)),
        (3, (1, 2, 3)),
        (2, (1, 1, 2, 3)),
        (2, (1, 2, 3, 4)),
    ]
    start = time.perf_counter()
    for m, multiset in cases:
        operator_block = _build_gram_cached.__wrapped__(m, multiset, "operator")
        combinatorial_block = _build_gram_cached.__wrapped__(m, multiset, "combinatorial")
        representation = rep_matrix(cinv_sum(m, len(multiset)), multiset)
        assert operator_block.entries == combinatorial_block.entries, (m, multiset)
        assert operator_block.basis == representation.basis
        assert operator_block.entries == representation.entries, (m, multiset)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"operator = counting = representation on {len(cases)} blocks", elapsed)


def test_criterion_4_determinant_oracle_under_3min():
    # (4,2), (5,2) and (3,3) split into three or more tensor factors
    cases = [(1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3),
             (4, 2), (5, 2), (3, 3)]
    start = time.perf_counter()
    for m, n in cases:
        assert regular_block_det(m, n) == det_closed_form(m, n), (m, n)
    # the flat color exponent m**n * n! contradicts the (2, 1) oracle
    flat = ((ONE + Q) * (ONE - Q)) ** 2
    assert flat != regular_block_det(2, 1)
    assert det_closed_form(2, 1) == ONE - Q**2
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    _report(4, f"determinant closed form matches Bareiss on {len(cases)} blocks, "
               "flat color exponent refuted at (2,1)", elapsed)


def test_criterion_5_closed_form_inverse_two_sided_under_2min():
    cases = [(1, 2), (1, 3), (2, 1), (2, 2), (3, 2), (2, 3), (1, 5), (3, 3), (2, 4),
             (1, 6), (3, 4), (2, 5)]
    start = time.perf_counter()
    for m, n in cases:
        assert verify_inverse(m, n), (m, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, f"closed-form inverse verified two-sidedly on {len(cases)} cases", elapsed)


def test_criterion_6_cyclic_closed_forms_under_1s():
    start = time.perf_counter()
    for m in range(1, 7):
        z = Q
        rep = rep_matrix(all_shifts_sum(m, z), (1,))
        assert linalg.poly_det(rep.entries) == det_closed_form(m, 1)
        # each inverse is a numerator over a scalar denominator d
        e = GroupAlgebraElement.identity(m, 1)
        inverse, d = _color_part(m, 1), (ONE + (m - 1) * z) * (ONE - z)
        assert ga_mul(all_shifts_sum(m, z), inverse) == e.scale(d)
        assert ga_mul(inverse, all_shifts_sum(m, z)) == e.scale(d)
        shift = ColoredPermutation(m, (1,), (1,))
        one_minus_shift = e - GroupAlgebraElement.from_element(shift, z)
        inverse, d = single_shift_inverse(m, z)
        assert ga_mul(one_minus_shift, inverse) == e.scale(d)
        assert ga_mul(inverse, one_minus_shift) == e.scale(d)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(6, "circulant determinant and both cyclic inverses verified for m = 1..6",
            elapsed)


def test_criterion_7_coset_power_law():
    rng = random.Random(77)
    start = time.perf_counter()
    checked = 0
    for m, n in [(2, 2), (3, 2)]:
        index = m ** (n - 1) * math.factorial(n)
        full = tuple(range(1, n + 1))
        for pos in range(1, n + 1):
            candidates = [all_shifts_sum(m, Q)]
            terms = {
                ColoredPermutation(m, (1,), (k or m,)): P([rng.randint(-2, 2) for _ in range(2)])
                for k in range(m)
            }
            candidates.append(GroupAlgebraElement(m, 1, terms))
            for small in candidates:
                embedded = at_position(small, n, pos)
                det_big = linalg.poly_det(rep_matrix(embedded, full).entries)
                det_small = linalg.poly_det(rep_matrix(small, (1,)).entries)
                assert det_big == det_small**index
                checked += 1
    elapsed = time.perf_counter() - start
    _report(7, f"coset power law (exponent m^(n-1) n!) on {checked} cyclic elements",
            elapsed)


def test_criterion_8_positive_definiteness_under_1min():
    start = time.perf_counter()
    for m, n in [(1, 2), (1, 3), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4)]:
        lo, hi = interval_of_definiteness(m)
        reports = scan(m, n, lo, hi, 7)
        assert len(reports) == 7
        assert reports[0].q0 == lo and reports[0].verdict == SINGULAR, (m, n)
        assert reports[-1].q0 == hi and reports[-1].verdict == SINGULAR, (m, n)
        interior = reports[1:-1]
        assert len(interior) == 5
        assert all(r.verdict == POSITIVE_DEFINITE for r in interior), (m, n)
        # the determinant vanishes exactly at the endpoints
        det = det_closed_form(m, n)
        assert det.evaluate(lo) == 0 and det.evaluate(hi) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, "five interior points definite, endpoints singular, seven (m,n) pairs",
            elapsed)


def test_criterion_9_property_suites():
    start = time.perf_counter()

    # group axioms, exhaustive for m <= 3, n <= 3, via multiplication tables
    for m in (1, 2, 3):
        for n in (0, 1, 2, 3):
            group = enumerate_group(m, n)
            assert len(group) == m**n * math.factorial(n)
            index = {g: i for i, g in enumerate(group)}
            table = [[index[act(g, h)] for h in group] for g in group]
            neutral_index = index[ColoredPermutation.neutral(m, n)]
            for gi, g in enumerate(group):
                assert table[gi][neutral_index] == gi
                assert table[neutral_index][gi] == gi
                assert table[gi][index[inverse(g)]] == neutral_index
            size = len(group)
            for a in range(size):
                ta = table[a]
                for b in range(size):
                    tab = table[ta[b]]
                    tb = table[b]
                    for c in range(size):
                        assert tab[c] == ta[tb[c]]

    # right action law, exhaustive for m <= 2, n <= 3, on two multisets
    for m in (1, 2):
        for n in (1, 2, 3):
            group = enumerate_group(m, n)
            for multiset in [tuple(range(1, n + 1)), (2,) * n]:
                for theta in enumerate_arrangements(m, multiset):
                    for p1 in group:
                        theta_p1 = act(theta, p1)
                        for p2 in group:
                            assert act(theta_p1, p2) == act(theta, act(p1, p2))

    # cinv additivity of the color decomposition, exhaustive at (2, 3)
    for g in enumerate_group(2, 3):
        perm_part, color_part = decompose(g)
        assert act(perm_part, color_part) == g
        assert cinv(perm_part) + cinv(color_part) == cinv(g)

    # vanishing on mode-multiset mismatch, 1000 randomized word pairs
    rng = random.Random(4242)
    checked = 0
    while checked < 1000:
        m = rng.randint(1, 4)
        bra = tuple((rng.randint(1, 3), rng.randint(1, m)) for _ in range(rng.randint(0, 4)))
        ket = tuple((rng.randint(1, 3), rng.randint(1, m)) for _ in range(rng.randint(0, 4)))
        if sorted(v for v, _ in bra) == sorted(v for v, _ in ket):
            continue
        checked += 1
        assert vacuum_expectation(bra, ket, m) == P.zero()

    # every block built here: symmetric, identity at q = 0
    blocks = [
        build_gram(m, multiset)
        for m, multiset in [
            (1, (1, 2)),
            (1, (1, 2, 3)),
            (2, (1, 2)),
            (2, (1, 2, 3)),
            (3, (1, 2)),
            (2, (2, 2)),
            (2, (2, 2, 5)),
        ]
    ]
    for block in blocks:
        for i in range(block.size):
            for j in range(block.size):
                assert block.entries[i][j] == block.entries[j][i]
                assert block.entries[i][j].evaluate(Fraction(0)) == int(i == j)

    elapsed = time.perf_counter() - start
    _report(9, "group axioms, action law, cinv additivity, 1000 vanishing words, "
               "q=0 identity + symmetry", elapsed)
