import math

import pytest

from quonalg import linalg
from quonalg.colored_perm import ColoredPermutation
from quonalg.exact_arith import Polynomial, RationalFunction
from quonalg.formulas import (
    _difference_product,
    _geometric_product,
    det_closed_form,
    det_factorization,
    inverse_closed_form,
    regular_block_det,
    verify_inverse,
)
from quonalg.gram import build_gram
from quonalg.group_algebra import (
    GroupAlgebraElement,
    all_shifts_inverse,
    cinv_sum,
    embed_single_position,
    ga_mul,
    product_chain,
    rep_matrix,
)

from lemmas import all_shifts_sum, factor_sum

P = Polynomial
ONE = P.one()
Q = P.q()
RF = RationalFunction


@pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_det_closed_form_matches_bruteforce(m, n):
    assert regular_block_det(m, n) == det_closed_form(m, n)


def test_det_specific_forms():
    assert det_closed_form(2, 1) == ONE - Q**2
    assert det_closed_form(1, 2) == ONE - Q**2
    assert det_closed_form(3, 2) == ((ONE + 2 * Q) * (ONE - Q) ** 2) ** 12 * (ONE - Q**2) ** 9


def test_det_closed_form_is_cached_per_m_and_n():
    for m, n in [(2, 2), (1, 4), (3, 2)]:
        first = det_closed_form(m, n)
        assert det_closed_form(m, n) is first
        assert first == det_factorization(m, n).expand()


def test_det_closed_form_through_the_tensor_product():
    # det(A (x) B) = det(A)**size(B) * det(B)**size(A), with the regular block
    # = Q_n (x) K (x) ... (x) K: a route that shares no code with formulas.
    for m, n in [(2, 2), (3, 2), (2, 3), (4, 2), (5, 2), (3, 3)]:
        det_q = linalg.poly_det(build_gram(1, tuple(range(1, n + 1))).entries)
        det_k = (ONE - Q) ** (m - 1) * (ONE + (m - 1) * Q)
        expected = det_q ** (m**n) * det_k ** (n * m ** (n - 1) * math.factorial(n))
        assert det_closed_form(m, n) == expected, (m, n)


def test_flat_color_exponent_fails_the_oracle():
    # raising the circulant factor to the full group order would give
    # (1 - q^2)^2 at one position with two colors; the true block is 2x2
    # with determinant 1 - q^2
    oracle = regular_block_det(2, 1)
    assert oracle == ONE - Q**2
    flat = ((ONE + Q) * (ONE - Q)) ** 2
    assert flat != oracle


def test_one_color_reduces_to_cycle_factors():
    for n in range(2, 5):
        expected = P.one()
        for i in range(1, n):
            step = i * i + i
            expected = expected * (ONE - Q**step) ** ((n - i) * math.factorial(n) // step)
        assert det_closed_form(1, n) == expected


def test_det_factorization_structure():
    fact = det_factorization(3, 2)
    assert fact.color_base == (ONE + 2 * Q) * (ONE - Q) ** 2
    assert fact.color_exponent == 12
    assert fact.perm_factors == ((ONE - Q**2, 9),)
    assert fact.expand() == det_closed_form(3, 2)
    assert "(1 - q^2)^9" in fact.factored_str()


def test_det_roots_at_the_interval_endpoints():
    for m, n in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        det = det_closed_form(m, n)
        assert det.evaluate(1) == 0
        if m >= 2:
            from fractions import Fraction

            assert det.evaluate(Fraction(1, 1 - m)) == 0


def test_poly_det_on_gram_blocks():
    block = build_gram(3, (1, 2))
    assert linalg.poly_det(block.entries) == det_closed_form(3, 2)
    block = build_gram(1, (1, 2))
    assert linalg.poly_det(block.entries) == ONE - Q**2


def test_factor_sum():
    for m, n in [(1, 3), (2, 2), (3, 1), (2, 3)]:
        perm_sum, color_sum = factor_sum(m, n)
        assert ga_mul(perm_sum, color_sum) == cinv_sum(m, n)
        product_form = product_chain(
            [
                embed_single_position(all_shifts_sum(m, Q), n, pos)
                for pos in range(1, n + 1)
            ]
        )
        assert product_form == color_sum
    # one color: the color factor is trivial
    perm_sum, color_sum = factor_sum(1, 3)
    assert color_sum == GroupAlgebraElement.identity(1, 3)


def test_factor_sum_single_position_three_colors():
    _, color_sum = factor_sum(3, 1)
    from quonalg.group_algebra import cyclic_shift

    assert color_sum.coeff(ColoredPermutation.neutral(3, 1)) == ONE
    assert color_sum.coeff(cyclic_shift(3, 1)) == Q
    assert color_sum.coeff(cyclic_shift(3, 2)) == Q


@pytest.mark.parametrize(
    "m,n", [(1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 2), (2, 3), (1, 5), (3, 3)]
)
def test_verify_inverse_two_sided(m, n):
    assert verify_inverse(m, n)


def test_verify_inverse_takes_no_gcd_inside_the_products(monkeypatch):
    from quonalg import exact_arith

    inv = inverse_closed_form(2, 3)  # memoised: its quotients are reduced here
    real_gcd, calls = exact_arith.poly_gcd, []

    def counting_gcd(a, b):
        calls.append((a, b))
        return real_gcd(a, b)

    monkeypatch.setattr(exact_arith, "poly_gcd", counting_gcd)
    assert verify_inverse(2, 3)
    # one gcd per distinct denominator, for the lcm; none in ga_mul
    assert 0 < len(calls) <= len({c.den for c in inv.terms.values()})


def test_inverse_single_position_reduces_to_color_inverse():
    for m in (1, 2, 3, 4):
        xi, d = all_shifts_inverse(m)
        printed = {pi: RF(c, d) for pi, c in xi.terms.items()}
        assert inverse_closed_form(m, 1) == GroupAlgebraElement(m, 1, printed)


def test_inverse_two_positions_one_color_explicit():
    inv = inverse_closed_form(1, 2)
    transposition = ColoredPermutation(1, (2, 1), (1, 1))
    assert inv.coeff(ColoredPermutation.neutral(1, 2)) == RF(ONE, ONE - Q**2)
    assert inv.coeff(transposition) == RF(-Q, ONE - Q**2)
    assert len(inv) == 2


def test_inverse_factor_shapes():
    m, n = 2, 3
    color_inverse, color_denominator = all_shifts_inverse(m)
    position_inverses = [
        embed_single_position(color_inverse, n, pos) for pos in range(1, n + 1)
    ]
    difference_products = [_difference_product(m, n, j) for j in range(2, n + 1)]
    geometric = [_geometric_product(m, n, j) for j in range(2, n + 1)]
    assert len(position_inverses) == 3
    assert len(difference_products) == 2
    assert len(geometric) == 2
    # the color scalar (1 + q)(1 - q) at three positions, then one
    # geometric scalar per cycle: 1 - q^2 for block 2, (1 - q^2)(1 - q^6)
    # for block 3
    denominator = color_denominator**3
    for _, scalar in geometric:
        denominator = denominator * scalar
    assert denominator == ((ONE + Q) * (ONE - Q)) ** 3 * (ONE - Q**2) ** 2 * (ONE - Q**6)
    neutral_word = (1, 2, 3)
    for element in difference_products + [series for series, _ in geometric]:
        for pi in set(element.terms):
            assert set(pi.colors) <= {2}
    for pos, element in enumerate(position_inverses, start=1):
        for pi in set(element.terms):
            assert pi.values == neutral_word
            for i, color in enumerate(pi.colors, start=1):
                assert i == pos or color == 2


def test_inverse_matches_direct_linear_solve_small():
    # independent oracle: solve S * x = identity coefficient-wise over the
    # group algebra by iterating over the 2-element group
    m, n = 1, 2
    s = cinv_sum(m, n)
    e = ColoredPermutation.neutral(1, 2)
    t = ColoredPermutation(1, (2, 1), (1, 1))
    # S = 1 + q t, so x = (1 - q t)/(1 - q^2) solves both orders
    denom = ONE - Q**2
    numerator = GroupAlgebraElement(1, 2, {e: ONE, t: -Q})
    target = GroupAlgebraElement.identity(1, 2).scale(denom)
    assert ga_mul(s, numerator) == target
    assert ga_mul(numerator, s) == target
    expected = GroupAlgebraElement(1, 2, {e: RF(ONE, denom), t: RF(-Q, denom)})
    assert inverse_closed_form(1, 2) == expected


def test_bad_sizes_rejected():
    with pytest.raises(ValueError):
        det_closed_form(0, 1)
    with pytest.raises(ValueError):
        inverse_closed_form(1, 0)
