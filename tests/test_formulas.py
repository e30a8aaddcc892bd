import math
import random
from functools import reduce

import pytest

from quonalg import formulas, group_algebra, linalg
from quonalg.colored_perm import ColoredArrangement
from quonalg.exact_arith import Polynomial, RationalFunction
from quonalg.formulas import (
    _color_part,
    _denominator,
    det_closed_form,
    det_factorization,
    inverse_closed_form,
    regular_block_det,
    verify_inverse,
)
from quonalg.gram import build_gram
from quonalg.group_algebra import (
    GroupAlgebraElement,
    cinv_sum,
    ga_mul,
)

from lemmas import (
    all_shifts_sum,
    color_inverse_reference,
    factor_sum,
    position_product,
    verify_inverse_reference,
)

P = Polynomial
ONE = P.one()
Q = P.q()
RF = RationalFunction


@pytest.mark.parametrize(
    "m,n", [(1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (5, 1), (6, 1)]
)
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
        assert position_product(all_shifts_sum(m, Q), n) == color_sum
    # one color: the color factor is trivial
    perm_sum, color_sum = factor_sum(1, 3)
    assert color_sum == GroupAlgebraElement.identity(1, 3)


def test_factor_sum_single_position_three_colors():
    _, color_sum = factor_sum(3, 1)
    assert color_sum.coeff(ColoredArrangement.neutral(3, 1)) == ONE
    assert color_sum.coeff(ColoredArrangement(3, (1,), (1,))) == Q
    assert color_sum.coeff(ColoredArrangement(3, (1,), (2,))) == Q


@pytest.mark.parametrize(
    "m,n",
    [(1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 2), (2, 3), (1, 5), (3, 3)]
    + [(m, 1) for m in (1, 3, 4, 5, 6)],
)
def test_verify_inverse_two_sided(m, n):
    assert verify_inverse(m, n)
    if n <= 4:  # the dense two-sided products agree
        assert verify_inverse_reference(inverse_closed_form(m, n), _denominator(m, n)[0])


@pytest.mark.parametrize("m,n", [(1, 3), (2, 3), (3, 2), (4, 2)])
def test_color_part_is_the_product_of_the_position_inverses(m, n):
    # one term per color word, weighted by its count of non-neutral colors,
    # against n - 1 products of the inverse numerators placed at each position
    assert _color_part(m, n) == color_inverse_reference(m, n)
    assert len(_color_part(m, n)) == m**n


def _verify_with_printed_terms(monkeypatch, m, n, terms):
    # the sparse factors and the dense two-sided products give one verdict
    printed = GroupAlgebraElement(m, n, terms)
    monkeypatch.setattr(formulas, "inverse_closed_form", lambda *_: printed)
    verdict = verify_inverse(m, n)
    assert verdict == verify_inverse_reference(printed, _denominator(m, n)[0])
    return verdict


def test_verify_inverse_fails_on_a_perturbed_numerator(monkeypatch):
    terms = dict(inverse_closed_form(2, 3).terms)
    assert _verify_with_printed_terms(monkeypatch, 2, 3, terms) is True
    for pi in sorted(terms, key=str)[:3]:
        c = terms[pi]
        changed = dict(terms)
        changed[pi] = RF(c.num + Q ** (c.num.degree + 1), c.den)
        assert _verify_with_printed_terms(monkeypatch, 2, 3, changed) is False, pi


def test_verify_inverse_fails_on_a_den_that_does_not_divide_d(monkeypatch):
    # D at (2, 3) is (1 - q)^6 (1 + q)^6 (1 + q + q^2)(1 - q + q^2): it has
    # no factor 1 + 2q, and 1 + q only to the sixth power
    terms = dict(inverse_closed_form(2, 3).terms)
    pi = min(terms, key=str)
    for extra in (ONE + 2 * Q, (ONE + Q) ** 7):
        changed = dict(terms)
        changed[pi] = RF(terms[pi].num * extra, terms[pi].den * extra)
        assert _verify_with_printed_terms(monkeypatch, 2, 3, changed) is False


def test_verify_inverse_fails_on_a_den_with_one_extra_factor_power(monkeypatch):
    # One factor f of D multiplied into one den, the num unchanged: a wrong
    # inverse, whether f**(k+1) still divides D (the cleared term loses one
    # f and the products differ) or not (D / den is inexact).  At (1, 4) the
    # dens lie far below D, so both cases occur.
    factors = _denominator(1, 4)[1]
    terms = dict(inverse_closed_form(1, 4).terms)
    assert _verify_with_printed_terms(monkeypatch, 1, 4, terms) is True
    full = {True: 0, False: 0}
    for pi in sorted(terms, key=str)[:4]:
        c = terms[pi]
        for (f, e), k in zip(factors, formulas._divide_out(c.den, factors)[1]):
            changed = dict(terms)
            changed[pi] = RF(c.num, c.den * f)
            assert _verify_with_printed_terms(monkeypatch, 1, 4, changed) is False, (pi, f)
            full[k == e] += 1
    assert full[True] and full[False]


def test_verify_inverse_reads_both_products(monkeypatch):
    # one side of the kernel off by one at one entry: s * N on the chain of
    # check (a), the factors on the left, or N * s on the other chain
    times = group_algebra._times_factors
    inverse_closed_form(2, 2)
    for off_on_the_left in (True, False):
        chains = []

        def one_side_off(vector, chain, width):
            out = times(vector, chain, width)
            chains.append(chain)
            if any(vector[1:]) and (chain is chains[0]) == off_on_the_left:  # N, not e
                out[1] += 1
            return out

        monkeypatch.setattr(group_algebra, "_times_factors", one_side_off)
        assert verify_inverse(2, 2) is False
    monkeypatch.setattr(group_algebra, "_times_factors", times)
    assert verify_inverse(2, 2) is True


def test_denominator_factors_multiply_to_the_scalars():
    # ((1 + (m-1)q)(1 - q))^n * prod_{k<j} (1 - q^((j-k)(j-k+1))), one
    # factor per scalar of the sparse factors, against the factored form
    for m in range(1, 5):
        for n in range(1, 7):
            expected = ((ONE + (m - 1) * Q) * (ONE - Q)) ** n
            for j in range(2, n + 1):
                for k in range(1, j):
                    expected = expected * (ONE - Q ** ((j - k) * (j - k + 1)))
            denominator, factors = _denominator(m, n)
            product = ONE
            for f, e in factors:
                assert f.degree >= 1 and e >= 1
                product = product * f**e
            assert len({f for f, _ in factors}) == len(factors)
            assert product == expected == denominator, (m, n)


def test_divide_out_matches_plain_trial_division():
    # c = g * prod f**a_f for random g and exponents, some above e_f: the
    # pre-tested loop removes what a plain divide-while-it-divides loop does.
    rng = random.Random(107)
    for m, n in [(1, 4), (2, 3), (3, 3)]:
        _, factors = _denominator(m, n)
        for _ in range(30):
            c = P([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]) or ONE
            for f, e in factors:
                c = c * f ** rng.randint(0, e + 1)
            expected, removed = c, []
            for f, e in factors:
                k = 0
                while k < e:
                    try:
                        expected = expected.divexact(f)
                    except ValueError:
                        break
                    k += 1
                removed.append(k)
            assert formulas._divide_out(c, factors) == (expected, tuple(removed))


def test_divide_out_skips_divisions_that_cannot_succeed(monkeypatch):
    # Printing the inverse-verify ladder by plain trial division runs 558
    # long divisions that fail; with the c(1) test for 1 - q and the
    # f(2) | c(2) test for the other factors, 22 are left.
    divexact = Polynomial.divexact
    failed = []

    def counting(self, other):
        try:
            return divexact(self, other)
        except ValueError:
            failed.append(other)
            raise

    monkeypatch.setattr(Polynomial, "divexact", counting)
    inverse_closed_form.cache_clear()
    for m, n in [(1, 4), (2, 3), (4, 2), (5, 2)]:
        inverse_closed_form(m, n)
    assert len(failed) == 22


@pytest.mark.parametrize("m,n", [(1, 4), (1, 5), (2, 3), (3, 3), (4, 2)])
def test_printed_inverse_is_in_lowest_terms(m, n):
    # every den divides D, and no irreducible factor of D divides both num
    # and den; with D's factors complete (the test above) that is gcd 1
    denominator, factors = _denominator(m, n)

    def divides(f, p):
        try:
            p.divexact(f)
        except ValueError:
            return False
        return True

    for c in inverse_closed_form(m, n).terms.values():
        assert c.den.leading > 0 and divides(c.den, denominator)
        assert not any(divides(f, c.num) and divides(f, c.den) for f, _ in factors)


def test_inverse_single_position_reduces_to_color_inverse():
    # (1 + (m-2)q - q * (sum of the nontrivial shifts)) / ((1 + (m-1)q)(1 - q)),
    # in lowest terms for m >= 2; for m = 1 the quotient (1 - q)/(1 - q) is 1
    assert inverse_closed_form(1, 1) == GroupAlgebraElement.identity(1, 1)
    for m in (2, 3, 4):
        den = (ONE + (m - 1) * Q) * (ONE - Q)
        printed = {ColoredArrangement.neutral(m, 1): RF(ONE + (m - 2) * Q, den)}
        printed.update({ColoredArrangement(m, (1,), (k,)): RF(-Q, den) for k in range(1, m)})
        assert inverse_closed_form(m, 1) == GroupAlgebraElement(m, 1, printed)


def test_inverse_two_positions_one_color_explicit():
    inv = inverse_closed_form(1, 2)
    transposition = ColoredArrangement(1, (2, 1), (1, 1))
    assert inv.coeff(ColoredArrangement.neutral(1, 2)) == RF(ONE, ONE - Q**2)
    assert inv.coeff(transposition) == RF(-Q, ONE - Q**2)
    assert len(inv) == 2


def test_inverse_factor_shapes():
    # n(n-1) neutral-colored permutation factors, then the m**n-term color
    # part; the j-th run of 2(j-1) factors times T_j, on either side, is
    # its scalar prod_{k<j} (1 - q^((j-k)(j-k+1))) times e
    for m, n in [(1, 3), (1, 4), (2, 3), (3, 3)]:
        *perm, color = formulas._inverse_factors(m, n)
        assert len(perm) == n * (n - 1) and color == _color_part(m, n) and len(color) == m**n
        assert all(pi.colors.count(m) == n for x in perm for pi in x.terms)
        sum_factors = group_algebra._sum_factors(m, n)
        for j in range(2, n + 1):
            run = reduce(ga_mul, perm[(j - 2) * (j - 1) : (j - 1) * j])
            t_j = GroupAlgebraElement(m, n, {pi: P.monomial(e) for pi, e in sum_factors[j - 2]})
            scalars = (ONE - Q ** ((j - k) * (j - k + 1)) for k in range(1, j))
            target = GroupAlgebraElement.identity(m, n).scale(math.prod(scalars, start=ONE))
            assert ga_mul(run, t_j) == target == ga_mul(t_j, run), (m, n, j)


def test_color_part_commutes_with_the_permutation_factors():
    # its weights count non-neutral colors only, so conjugation by a
    # permutation fixes it, and its place in the product does not matter
    for m, n in [(2, 3), (3, 3)]:
        *perm, color = formulas._inverse_factors(m, n)
        for x in perm:
            assert ga_mul(x, color) == ga_mul(color, x), (m, n)


def test_inverse_matches_direct_linear_solve_small():
    # independent oracle: solve S * x = identity coefficient-wise over the
    # group algebra by iterating over the 2-element group
    m, n = 1, 2
    s = cinv_sum(m, n)
    e = ColoredArrangement.neutral(1, 2)
    t = ColoredArrangement(1, (2, 1), (1, 1))
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
