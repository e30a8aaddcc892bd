import random
from fractions import Fraction
from math import comb

import pytest

from quonalg.exact_arith import (
    Polynomial,
    RationalFunction,
    pack_coeffs,
    parse_rational,
    power_product,
    stride,
    unpack_int,
)

from lemmas import (
    evaluate_reference,
    parse_polynomial,
    parse_rational_function,
    power_product_reference,
)

P = Polynomial
ONE = P.one()
Q = P.q()


def rand_poly(rng, max_deg=8, hi=9):
    return P([rng.randint(-hi, hi) for _ in range(rng.randint(0, max_deg + 1))])


def test_ring_identities():
    assert (ONE + Q) * (ONE - Q) == ONE - Q**2
    assert (ONE - Q) * (ONE + Q + Q**2 + Q**3) == ONE - Q**4
    assert (ONE - Q) ** 2 == P((1, -2, 1))
    assert (ONE + 2 * Q) ** 3 == P((1, 6, 12, 8))
    p = P((3, 0, -2, 7))
    assert p + P.zero() == p
    assert p**0 == ONE


def test_ring_axioms_randomized():
    rng = random.Random(42)
    for _ in range(300):
        a, b, c = (rand_poly(rng, 16) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_large_products_match_evaluation():
    rng = random.Random(7)

    def sparse(length):
        coeffs = [0] * length
        for i in rng.sample(range(length), 6):
            coeffs[i] = rng.choice((-1, 1)) * rng.randint(1, 5)
        coeffs[-1] = 1
        return P(coeffs)

    def dense(length, hi):
        return P([rng.randint(-hi, hi) for _ in range(length - 1)] + [hi])

    pairs = [
        (sparse(64), sparse(300)),
        (sparse(200), dense(64, 9)),
        (dense(64, 9), dense(150, 9)),
        (dense(100, 10**40), dense(80, 10**25)),
        (dense(64, 10**60), sparse(257)),
    ]
    for a, b in pairs:
        assert len(a.coeffs) >= 64 and len(b.coeffs) >= 64
        product = a * b
        assert product.degree == a.degree + b.degree
        assert product == b * a
        for x in (-3, -1, 0, 1, 2, 5, 10**50):
            assert product.evaluate(x) == a.evaluate(x) * b.evaluate(x)


@pytest.mark.parametrize("k,e", [(1, 100), (3, 40), (7, 25), (12, 9)])
def test_binomial_powers(k, e):
    # (1 - q**k)**e has coefficient (-1)**j * C(e, j) at q**(k*j), zero elsewhere
    power = (ONE - Q**k) ** e
    expected = [0] * (k * e + 1)
    for j in range(e + 1):
        expected[k * j] = (-1) ** j * comb(e, j)
    assert power.coeffs == tuple(expected)


def test_unpack_needs_a_stride_of_two_bits():
    # balanced digits of stride 1 are {-1, 0}, which cannot express 1
    with pytest.raises(ValueError):
        unpack_int(1, 1)
    with pytest.raises(ValueError):
        unpack_int(5, 0)
    assert unpack_int(pack_coeffs((1, -1, 1), 2), 2) == [1, -1, 1]


def test_stride_is_the_least_that_reads_its_bound_back():
    # Digits of modulus at most the bound come back at stride(bound); one
    # bit less and the digit +bound does not.
    for bound in (1, 2, 3, 7, 8, 255, 256, 2**20 - 1, 2**20):
        s = stride(bound)
        assert bound < 2 ** (s - 1) <= 2 * bound
        for coeffs in ((bound, -bound, bound), (-bound, 0, bound - 1, -1)):
            assert unpack_int(pack_coeffs(coeffs, s), s) == list(coeffs)
        if s > 2:
            assert unpack_int(pack_coeffs((0, bound), s - 1), s - 1) != [0, bound]
    # The split test's stride: (2 h**2).bit_length() == stride(h**2).
    assert all((2 * h * h).bit_length() == stride(h * h) for h in range(1, 500))


def test_divexact():
    rng = random.Random(3)
    for _ in range(300):
        a, b = rand_poly(rng, 10), rand_poly(rng, 6)
        if b.is_zero:
            continue
        assert (a * b).divexact(b) == a
    with pytest.raises(ValueError):
        (ONE + Q).divexact(ONE + Q + Q**2)
    with pytest.raises(ZeroDivisionError):
        ONE.divexact(P.zero())


def test_rf_normalization_examples():
    # zero becomes 0/1 and the denominator's leading coefficient turns
    # positive; nothing else is divided out
    zero = RationalFunction(P.zero(), ONE - Q)
    assert zero.is_zero and zero.den == ONE
    f = RationalFunction(-Q, -ONE + Q)
    assert f.num == -Q and f.den == Q - ONE
    f = RationalFunction(ONE, ONE - Q)
    assert f.num == -ONE and f.den == Q - ONE
    f = RationalFunction(Q**2 - ONE, Q - ONE)
    assert f.num == Q**2 - ONE and f.den == Q - ONE
    assert RationalFunction(Q, -ONE) == -Q


def test_rf_canonical_invariants_and_idempotence():
    rng = random.Random(5)
    for _ in range(200):
        num = rand_poly(rng, 5, 6)
        den = rand_poly(rng, 4, 6)
        if den.is_zero:
            continue
        f = RationalFunction(num, den)
        again = RationalFunction(f.num, f.den)
        assert again.num == f.num and again.den == f.den
        assert f.den.leading > 0
        if f.is_zero:
            assert f.den == ONE
        else:
            assert (f.num, f.den) in ((num, den), (-num, -den))


def test_rf_evaluation_is_a_homomorphism():
    # sums and products are formed in ZZ[q], over the product of the denominators
    rng = random.Random(9)
    for _ in range(200):
        f = RationalFunction(rand_poly(rng, 5, 6), rand_poly(rng, 4, 6) + ONE * 7)
        g = RationalFunction(rand_poly(rng, 5, 6), rand_poly(rng, 4, 6) + ONE * 7)
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        total = RationalFunction(f.num * g.den + g.num * f.den, f.den * g.den)
        product = RationalFunction(f.num * g.num, f.den * g.den)
        try:
            fv, gv = f.evaluate(x), g.evaluate(x)
            assert total.evaluate(x) == fv + gv
            assert product.evaluate(x) == fv * gv
        except ZeroDivisionError:
            continue


def test_evaluate_equals_fraction_horner():
    # Integer Horner with one Fraction at the end against Horner on
    # Fractions: zero and constant polynomials, q0 = 0, +-1, negative
    # points and 17-bit heights.
    rng = random.Random(41)
    polys = [P.zero(), P.constant(7), P.constant(-3), Q, ONE - Q**2]
    polys += [rand_poly(rng, 12, 2**20) for _ in range(60)]
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(-3), Fraction(-2, 5), 4]
    points += [Fraction(rng.randrange(-2**17, 2**17), rng.randrange(2**16, 2**17)) for _ in range(8)]
    for poly in polys:
        for x in points:
            value = poly.evaluate(x)
            assert type(value) is Fraction
            assert value == evaluate_reference(poly, x), (poly, x)


def test_evaluation_examples():
    assert RationalFunction(ONE - Q**2).evaluate(Fraction(1, 2)) == Fraction(3, 4)
    assert RationalFunction(Q**4 + Q**5).evaluate(Fraction(1, 2)) == Fraction(3, 32)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(ONE, ONE - Q).evaluate(1)


def test_equal_values_hash_equal():
    rng = random.Random(19)
    values = [0, 1, -1, 5, ONE, P.zero(), Q, ONE - Q**2, P((5,))]
    values += [RationalFunction(v) for v in values]
    values += [RationalFunction(Q + ONE, Q - ONE), RationalFunction(ONE, ONE - Q)]
    values += [parse_rational_function(str(v)) for v in values]
    for _ in range(100):
        p = rand_poly(rng, 4, 3)
        values += [p, RationalFunction(p), RationalFunction(-p, -ONE)]
    for x in values:
        for y in values:
            if x == y:
                assert y == x and hash(x) == hash(y), (x, y)
    assert len({Q, RationalFunction(Q), parse_rational_function("q")}) == 1


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(ONE, P.zero())


def test_string_forms():
    assert str(P.zero()) == "0"
    assert str(Q**4 + Q**5) == "q^4 + q^5"
    assert str((ONE - Q) ** 2) == "1 - 2q + q^2"
    assert str(-Q + Q**2) == "-q + q^2"
    assert str(P((0, 3))) == "3q"
    assert str(P((-5,))) == "-5"
    assert str(RationalFunction(-Q, Q - ONE)) == "(-q)/(-1 + q)"


def test_parse_round_trip():
    rng = random.Random(17)
    for _ in range(200):
        p = rand_poly(rng, 9, 30)
        assert parse_polynomial(str(p)) == p
        den = rand_poly(rng, 4, 9)
        if den.is_zero:
            continue
        f = RationalFunction(p, den)
        assert parse_rational_function(str(f)) == f
    with pytest.raises(ValueError):
        parse_polynomial("q^")
    with pytest.raises(ValueError):
        parse_polynomial("")
    with pytest.raises(ValueError):
        parse_polynomial("2x + 1")
    # whitespace separates terms; it never joins digits or splits a term
    assert parse_polynomial("  1 -  2q+q^2 ") == (ONE - Q) ** 2
    for text in ("1 2", "1 2q", "q ^ 1 0", "2 q", "q^1 0", "1 - - q", "1 +"):
        with pytest.raises(ValueError):
            parse_polynomial(text)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(" +7/21 ") == Fraction(1, 3)
    for text in ("0.5", "1e-1", "1E5", "1_000", "3 / 4", "/2", "1/", "", "0x10", "inf"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_power_product_matches_a_schoolbook_product():
    # Random factor lists: constant terms +-1 and +-2, negative
    # coefficients, exponent 0, constant factors and the empty list.
    rng = random.Random(131)
    for trial in range(300):
        factors = []
        for _ in range(rng.randint(0, 4)):
            tail = [rng.randint(-3, 3) for _ in range(rng.randint(0, 5))]
            factors.append((P([rng.choice((-2, -1, 1, 2))] + tail), rng.randint(0, 6)))
        assert power_product(factors) == power_product_reference(factors), (trial, factors)
    assert power_product([]) == ONE
    assert power_product([(ONE - Q, 3), (ONE + Q, 0)]) == P((1, -3, 3, -1))


@pytest.mark.parametrize(
    "factors",
    [[(Q, 1)], [(ONE, 2), (P((0, 1, 1)), 1)], [(P.zero(), 1)], [(ONE + Q, -1)], [(Q, 0)]],
)
def test_power_product_refuses_a_zero_constant_term_or_a_negative_exponent(factors):
    with pytest.raises(ValueError):
        power_product(factors)
