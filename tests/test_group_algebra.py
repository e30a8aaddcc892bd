import math
import random
from functools import reduce

import pytest

from quonalg import group_algebra, linalg
from quonalg.colored_perm import (
    ColoredArrangement,
    act,
    cinv,
    enumerate_arrangements,
    enumerate_group,
    group_table,
)
from quonalg.exact_arith import Polynomial, pack_coeffs, unpack_int
from quonalg.formulas import _color_part, det_factorization, inverse_closed_form, verify_inverse
from quonalg.group_algebra import (
    GroupAlgebraElement,
    cinv_sum,
    ga_mul,
    rep_matrix,
)

from lemmas import (
    all_shifts_sum,
    at_position,
    ga_mul_reference,
    rep_matrix_reference,
    single_shift_inverse,
)

P = Polynomial
ONE = P.one()
Q = P.q()


def rand_element(rng, m, n, nterms=3):
    group = enumerate_group(m, n)
    terms = {}
    for _ in range(nterms):
        pi = rng.choice(group)
        coeff = P([rng.randint(-3, 3) for _ in range(3)])
        terms[pi] = terms.get(pi, P.zero()) + coeff
    return GroupAlgebraElement(m, n, terms)


def matmul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), P.zero()) for j in range(n)]
        for i in range(n)
    ]


def test_identity_element():
    rng = random.Random(2)
    for m, n in [(1, 2), (2, 2), (3, 1), (2, 3)]:
        e = GroupAlgebraElement.identity(m, n)
        x = rand_element(rng, m, n)
        assert ga_mul(x, e) == x
        assert ga_mul(e, x) == x


def test_associativity_random_sparse():
    rng = random.Random(4)
    for _ in range(60):
        x, y, z = (rand_element(rng, 2, 2) for _ in range(3))
        assert ga_mul(ga_mul(x, y), z) == ga_mul(x, ga_mul(y, z))


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        ga_mul(GroupAlgebraElement.identity(2, 2), GroupAlgebraElement.identity(2, 3))
    with pytest.raises(ValueError):
        GroupAlgebraElement(2, 2, {ColoredArrangement.neutral(2, 3): 1})


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (1, 4)])
def test_ga_mul_equals_the_object_level_product(m, n):
    rng = random.Random(m * 10 + n)
    noncommuting = 0
    for _ in range(20):
        x, y = rand_element(rng, m, n, 6), rand_element(rng, m, n, 6)
        xy = ga_mul(x, y)
        assert xy.terms == ga_mul_reference(x, y).terms
        assert {id(pi) for pi in xy.terms} <= {id(pi) for pi in enumerate_group(m, n)}
        noncommuting += xy != ga_mul(y, x)
    assert noncommuting


def group_sum(m, n, coeff):
    return GroupAlgebraElement(m, n, {pi: coeff for pi in enumerate_group(m, n)})


def test_product_stride_is_tight(monkeypatch):
    # every coefficient of (a * sum G)(b * sum G) is |G| * a * b = B, the bound
    m, n, a, b = 2, 3, 3, 5
    x, y = group_sum(m, n, a), group_sum(m, n, b)
    bound = len(enumerate_group(m, n)) * a * b
    assert group_algebra._product_stride(x, y) == bound.bit_length() + 1
    xy = ga_mul(x, y)
    assert xy.terms == ga_mul_reference(x, y).terms
    assert set(xy.terms.values()) == {P.constant(bound)}
    stride = group_algebra._product_stride
    monkeypatch.setattr(group_algebra, "_product_stride", lambda x, y: stride(x, y) - 1)
    assert ga_mul(x, y).terms != xy.terms


def test_product_stride_takes_the_smaller_bound():
    # sup(x) * l1(y) = 1 * (7 * 8) against sup(y) * l1(x) = 7 * (2 * 8)
    x = group_sum(2, 2, ONE + Q)
    y = group_sum(2, 2, 7)
    assert group_algebra._product_stride(x, y) == (7 * 8).bit_length() + 1
    assert group_algebra._product_stride(y, x) == (7 * 8).bit_length() + 1
    assert ga_mul(x, y).terms == ga_mul_reference(x, y).terms


def wide_negative(rng, pis, sign):
    # coefficients of 65 to 90 bits and degree 40 to 59
    return GroupAlgebraElement(2, 2, {
        pi: P([sign * rng.randrange(2**64, 2**90) for _ in range(rng.randint(41, 60))])
        for pi in pis
    })


def edge_products():
    """(x, y, number of terms of the product) at the edges of the packing."""
    rng = random.Random(12)
    e2 = GroupAlgebraElement.identity(1, 2)
    t = GroupAlgebraElement.from_element(ColoredArrangement(1, (2, 1), (1, 1)))
    zero = GroupAlgebraElement(2, 2)
    x = rand_element(rng, 2, 2, 4)
    e3 = GroupAlgebraElement.identity(3, 2)
    group = enumerate_group(2, 2)
    wide_x = wide_negative(rng, rng.sample(group, 5), -1)
    wide_y = wide_negative(rng, rng.sample(group, 6), 1)
    one = GroupAlgebraElement.from_element(enumerate_group(2, 3)[17], P((-4, 0, 9)))
    full = cinv_sum(2, 3)
    return {
        "cancels to zero": (e2 - t, e2 + t, 0),
        "zero on the left": (zero, x, 0),
        "zero on the right": (x, zero, 0),
        "identity times identity": (e3, e3, 1),
        "wide negative": (wide_x, wide_y, None),
        "one term times the group": (one, full, len(full)),
        "the group times one term": (full, one, len(full)),
    }


@pytest.mark.parametrize("case", list(edge_products()))
def test_ga_mul_equals_the_reference_at_the_edges(case):
    x, y, size = edge_products()[case]
    xy = ga_mul(x, y)
    assert xy.terms == ga_mul_reference(x, y).terms
    if size is not None:
        assert len(xy) == size


def test_identity_times_identity_packs_at_two_bits():
    e = GroupAlgebraElement.identity(3, 2)
    assert group_algebra._product_stride(e, e) == 2


def test_ga_mul_refuses_quotient_coefficients():
    # the printed inverse holds reduced quotients; it is read, never multiplied
    inverse, s = inverse_closed_form(2, 2), cinv_sum(2, 2)
    for x, y in [(inverse, s), (s, inverse)]:
        with pytest.raises(TypeError, match=r"RationalFunction\("):
            ga_mul(x, y)
    with pytest.raises(TypeError, match=r"RationalFunction\("):
        rep_matrix(inverse, (1, 2))


@pytest.mark.parametrize(
    "m,multiset",
    [(2, (1, 2, 3)), (2, (1, 1, 2)), (3, (1, 2)), (3, (2, 2)), (1, (1, 2, 3, 4))],
)
def test_rep_matrix_equals_the_object_level_matrix(m, multiset):
    rng = random.Random(len(multiset) * 10 + m)
    n = len(multiset)
    elements = [rand_element(rng, m, n, 6) for _ in range(5)] + [cinv_sum(m, n)]
    for x in elements:
        assert rep_matrix(x, multiset).entries == rep_matrix_reference(x, multiset)


def test_rep_matrix_accumulates_terms_that_meet_on_a_repeated_mode():
    # two elements that differ by swapping the equal values send every basis
    # arrangement of (1, 1, 2) to the same place, so their coefficients add
    m = 2
    pi, swapped = (ColoredArrangement(m, w, (m,) * 3) for w in ((1, 2, 3), (2, 1, 3)))
    x = GroupAlgebraElement(m, 3, {pi: ONE, swapped: Q})
    entries = rep_matrix(x, (1, 1, 2)).entries
    assert entries == rep_matrix_reference(x, (1, 1, 2))
    assert entries[0][0] == ONE + Q


def test_rep_matrix_stride_is_tight(monkeypatch):
    # on (1, 1) with one color both group elements fix the one arrangement,
    # so its entry is the sum of the two coefficients: 8 - 3q, and 8 is the
    # bound B = 3 + 5 on the sum of the sup norms
    m = 1
    e, swap = enumerate_group(m, 2)
    x = GroupAlgebraElement(m, 2, {e: P((3, -2)), swap: P((5, -1))})
    assert group_algebra._rep_stride(x) == (3 + 5).bit_length() + 1
    block = rep_matrix(x, (1, 1))
    assert block.entries == rep_matrix_reference(x, (1, 1)) == ((P((8, -3)),),)
    stride = group_algebra._rep_stride
    monkeypatch.setattr(group_algebra, "_rep_stride", lambda x: stride(x) - 1)
    assert rep_matrix(x, (1, 1)).entries != block.entries


def test_rep_matrix_of_signed_and_zero_elements():
    rng = random.Random(31)
    zero = GroupAlgebraElement(2, 3)
    assert rep_matrix(zero, (1, 1, 2)).entries == rep_matrix_reference(zero, (1, 1, 2))
    assert all(c.is_zero for row in rep_matrix(zero, (1, 2, 3)).entries for c in row)
    group = enumerate_group(2, 2)
    for _ in range(10):
        x = GroupAlgebraElement(2, 2, {
            pi: P([rng.randint(-2**70, 2**70) for _ in range(rng.randint(1, 6))])
            for pi in rng.sample(group, rng.randint(1, len(group)))
        })
        for multiset in [(1, 2), (3, 3)]:
            assert rep_matrix(x, multiset).entries == rep_matrix_reference(x, multiset)


def test_terms_with_colors_outside_the_range_are_refused():
    with pytest.raises(ValueError, match=r"color 3 outside 1\.\.2"):
        GroupAlgebraElement(2, 2, {ColoredArrangement(2, (1, 2), (3, 1)): 1})


# (m, value word, colors) of arrangements that are not group elements
NOT_GROUP_ELEMENTS = [
    (1, (1, 1), (1, 1)),
    (2, (2, 2), (2, 1)),
    (1, (1, 3), (1, 1)),
    (2, (0, 1), (2, 2)),
    (3, (2,), (3,)),
    (2, (1, 2, 2), (1, 2, 1)),
    (2, (2, 3, 4), (2, 2, 2)),
]


@pytest.mark.parametrize("m,values,colors", NOT_GROUP_ELEMENTS)
def test_words_that_are_not_group_elements_are_refused(m, values, colors):
    # unchecked, ga_mul and rep_matrix would fail on these with KeyError
    # or IndexError, and act would return another word that is not one
    pi, n = ColoredArrangement(m, values, colors), len(values)
    with pytest.raises(ValueError, match="is not a group element"):
        GroupAlgebraElement(m, n, {pi: 1})
    with pytest.raises(ValueError, match="is not a group element"):
        GroupAlgebraElement.from_element(pi, Q)
    with pytest.raises(ValueError, match="is not a group element"):
        act(ColoredArrangement(m, (7,) * n, (m,) * n), pi)


def test_an_arrangement_of_one_to_n_is_the_group_element():
    # one class: the word (1,1)(2,1) built by hand is the neutral element
    x = GroupAlgebraElement(1, 2, {ColoredArrangement(1, (1, 2), (1, 1)): 1})
    assert x == GroupAlgebraElement.identity(1, 2)
    total = x + GroupAlgebraElement.identity(1, 2)
    assert total.terms == {ColoredArrangement.neutral(1, 2): P.constant(2)}
    arrangements = enumerate_arrangements(2, (1, 2))
    assert GroupAlgebraElement(2, 2, {t: 1 for t in arrangements}) == group_sum(2, 2, 1)


def test_rep_matrix_is_an_algebra_homomorphism():
    rng = random.Random(6)
    for multiset in [(1, 2), (2, 2)]:
        for _ in range(25):
            x, y = rand_element(rng, 2, 2), rand_element(rng, 2, 2)
            rx = [list(r) for r in rep_matrix(x, multiset).entries]
            ry = [list(r) for r in rep_matrix(y, multiset).entries]
            rxy = [list(r) for r in rep_matrix(ga_mul(x, y), multiset).entries]
            assert rxy == matmul(rx, ry)


def test_rep_matrix_identity_and_permutation_matrices():
    rng = random.Random(8)
    for multiset in [(1, 2), (2, 2), (1, 2, 3)]:
        n = len(multiset)
        e = GroupAlgebraElement.identity(2, n)
        entries = rep_matrix(e, multiset).entries
        for i, row in enumerate(entries):
            assert [not c.is_zero for c in row] == [i == j for j in range(len(row))]
        g = rng.choice(enumerate_group(2, n))
        entries = rep_matrix(GroupAlgebraElement.from_element(g), multiset).entries
        size = len(entries)
        for i in range(size):
            assert sum(1 for j in range(size) if not entries[i][j].is_zero) == 1
            assert sum(1 for j in range(size) if not entries[j][i].is_zero) == 1


def test_rep_of_cinv_sum_column_of_identity():
    # the column of the identity basis element lists q^cinv in basis order
    multiset = (1, 2)
    rep = rep_matrix(cinv_sum(3, 2), multiset)
    for i, theta in enumerate(rep.basis):
        assert rep.entries[i][0] == Q ** cinv(theta)


def rep_det(x, multiset):
    return linalg.poly_det(rep_matrix(x, multiset).entries)


def test_rep_matrix_det_scalars():
    e = GroupAlgebraElement.identity(2, 2)
    assert rep_det(e, (1, 2)) == ONE
    c = P((3, -2))
    scaled = e.scale(c)
    order = len(enumerate_arrangements(2, (1, 2)))
    assert rep_det(scaled, (1, 2)) == c**order


def color_base(m):
    return det_factorization(m, 1).color_base


def test_circulant_det_closed_matches_brute():
    for m in range(1, 7):
        assert rep_det(all_shifts_sum(m, Q), (1,)) == color_base(m)
    assert color_base(1) == ONE
    assert color_base(2) == ONE - Q**2
    assert color_base(3) == (ONE + 2 * Q) * (ONE - Q) ** 2


def test_cyclic_inverses_by_multiplication():
    # an inverse is a numerator N over a scalar D: x * N == D * e == N * x
    for m in range(1, 7):
        e = GroupAlgebraElement.identity(m, 1)
        x = all_shifts_sum(m, Q)
        xi, d = _color_part(m, 1), (ONE + (m - 1) * Q) * (ONE - Q)
        assert ga_mul(x, xi) == e.scale(d)
        assert ga_mul(xi, x) == e.scale(d)
        g = e - GroupAlgebraElement.from_element(ColoredArrangement(m, (1,), (1,)), Q)
        gi, d = single_shift_inverse(m, Q)
        assert ga_mul(g, gi) == e.scale(d)
        assert ga_mul(gi, g) == e.scale(d)


def test_all_shifts_inverse_m2_form():
    xi = _color_part(2, 1)
    assert len(xi) == 2
    assert xi.coeff(ColoredArrangement.neutral(2, 1)) == ONE
    assert xi.coeff(ColoredArrangement(2, (1,), (1,))) == -Q
    # one color: the numerator is the denominator (1 - q) times the identity
    assert _color_part(1, 1) == GroupAlgebraElement.identity(1, 1).scale(ONE - Q)


def test_single_shift_inverse_m4_z_q2():
    gi, d = single_shift_inverse(4, Q**2)
    assert d == ONE - Q**8
    for i in range(4):
        assert gi.coeff(ColoredArrangement(4, (1,), (i or 4,))) == Q ** (2 * i)
    # m = 1: plain geometric scalar 1/(1 - q)
    gi, d = single_shift_inverse(1, Q)
    assert gi == GroupAlgebraElement.identity(1, 1)
    assert d == ONE - Q


def test_telescoping_product_on_the_cyclic_algebra():
    m = 3
    e = GroupAlgebraElement.identity(m, 1)
    g = GroupAlgebraElement.from_element(ColoredArrangement(m, (1,), (1,)))
    g2 = GroupAlgebraElement.from_element(ColoredArrangement(m, (1,), (2,)))
    left = e - g.scale(Q)
    right = e + g.scale(Q) + g2.scale(Q**2)
    assert ga_mul(left, right) == e.scale(ONE - Q**3)


def test_coset_power_law_for_cyclic_subgroups():
    # det over the full group is det over the cyclic subgroup raised to the
    # subgroup index m**(n-1) * n!
    import math

    rng = random.Random(12)
    for m, n in [(2, 2), (3, 2)]:
        index = m ** (n - 1) * math.factorial(n)
        for pos in range(1, n + 1):
            for trial in range(3):
                if trial == 0:
                    small = all_shifts_sum(m, Q)
                else:
                    terms = {
                        ColoredArrangement(m, (1,), (k or m,)): P(
                            [rng.randint(-2, 2) for _ in range(2)]
                        )
                        for k in range(m)
                    }
                    small = GroupAlgebraElement(m, 1, terms)
                big = at_position(small, n, pos)
                det_small = rep_det(small, (1,))
                det_big = rep_det(big, tuple(range(1, n + 1)))
                assert det_big == det_small**index


# -- the group sum through its sparse factors ---------------------------------


def factor_elements(m, n, factors):
    return [GroupAlgebraElement(m, n, {pi: P.monomial(e) for pi, e in f}) for f in factors]


def packed(x, width):
    """x as a vector of ``_times_factors``: (v, color word k) at blocks[v] + k."""
    table = group_table(x.m, x.n)
    blocks, vector = group_algebra._blocks(table), [0] * len(table.elements)
    for pi, c in x.terms.items():
        vector[blocks[pi.values] + table.index[pi.colors]] = pack_coeffs(c.coeffs, width)
    return vector


def unpacked(m, n, vector, width):
    table = group_table(m, n)
    blocks = group_algebra._blocks(table)
    colors = list(table.index)
    return GroupAlgebraElement(m, n, {
        ColoredArrangement(m, v, colors[k]): P(unpack_int(vector[b + k], width))
        for v, b in blocks.items() for k in range(len(colors))
    })


def times(x, factors, width, on_left):
    """P * x (``on_left``) or x * P, for P = f_r ... f_1 the product of the
    factors in ``ga_mul``'s order, by the packed kernel, read back at ``width``."""
    table = group_table(x.m, x.n)
    chain = group_algebra._chain(table, group_algebra._blocks(table), factors, on_left)
    return unpacked(x.m, x.n, group_algebra._times_factors(packed(x, width), chain, width), width)


SUM_SIZES = [(1, 1), (1, 2), (2, 1), (3, 1), (1, 4), (2, 3), (3, 2), (4, 2), (3, 3)]


@pytest.mark.parametrize("m,n", SUM_SIZES)
def test_sum_factors_multiply_to_cinv_sum(m, n):
    # dense products, and one term per group element in all
    factors = group_algebra._sum_factors(m, n)
    assert math.prod(map(len, factors)) == len(enumerate_group(m, n))
    e = GroupAlgebraElement.identity(m, n)
    assert reduce(ga_mul, reversed(factor_elements(m, n, factors)), e) == cinv_sum(m, n)


@pytest.mark.parametrize("m,n", [(1, 3), (2, 2), (3, 2), (2, 3), (4, 1)])
def test_each_factor_on_each_side_equals_the_object_level_product(m, n):
    rng = random.Random(31 * m + n)
    x = rand_element(rng, m, n, 6)
    factors = group_algebra._sum_factors(m, n)
    sup = max(max(map(abs, c.coeffs)) for c in x.terms.values())
    for f, element in zip(factors, factor_elements(m, n, factors)):
        width = group_algebra._chain_stride(sup, [f], 0)
        assert times(x, [f], width, True) == ga_mul_reference(element, x)
        assert times(x, [f], width, False) == ga_mul_reference(x, element)


@pytest.mark.parametrize("m,n,sup", [(2, 2, 5), (1, 4, 3), (3, 2, 1)])
def test_chain_stride_is_tight(m, n, sup):
    # x has sup * q**(K - cinv(h)) at every h, so s * x and x * s have
    # sup * |G| * q**K at e: the bound sup * prod |f| is reached, and one
    # bit less cannot read it back
    group, factors = enumerate_group(m, n), group_algebra._sum_factors(m, n)
    top = max(map(cinv, group))
    x = GroupAlgebraElement(m, n, {h: P.monomial(top - cinv(h), sup) for h in group})
    s, e = cinv_sum(m, n), ColoredArrangement.neutral(m, n)
    width = group_algebra._chain_stride(sup, factors, 0)
    assert group_algebra._chain_stride(sup, factors, 2**width) == width + 2
    for on_left, product in ((True, ga_mul(s, x)), (False, ga_mul(x, s))):
        assert product.coeff(e) == P.monomial(top, sup * len(group))
        assert times(x, factors, width, on_left) == product
        assert times(x, factors, width - 1, on_left).coeff(e) != product.coeff(e)


def corrupted_factors(m, n):
    """(name, factors) with one T_j exponent off by one or one C_p color dropped."""
    factors = group_algebra._sum_factors(m, n)
    for i, f in enumerate(factors):
        if f[0][0].colors.count(m) == n:  # T_j: its first term, k = 1
            (pi, e), *rest = f
            yield f"T{i + 2} exponent", factors[:i] + [((pi, e + 1), *rest)] + factors[i + 1 :]
        else:  # C_p: its last color dropped
            yield f"C{i - n + 2} color", factors[:i] + [f[:-1]] + factors[i + 1 :]


@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 2)])
def test_a_wrong_factor_fails_check_a(monkeypatch, m, n):
    # check (a) rejects each wrong factor list before (b) runs: one kernel call
    kernel, calls = group_algebra._times_factors, []
    monkeypatch.setattr(group_algebra, "_times_factors", lambda *a: calls.append(1) or kernel(*a))
    inverse_closed_form(m, n)
    for name, factors in corrupted_factors(m, n):
        assert reduce(ga_mul, reversed(factor_elements(m, n, factors))) != cinv_sum(m, n), name
        monkeypatch.setattr(group_algebra, "_sum_factors", lambda *_: factors)
        calls.clear()
        assert verify_inverse(m, n) is False and len(calls) == 1, name


def test_check_a_decides_a_consistent_wrong_product(monkeypatch):
    # Each wrong product has an exact inverse N over D, so (b) alone holds:
    # at (1, 2), T_2 = e + q**2 t has N = e - q**2 t and D = 1 - q**4; at
    # (2, 1), C_1 without its color is e, with N = e and D = 1.
    t = ColoredArrangement(1, (2, 1), (1, 1))
    e12, e21 = ColoredArrangement.neutral(1, 2), ColoredArrangement.neutral(2, 1)
    cases = [
        (1, 2, [((t, 2), (e12, 0))], {e12: ONE, t: -Q**2}, ONE - Q**4),
        (2, 1, [((e21, 0),)], {e21: ONE}, ONE),
    ]
    for m, n, factors, x, d in cases:
        inverse = GroupAlgebraElement(m, n, x)
        wrong = reduce(ga_mul, reversed(factor_elements(m, n, factors)))
        identity = GroupAlgebraElement.identity(m, n).scale(d)
        assert ga_mul(inverse, wrong) == identity == ga_mul(wrong, inverse)
        assert wrong != cinv_sum(m, n)
        with monkeypatch.context() as patch:
            patch.setattr(group_algebra, "_sum_factors", lambda *_: factors)
            assert group_algebra.inverts_cinv_sum(m, n, [(ONE, x)], d) is False
    # the true inverse of the group sum at (1, 2) passes: (1 - q t)/(1 - q**2)
    assert group_algebra.inverts_cinv_sum(1, 2, [(ONE, {e12: ONE, t: -Q})], ONE - Q**2)
