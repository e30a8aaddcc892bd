import random

import pytest

from quonalg import group_algebra, linalg
from quonalg.colored_perm import (
    ColoredPermutation,
    cinv,
    enumerate_arrangements,
    enumerate_group,
)
from quonalg.exact_arith import Polynomial
from quonalg.formulas import _color_part, det_factorization, inverse_closed_form
from quonalg.group_algebra import (
    GroupAlgebraElement,
    cinv_sum,
    ga_mul,
    product_chain,
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
        GroupAlgebraElement(2, 2, {ColoredPermutation.neutral(2, 3): 1})


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (1, 4)])
def test_ga_mul_equals_the_object_level_product(m, n):
    rng = random.Random(m * 10 + n)
    noncommuting = 0
    for _ in range(20):
        x, y = rand_element(rng, m, n, 6), rand_element(rng, m, n, 6)
        xy = ga_mul(x, y)
        assert xy.terms == ga_mul_reference(x, y).terms
        assert all(type(pi) is ColoredPermutation for pi in xy.terms)
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
    t = GroupAlgebraElement.from_element(ColoredPermutation(1, (2, 1), (1, 1)))
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
    pi, swapped = (ColoredPermutation(m, w, (m,) * 3) for w in ((1, 2, 3), (2, 1, 3)))
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
        GroupAlgebraElement(2, 2, {ColoredPermutation(2, (1, 2), (3, 1)): 1})


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
        assert rep.entries[i][0] == Q ** cinv(ColoredPermutation(3, theta.values, theta.colors))


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
        g = e - GroupAlgebraElement.from_element(ColoredPermutation(m, (1,), (1,)), Q)
        gi, d = single_shift_inverse(m, Q)
        assert ga_mul(g, gi) == e.scale(d)
        assert ga_mul(gi, g) == e.scale(d)


def test_all_shifts_inverse_m2_form():
    xi = _color_part(2, 1)
    assert len(xi) == 2
    assert xi.coeff(ColoredPermutation.neutral(2, 1)) == ONE
    assert xi.coeff(ColoredPermutation(2, (1,), (1,))) == -Q
    # one color: the numerator is the denominator (1 - q) times the identity
    assert _color_part(1, 1) == GroupAlgebraElement.identity(1, 1).scale(ONE - Q)


def test_single_shift_inverse_m4_z_q2():
    gi, d = single_shift_inverse(4, Q**2)
    assert d == ONE - Q**8
    for i in range(4):
        assert gi.coeff(ColoredPermutation(4, (1,), (i or 4,))) == Q ** (2 * i)
    # m = 1: plain geometric scalar 1/(1 - q)
    gi, d = single_shift_inverse(1, Q)
    assert gi == GroupAlgebraElement.identity(1, 1)
    assert d == ONE - Q


def test_telescoping_product_on_the_cyclic_algebra():
    m = 3
    e = GroupAlgebraElement.identity(m, 1)
    g = GroupAlgebraElement.from_element(ColoredPermutation(m, (1,), (1,)))
    g2 = GroupAlgebraElement.from_element(ColoredPermutation(m, (1,), (2,)))
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
                        ColoredPermutation(m, (1,), (k or m,)): P(
                            [rng.randint(-2, 2) for _ in range(2)]
                        )
                        for k in range(m)
                    }
                    small = GroupAlgebraElement(m, 1, terms)
                big = at_position(small, n, pos)
                det_small = rep_det(small, (1,))
                det_big = rep_det(big, tuple(range(1, n + 1)))
                assert det_big == det_small**index


def test_product_chain_covariance():
    rng = random.Random(3)
    x, y = rand_element(rng, 2, 2), rand_element(rng, 2, 2)
    chained = product_chain([x, y])
    rx = [list(r) for r in rep_matrix(x, (1, 2)).entries]
    ry = [list(r) for r in rep_matrix(y, (1, 2)).entries]
    rc = [list(r) for r in rep_matrix(chained, (1, 2)).entries]
    assert rc == matmul(ry, rx)
    with pytest.raises(ValueError):
        product_chain([])
