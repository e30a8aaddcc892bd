import math
import random
import time
from itertools import permutations

import pytest

from quonalg import colored_perm
from quonalg.colored_perm import (
    ColoredArrangement,
    GroupTable,
    act,
    as_multiset,
    cinv,
    enumerate_arrangements,
    enumerate_group,
    group_table,
    insertion_cycle,
    parse_word,
    word_str,
)
from quonalg.exact_arith import Polynomial

from lemmas import decompose, inverse

P = Polynomial
ONE = P.one()
Q = P.q()


def random_element(rng, m, n):
    values = tuple(rng.sample(range(1, n + 1), n))
    colors = tuple(rng.randint(1, m) for _ in range(n))
    return ColoredArrangement(m, values, colors)


def test_cinv_worked_values():
    assert cinv(ColoredArrangement(4, (2, 1, 3), (1, 3, 3))) == 4
    assert cinv(ColoredArrangement(4, (3, 1, 2), (3, 3, 1))) == 5
    assert cinv(ColoredArrangement.neutral(5, 4)) == 0
    # one color: plain inversion count
    assert cinv(ColoredArrangement(1, (3, 2, 1), (1, 1, 1))) == 3


def test_act_reproduces_the_worked_bra():
    theta = ColoredArrangement(4, (5, 2, 2), (2, 3, 1))
    target = ColoredArrangement(4, (2, 5, 2), (4, 1, 4))
    assert act(theta, ColoredArrangement(4, (2, 1, 3), (1, 3, 3))) == target
    assert act(theta, ColoredArrangement(4, (3, 1, 2), (3, 3, 1))) == target


def test_neutral_element_acts_trivially():
    rng = random.Random(7)
    for m, n in [(1, 3), (2, 3), (3, 2), (4, 4)]:
        e = ColoredArrangement.neutral(m, n)
        for _ in range(20):
            values = tuple(rng.choice(range(1, 6)) for _ in range(n))
            colors = tuple(rng.randint(1, m) for _ in range(n))
            theta = ColoredArrangement(m, values, colors)
            assert act(theta, e) == theta


def test_act_on_identity_embeds_the_permutation():
    rng = random.Random(1)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        pi = random_element(rng, m, n)
        identity_arr = ColoredArrangement(m, tuple(range(1, n + 1)), (m,) * n)
        assert act(identity_arr, pi) == pi


def test_act_size_mismatch_raises():
    theta = ColoredArrangement(2, (1, 2), (2, 2))
    with pytest.raises(ValueError):
        act(theta, ColoredArrangement.neutral(2, 3))
    with pytest.raises(ValueError):
        act(theta, ColoredArrangement.neutral(3, 2))


def test_act_on_a_group_element_or_an_arrangement_builds_an_arrangement():
    pi = ColoredArrangement(3, (2, 1), (1, 3))
    got = act(ColoredArrangement(3, (2, 1), (2, 2)), pi)
    assert type(got) is ColoredArrangement and got == ColoredArrangement(3, (1, 2), (3, 2))
    got = act(ColoredArrangement(3, (4, 4), (2, 2)), pi)
    assert type(got) is ColoredArrangement and got == ColoredArrangement(3, (4, 4), (3, 2))


@pytest.mark.parametrize("m,n", [(1, 0), (2, 1), (3, 2), (2, 3), (1, 4)])
def test_the_group_is_the_cached_arrangements_of_one_to_n(m, n):
    group = enumerate_group(m, n)
    assert group is enumerate_arrangements(m, range(1, n + 1))
    assert group is enumerate_arrangements(m, range(n, 0, -1))
    table = group_table(m, n)
    assert table.basis(tuple(range(1, n + 1)))[0] is table.elements is group


def test_act_on_one_position_adds_colors():
    for m in (1, 2, 3, 5):
        for c in range(1, m + 1):
            for d in range(1, m + 1):
                theta = ColoredArrangement(m, (7,), (c,))
                got = act(theta, ColoredArrangement(m, (1,), (d,)))
                assert got == ColoredArrangement(m, (7,), ((c + d) % m or m,))


def test_group_table_compiles_every_element():
    for m, n in [(1, 3), (2, 2), (3, 2), (2, 3)]:
        group = enumerate_group(m, n)
        table = group_table(m, n)
        assert table.elements is group
        assert table.cinvs == tuple(cinv(pi) for pi in group)
        assert len(table.moves) == math.factorial(n)
        assert sorted(c for _, _, cinvs in table.moves for c in cinvs) == sorted(table.cinvs)
        # the identity's images are the group itself, in the order of the moves
        identity = ColoredArrangement.neutral(m, n)
        image = table.basis(tuple(range(1, n + 1)))[1]
        walked = [
            (group[i], c)
            for targets, cinvs in table.walk(image, table.moves, identity.values, identity.colors)
            for i, c in zip(targets, cinvs)
        ]
        assert sorted(walked, key=lambda t: group.index(t[0])) == list(zip(group, table.cinvs))


def table_mismatches(table, multiset, as_group, sparse_seed=None):
    """The (ket, pi) pairs where the walk of ``table`` and ``act`` disagree.

    Every basis element of the multiset (the group itself when ``as_group``)
    is walked by the whole group, compiled with each element as its own
    payload, or by a seeded sparse subset of it when ``sparse_seed`` is set.
    """
    m, n = table.m, len(multiset)
    basis = enumerate_group(m, n) if as_group else enumerate_arrangements(m, multiset)
    group = list(enumerate_group(m, n))
    if sparse_seed is not None:
        group = random.Random(sparse_seed).sample(group, max(1, len(group) // 3))
    moves = table.compile((pi, pi) for pi in group)
    image = table.basis(multiset)[1]
    bad, seen = [], 0
    for ket in basis:
        for targets, pis in table.walk(image, moves, ket.values, ket.colors):
            for i, pi in zip(targets, pis):
                seen += 1
                if basis[i] != act(ket, pi):
                    bad.append((ket, pi))
    assert seen == len(basis) * len(group)
    return bad


COMPILED_CASES = [
    (1, (1, 2, 3)), (2, (1, 2)), (3, (1, 2)), (2, (1, 2, 3)),
    (3, ()), (1, (1,)), (4, (1,)), (2, (1, 1, 2)), (3, (2, 2)),
]


@pytest.mark.parametrize("m,multiset", COMPILED_CASES)
def test_compiled_action_equals_act_exhaustively(m, multiset):
    regular = multiset == tuple(range(1, len(multiset) + 1))
    for as_group in (False, True) if regular else (False,):
        # a fresh table: a sparse walk first, then the whole group
        table = GroupTable(m, len(multiset))
        for sparse_seed in (5, None):
            assert table_mismatches(table, multiset, as_group, sparse_seed) == []


def test_a_color_sum_off_by_one_is_caught(monkeypatch):
    real_sums = GroupTable.sums

    def shifted(self, a, ps):
        row = list(real_sums(self, a, ps))
        row[-1] = (row[-1] + 1) % len(self.index)
        return row

    monkeypatch.setattr(GroupTable, "sums", shifted)
    for m, multiset in [(2, (1, 2)), (3, (1,)), (2, (1, 1, 2))]:
        assert table_mismatches(GroupTable(m, len(multiset)), multiset, False)


def test_color_sum_rows_call_act_only_for_the_generators(monkeypatch):
    calls = 0

    def counted_act(theta, pi):
        nonlocal calls
        calls += 1
        return act(theta, pi)

    monkeypatch.setattr(colored_perm, "act", counted_act)
    for m, n in [(1, 3), (2, 3), (3, 2), (5, 2), (4, 1)]:
        table, size = GroupTable(m, n), m**n
        calls = 0
        # a walk may ask for a few entries of a row first
        last = size - 1
        assert table.sums(last, (0, last)) == [last, table.sums(last, None)[last]]
        for a in range(size):
            assert table.sums(a, None) == tuple(
                table.index[act(table.elements[a], table.elements[p]).colors]
                for p in range(size)
            )
        # m**n act calls for each of the n generators, none for m = 1
        assert calls == (n * size if m > 1 else 0), (m, n)


@pytest.mark.parametrize(
    "m,multiset",
    [
        (1, ()), (3, ()), (1, (1, 1, 2)), (1, (2, 2, 2)), (1, (1, 2, 3, 4)), (2, (1, 1, 2)),
        (2, (1, 2, 3)), (3, (1, 1)), (3, (1, 1, 2)), (2, (1, 1, 2, 2)), (2, (1, 1, 2, 3)),
        (4, (1, 2, 2)), (3, (1, 2, 2, 3)), (2, (1, 1, 2, 3, 3)),
    ],
)
def test_the_symmetries_act_freely_with_orbits_of_the_predicted_size(m, multiset):
    # size / (|Aut(I)| * m**k) orbits, Aut(I) the permutations of the k
    # distinct modes that keep their multiplicities.  Every column is the
    # identity labels at its orbit's first element, so column t = g.r holds
    # the positions g^-1.i, and its entry t is r.
    table = GroupTable(m, len(multiset))
    basis = table.basis(multiset)[0]
    walked = []
    labels = list(range(len(basis)))
    columns = table.columns(multiset, lambda theta: walked.append(theta) or labels)
    mults = [multiset.count(a) for a in set(multiset)]
    orbit = math.prod(math.factorial(mults.count(k)) for k in set(mults)) * m ** len(mults)
    assert len(walked) * orbit == len(basis)
    roots = [column[t] for t, column in enumerate(columns)]
    assert sorted(set(roots)) == [basis.index(theta) for theta in walked]
    assert all(roots.count(r) == orbit for r in set(roots))
    assert all(sorted(column) == list(range(len(basis))) for column in columns)


def test_act_rejects_colors_outside_the_range():
    good = ColoredArrangement(2, (1, 2), (1, 2))
    for theta, pi in [
        (ColoredArrangement(2, (1, 2), (0, 1)), ColoredArrangement(2, (1, 2), (5, 1))),
        (ColoredArrangement(2, (1, 2), (0, 1)), good),
        (ColoredArrangement(2, (1, 2), (1, 1)), ColoredArrangement(2, (1, 2), (5, 1))),
    ]:
        with pytest.raises(ValueError, match=r"color (0|5) outside 1\.\.2"):
            act(theta, pi)


def test_inverse_defining_property():
    rng = random.Random(99)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(0, 6)
        pi = random_element(rng, m, n)
        e = ColoredArrangement.neutral(m, n)
        assert act(pi, inverse(pi)) == e
        assert act(inverse(pi), pi) == e
        assert cinv(inverse(pi)) == cinv(pi)
    assert inverse(ColoredArrangement.neutral(3, 4)) == ColoredArrangement.neutral(3, 4)


def test_inverse_two_position_case():
    # colors are forced by composing back to the neutral element
    pi = ColoredArrangement(2, (2, 1), (1, 2))
    got = inverse(pi)
    assert got.values == (2, 1)
    assert got.colors == (2, 1)
    assert act(pi, got) == ColoredArrangement.neutral(2, 2)


def test_group_axioms_exhaustive():
    for m in (1, 2, 3):
        for n in (0, 1, 2, 3):
            group = enumerate_group(m, n)
            assert len(group) == m**n * math.factorial(n)
            assert len(set(group)) == len(group)
            index = {g: i for i, g in enumerate(group)}
            e = ColoredArrangement.neutral(m, n)
            assert e in index
            # closure + identity + inverse via the multiplication table
            table = [
                [index[act(g, h)] for h in group] for g in group
            ]
            ei = index[e]
            for gi, g in enumerate(group):
                assert table[gi][ei] == gi
                assert table[ei][gi] == gi
                assert table[gi][index[inverse(g)]] == ei
            # associativity on the table (index arithmetic only)
            size = len(group)
            if size <= 54:
                for a in range(size):
                    ta = table[a]
                    for b in range(size):
                        tab = table[ta[b]]
                        tb = table[b]
                        for c in range(size):
                            assert tab[c] == ta[tb[c]]


def test_act_is_a_right_action_exhaustive():
    for m in (1, 2):
        for n in (1, 2, 3):
            group = enumerate_group(m, n)
            arrangements = enumerate_arrangements(m, (2,) * n)
            for theta in arrangements:
                for p1 in group:
                    for p2 in group:
                        assert act(act(theta, p1), p2) == act(theta, act(p1, p2))


def test_cinv_generating_function_factors():
    # sum of q^cinv = (inversion generating function) * (1 + (m-1) q)^n
    for m in range(1, 5):
        for n in range(0, 5):
            total = P.zero()
            for g in enumerate_group(m, n):
                total = total + Q ** cinv(g)
            assert total.evaluate(1) == m**n * math.factorial(n)
            by_brute = P.zero()
            for g in enumerate_group(1, n):
                by_brute = by_brute + Q ** cinv(g)
            assert total == by_brute * (ONE + (m - 1) * Q) ** n


def test_decompose_exhaustive_2_3():
    for g in enumerate_group(2, 3):
        perm_part, color_part = decompose(g)
        assert act(perm_part, color_part) == g
        assert cinv(perm_part) + cinv(color_part) == cinv(g)
        assert set(perm_part.colors) <= {2}
        assert color_part.values == (1, 2, 3)
    e = ColoredArrangement.neutral(2, 3)
    assert decompose(e) == (e, e)
    pure = ColoredArrangement(2, (1, 2, 3), (1, 2, 1))
    assert decompose(pure) == (e, pure)


def test_enumeration_counts():
    assert len(enumerate_group(1, 2)) == 2
    assert len(enumerate_group(3, 2)) == 18
    assert len(enumerate_group(2, 3)) == 48
    assert len(enumerate_arrangements(3, (1, 2))) == 18
    assert len(enumerate_arrangements(2, (2, 2))) == 4
    assert len(enumerate_arrangements(4, (2, 2, 5))) == 192
    assert len(set(enumerate_arrangements(4, (2, 2, 5)))) == 192
    assert enumerate_group(2, 0) == (ColoredArrangement.neutral(2, 0),)


def test_enumeration_order_first_row_pattern():
    exps = [cinv(g) for g in enumerate_group(3, 2)]
    assert exps == [0, 1, 1, 1, 2, 2, 1, 2, 2, 1, 2, 2, 2, 3, 3, 2, 3, 3]
    # neutral element first, identity value word block first
    group = enumerate_group(3, 2)
    assert group[0] == ColoredArrangement.neutral(3, 2)
    assert all(g.values == (1, 2) for g in group[:9])


@pytest.mark.parametrize(
    "multiset",
    [(), (1,), (1, 1), (1, 2), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 2, 2),
     (1, 2, 2, 3), (1, 1, 1, 2, 3), (1, 2, 3, 4), (1, 1, 2, 2, 3, 3)],
)
def test_value_words_ascend_without_repeats(multiset):
    for m in (1, 2):
        basis = enumerate_arrangements(m, multiset)
        words = list(dict.fromkeys(theta.values for theta in basis))
        assert words == sorted(set(permutations(multiset)))
        assert len(basis) == len(words) * m ** len(multiset)


def test_equal_modes_enumerate_without_forming_all_permutations():
    # twelve equal modes have one arrangement but 12! = 479,001,600 permutations
    start = time.perf_counter()
    basis = enumerate_arrangements(1, (1,) * 12)
    assert time.perf_counter() - start < 0.5
    assert basis == (ColoredArrangement(1, (1,) * 12, (1,) * 12),)


def test_word_strings():
    w = parse_word("(2,4)(5,1)(2,4)")
    assert w == ((2, 4), (5, 1), (2, 4))
    assert word_str(w) == "(2,4)(5,1)(2,4)"
    assert parse_word("()") == () == parse_word("")
    assert word_str(()) == "()"
    with pytest.raises(ValueError):
        parse_word("(1,2")
    with pytest.raises(ValueError):
        parse_word("(1)")


def test_multiset_canonicalization():
    assert as_multiset([5, 2, 2]) == (2, 2, 5)
    with pytest.raises(ValueError):
        as_multiset([0, 1])


def test_insertion_cycle_words_and_inversions():
    assert insertion_cycle(1, 3, 3, 1).values == (3, 1, 2)
    assert insertion_cycle(1, 3, 3, 2).values == (1, 3, 2)
    assert insertion_cycle(1, 5, 4, 2).values == (1, 4, 2, 3, 5)
    for n in range(1, 6):
        for j in range(1, n + 1):
            for k in range(1, j + 1):
                assert cinv(insertion_cycle(1, n, j, k)) == j - k

