import csv
import io
from fractions import Fraction
from math import factorial

import pytest

from quonalg import colored_perm, quon_engine
from quonalg.colored_perm import enumerate_group
from quonalg.exact_arith import Polynomial
from quonalg.gram import (
    _build_gram_cached,
    build_gram,
    gram_csv_text,
    gram_json_data,
    verify_representation,
)

from golden_block import GOLDEN_M3_N2_EXPONENTS
from lemmas import kron, parse_rational_function

P = Polynomial
ONE = P.one()
Q = P.q()


def test_golden_block_operator_path():
    block = build_gram(3, (1, 2), path="operator")
    assert block.size == 18
    for i in range(18):
        for j in range(18):
            assert block.entries[i][j] == Q ** GOLDEN_M3_N2_EXPONENTS[i][j], (i, j)


def test_golden_block_combinatorial_path():
    block = build_gram(3, (1, 2), path="combinatorial")
    for i in range(18):
        for j in range(18):
            assert block.entries[i][j] == Q ** GOLDEN_M3_N2_EXPONENTS[i][j]


def test_two_positions_one_color():
    block = build_gram(1, (1, 2))
    assert [[str(c) for c in row] for row in block.entries] == [["1", "q"], ["q", "1"]]


def test_symmetry_and_identity_at_q0():
    for m, multiset in [(1, (1, 2)), (2, (2, 2)), (2, (1, 2, 3)), (3, (1, 2)), (2, (2, 2, 5))]:
        block = build_gram(m, multiset)
        for i in range(block.size):
            for j in range(block.size):
                assert block.entries[i][j] == block.entries[j][i]
                assert block.entries[i][j].evaluate(Fraction(0)) == int(i == j)


def test_repeated_mode_diagonal_counts_the_stabilizer():
    # with repeated modes the diagonal is the q^cinv sum over the stabilizer
    block = build_gram(2, (2, 2))
    assert block.entries[0][0] == ONE + Q
    block = build_gram(2, (2, 2, 5))
    assert block.entries[0][0] == ONE + Q


def test_distinct_mode_diagonal_is_one():
    for m, multiset in [(2, (1, 2)), (3, (1, 2)), (2, (1, 2, 3))]:
        block = build_gram(m, multiset)
        for i in range(block.size):
            assert block.entries[i][i] == ONE


def test_unknown_path_rejected():
    with pytest.raises(ValueError):
        build_gram(2, (1, 2), path="magic")


@pytest.mark.parametrize(
    "m,multiset",
    [(3, (1, 2)), (2, (2, 2)), (1, (1, 2, 3)), (2, (2, 2, 5))],
)
def test_block_equals_representation_matrix(m, multiset):
    assert verify_representation(m, multiset)


def test_csv_and_json_carry_identical_content():
    block = build_gram(2, (1, 2))
    rows = list(csv.reader(io.StringIO(gram_csv_text(block))))
    data = gram_json_data(block)
    assert rows[0] == data["basis"]
    assert rows[1:] == data["entries"]
    # canonical strings reparse to the same entries
    for i, row in enumerate(data["entries"]):
        for j, cell in enumerate(row):
            parsed = parse_rational_function(cell)
            assert parsed == block.entries[i][j]
            assert hash(parsed) == hash(block.entries[i][j])


def test_combinatorial_path_walks_the_group_once_per_ket(monkeypatch):
    walks = builds = lookups = 0
    real_walk = colored_perm.GroupTable.walk

    def counted_walk(self, image, moves, values, colors):
        nonlocal walks, builds, lookups
        walks += 1
        for targets, payloads in real_walk(self, image, moves, values, colors):
            builds += 1  # the value and color words of one permutation
            targets = list(targets)
            lookups += len(targets)
            yield targets, payloads

    monkeypatch.setattr(colored_perm.GroupTable, "walk", counted_walk)
    m, multiset = 2, (1, 1, 2)
    block = _build_gram_cached.__wrapped__(m, multiset, "combinatorial")
    group = enumerate_group(m, len(multiset))
    assert block.size == 24 and len(group) == 48
    assert walks == block.size
    assert builds == block.size * factorial(len(multiset))
    assert lookups == block.size * len(group)
    assert block == build_gram(m, multiset, "operator")


def test_combinatorial_path_counts_cinv_once_per_group_element(monkeypatch):
    calls = 0
    real_cinv = colored_perm.cinv

    def counted_cinv(pi):
        nonlocal calls
        calls += 1
        return real_cinv(pi)

    monkeypatch.setattr(colored_perm, "cinv", counted_cinv)
    colored_perm.group_table.cache_clear()
    try:
        m, multiset = 2, (1, 1, 2)
        block = _build_gram_cached.__wrapped__(m, multiset, "combinatorial")
    finally:
        colored_perm.group_table.cache_clear()
    group = enumerate_group(m, len(multiset))
    # once per element of the group, not once per (ket, element) pair
    assert block.size == 24 and calls == len(group) == 48
    assert block == build_gram(m, multiset, "operator")


def test_operator_path_shares_annihilator_steps_between_bras(monkeypatch):
    calls = 0
    real_annihilate = quon_engine._annihilate

    def counted_annihilate(*args):
        nonlocal calls
        calls += 1
        return real_annihilate(*args)

    def nodes(node):
        return sum(1 + nodes(child) for token, child in node.items() if token is not None)

    monkeypatch.setattr(quon_engine, "_annihilate", counted_annihilate)
    m, multiset = 2, (1, 2, 3)
    block = _build_gram_cached.__wrapped__(m, multiset, "operator")
    trie = quon_engine.annihilator_trie(m, [bra.tokens for bra in block.basis])
    assert block.size == 48 and nodes(trie) == 6 + 6 * 4 + 6 * 4 * 2 == 78
    # one step per trie node for all kets at once; one walk per ket took up
    # to size * 78 = 3,744 steps, reducing each entry alone size**2 * n = 6,912
    assert 0 < calls <= nodes(trie)
    assert block == build_gram(m, multiset, "combinatorial")


@pytest.mark.parametrize("path", ["operator", "combinatorial"])
@pytest.mark.parametrize(
    "m,multiset",
    [(3, (1, 2)), (2, (2, 2)), (1, (1, 2, 3)), (2, (1, 1, 2)), (2, (1, 2, 3))],
)
def test_equal_entries_of_a_block_are_one_object(m, multiset, path):
    entries = [e for row in build_gram(m, multiset, path).entries for e in row]
    assert len({id(e) for e in entries}) == len(set(entries))


def test_regular_block_is_a_tensor_product():
    # build_gram(m, (1..n)) = Q_n (x) K (x) ... (x) K, n factors K, with
    # Q_n = build_gram(1, (1..n)) and K = (1-q) I_m + q J_m, exactly in ZZ[q].
    for m, n in [(2, 2), (3, 2), (2, 3), (4, 2), (5, 2), (3, 3)]:
        word = tuple(range(1, n + 1))
        color = [[ONE if i == j else Q for j in range(m)] for i in range(m)]
        expected = build_gram(1, word).entries
        for _ in range(n):
            expected = kron(expected, color)
        assert build_gram(m, word).entries == tuple(map(tuple, expected)), (m, n)
