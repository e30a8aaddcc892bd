import math
import random
from fractions import Fraction

import pytest

from quonalg.exact_arith import Polynomial, RationalFunction
from quonalg.gram import build_gram
from quonalg import linalg, posdef
from quonalg.group_algebra import Block
from quonalg.posdef import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    SINGULAR,
    certify,
    certify_block,
    classify_minors,
    interval_of_definiteness,
    scan,
)

from lemmas import evaluate_block, fraction_minors


def test_classify_minors():
    assert classify_minors([Fraction(1), Fraction(2)]) == POSITIVE_DEFINITE
    assert classify_minors([Fraction(1), Fraction(0), Fraction(0)]) == SINGULAR
    assert classify_minors([Fraction(1), Fraction(-1), Fraction(0)]) == INDEFINITE
    assert classify_minors([]) == POSITIVE_DEFINITE


def hand_block(rows):
    polys = tuple(tuple(Polynomial.constant(v) for v in row) for row in rows)
    return Block(m=1, multiset=(1,) * len(rows), basis=tuple(range(len(rows))), entries=polys)


def test_certify_block_zero_minor_verdicts():
    # a zero leading minor of a nonsingular block: neither definite nor singular
    report = certify_block(hand_block([[0, 1], [1, 0]]), Fraction(1, 2))
    assert report.minors == (0, -1)
    assert report.verdict == INDEFINITE
    assert classify_minors([Fraction(1), Fraction(0), Fraction(2)]) == INDEFINITE
    report = certify_block(hand_block([[0, 0], [0, 1]]), Fraction(1, 2))
    assert report.minors == (0, 0)
    assert report.verdict == SINGULAR


def test_identity_at_q0():
    report = certify(3, 2, 0)
    assert report.verdict == POSITIVE_DEFINITE
    assert all(value == 1 for value in report.minors)


def test_two_by_two_minors():
    report = certify(1, 2, Fraction(1, 2))
    assert report.minors == (Fraction(1), Fraction(3, 4))
    assert report.verdict == POSITIVE_DEFINITE


def test_singular_points():
    assert certify(3, 2, 1).verdict == SINGULAR
    assert certify(3, 2, Fraction(-1, 2)).verdict == SINGULAR
    assert certify(1, 2, -1).verdict == SINGULAR


def test_leading_minors_on_block():
    block = build_gram(1, (1, 2))
    assert certify_block(block, Fraction(1, 2)).minors == (Fraction(1), Fraction(3, 4))


def test_integer_evaluation_matches_fraction_evaluation():
    # The reference takes each minor of the Fraction evaluation by its own
    # Gaussian elimination, sharing no code with linalg or the integer route.
    rng = random.Random(707)
    cases = [(1, (1, 2, 3)), (2, (1, 2)), (2, (1, 1, 2)), (3, (1, 2)), (1, (1, 1, 2, 2))]
    for m, multiset in cases:
        block = build_gram(m, multiset)
        lo, hi = interval_of_definiteness(m)
        points = [
            lo,
            hi,
            Fraction(-rng.randrange(1, 40), rng.randrange(1, 40)),
            Fraction(rng.randrange(-(2**16), 2**16), rng.randrange(2**16, 2**17)),
            Fraction(-rng.randrange(2**16, 2**17), rng.randrange(2**16, 2**17)),
            Fraction(rng.randrange(-3, 4)),
        ]
        for q0 in points:
            expected = fraction_minors(evaluate_block(block, q0))
            assert list(certify_block(block, q0).minors) == expected
    # Regular blocks that take the tensor-product split, at both endpoints
    # and at one interior point whose reduced denominator has 17 bits
    # (2**17 - 1 is prime).
    for m, n in [(4, 2), (2, 3), (5, 2)]:
        block = build_gram(m, tuple(range(1, n + 1)))
        lo, hi = interval_of_definiteness(m)
        den = 2**17 - 1
        inside = Fraction(rng.randrange(math.floor(lo * den) + 1, den), den)
        assert lo < inside < hi and inside.denominator.bit_length() == 17
        for q0 in (lo, hi, inside):
            expected = fraction_minors(evaluate_block(block, q0))
            assert list(certify_block(block, q0).minors) == expected
    # Equal entries held by separate Polynomial objects, as a block built
    # outside build_gram may hold them.
    block = build_gram(2, (1, 2))
    entries = tuple(tuple(Polynomial(e.coeffs) for e in row) for row in block.entries)
    copied = Block(m=block.m, multiset=block.multiset, basis=block.basis, entries=entries)
    flat = [e for row in entries for e in row]
    assert len(set(map(id, flat))) == len(flat) > len(set(flat))
    for q0 in (Fraction(-1), Fraction(1), Fraction(2, 7)):
        expected = fraction_minors(evaluate_block(copied, q0))
        assert list(certify_block(copied, q0).minors) == expected


def test_integer_evaluation_needs_polynomial_entries(monkeypatch):
    # The entries are checked before any of them is packed for the split.
    def no_tree_work(rows, x):
        raise AssertionError("packed before the entries were checked")

    monkeypatch.setattr(linalg, "_ints_at", no_tree_work)
    one = Polynomial.one()
    entry = RationalFunction(one, one - Polynomial.q())
    block = Block(m=1, multiset=(1,), basis=("x",), entries=((entry,),))
    with pytest.raises(ValueError):
        certify_block(block, Fraction(1, 2))
    q = Polynomial.q()
    block = Block(m=1, multiset=(1, 1), basis=(0, 1), entries=((one, q), (q, entry)))
    with pytest.raises(ValueError):
        certify_block(block, Fraction(1, 2))


def copy_block(block, entries=None):
    """A fresh ``Block`` with the same fields, so nothing cached on ``block``."""
    entries = block.entries if entries is None else entries
    return Block(m=block.m, multiset=block.multiset, basis=block.basis, entries=entries)


def test_cached_tree_gives_the_minors_of_a_fresh_block():
    block = build_gram(2, (1, 2, 3))
    points = [Fraction(-1), Fraction(1, 3), Fraction(-54321, 2**17 - 1), Fraction(1)]
    cached = [certify_block(block, q0) for q0 in points]
    assert "split_tree" in vars(block) and block.symmetric
    fresh = copy_block(block)
    assert fresh == block and hash(fresh) == hash(block) and "split_tree" not in vars(fresh)
    assert [certify_block(fresh, q0) for q0 in points] == cached
    assert [certify_block(block, q0) for q0 in points] == cached
    assert list(cached[1].minors) == fraction_minors(evaluate_block(block, points[1]))


def test_a_near_miss_in_one_leaf_entry_does_not_split():
    # (2, {1, 2}) is Q_2 (x) K (x) K; one diagonal entry off, in the last
    # copy of K, leaves a symmetric block that is no tensor product.
    block = build_gram(2, (1, 2))
    entries = [list(row) for row in block.entries]
    entries[-1][-1] = entries[-1][-1] + Polynomial.q()
    near = copy_block(block, tuple(map(tuple, entries)))
    assert block.split_tree[1] is not None and near.split_tree[1] is None and near.symmetric
    for q0 in (Fraction(-1), Fraction(1, 3), Fraction(1)):
        assert list(certify_block(near, q0).minors) == fraction_minors(evaluate_block(near, q0))


def test_scan_splits_the_block_only_while_its_tree_is_built(monkeypatch):
    calls = 0
    tensor_split = linalg._tensor_split

    def counted(rows):
        nonlocal calls
        calls += 1
        return tensor_split(rows)

    monkeypatch.setattr(linalg, "_tensor_split", counted)
    block = copy_block(build_gram(3, (1, 2, 3)))
    monkeypatch.setattr(posdef, "build_gram", lambda m, multiset: block)
    # One call per node of the tree: 3 splits, leaves Q_3 and three K.
    assert len(scan(3, 3, Fraction(-1, 2), 1, 9)) == 9
    assert calls == 7
    assert len(scan(3, 3, Fraction(-1, 3), Fraction(1, 2), 9)) == 9
    assert calls == 7


def test_scan_structure():
    reports = scan(3, 2, Fraction(-1, 2), 1, 7)
    assert len(reports) == 7
    assert reports[0].q0 == Fraction(-1, 2) and reports[-1].q0 == 1
    assert reports[0].verdict == SINGULAR and reports[-1].verdict == SINGULAR
    assert all(r.verdict == POSITIVE_DEFINITE for r in reports[1:-1])

    reports = scan(1, 2, -1, 1, 5)
    assert [r.verdict for r in reports] == [
        SINGULAR,
        POSITIVE_DEFINITE,
        POSITIVE_DEFINITE,
        POSITIVE_DEFINITE,
        SINGULAR,
    ]

    reports = scan(2, 1, -2, 2, 9)
    for report in reports:
        if abs(report.q0) < 1:
            assert report.verdict == POSITIVE_DEFINITE
        elif abs(report.q0) == 1:
            assert report.verdict == SINGULAR
        else:
            assert report.verdict != POSITIVE_DEFINITE

    with pytest.raises(ValueError):
        scan(1, 2, 0, 1, 0)
    for steps in (True, 2.0):
        with pytest.raises(TypeError, match="steps"):
            scan(1, 2, 0, 1, steps)
    assert len(scan(1, 2, 0, 0, 1)) == 1


def test_interval_of_definiteness():
    assert interval_of_definiteness(1) == (Fraction(-1), Fraction(1))
    assert interval_of_definiteness(3) == (Fraction(-1, 2), Fraction(1))
    for m in (0, -1, -2):
        with pytest.raises(ValueError):
            interval_of_definiteness(m)


def test_verdict_invariant_under_basis_shuffles():
    rng = random.Random(2024)
    for m, n, q0 in [(2, 2, Fraction(1, 3)), (3, 2, Fraction(-1, 2)), (1, 3, Fraction(-1))]:
        block = build_gram(m, tuple(range(1, n + 1)))
        order = list(range(block.size))
        rng.shuffle(order)
        shuffled = Block(
            m=block.m,
            multiset=block.multiset,
            basis=tuple(block.basis[i] for i in order),
            entries=tuple(tuple(block.entries[i][j] for j in order) for i in order),
        )
        assert certify_block(shuffled, q0).verdict == certify_block(block, q0).verdict


def test_certify_block_refuses_a_non_symmetric_block():
    # Leading minors 1, 1 would read positive definite, but the symmetric
    # part [[1, 5/2], [5/2, 1]] is indefinite: Sylvester needs symmetry.
    with pytest.raises(ValueError, match=r"at q = 0: entry \(1, 0\) is 0 but entry \(0, 1\) is 5"):
        certify_block(hand_block([[1, 5], [0, 1]]), 0)
    rows = [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]
    rows[3][1] = 1
    with pytest.raises(ValueError, match=r"entry \(3, 1\) is 1 but entry \(1, 3\) is 0"):
        certify_block(hand_block(rows), Fraction(1, 3))
    # The check is on the point: a block symmetric at q0 is certified there.
    q, one = Polynomial.q(), Polynomial.one()
    block = Block(m=1, multiset=(1, 1), basis=(0, 1), entries=((one, q), (q * q, one)))
    assert not block.symmetric
    assert certify_block(block, 0).verdict == POSITIVE_DEFINITE
    with pytest.raises(ValueError):
        certify_block(block, Fraction(1, 2))


def test_certify_block_evaluates_only_the_pairs_that_differ(monkeypatch):
    # Of the 3 pairs below the diagonal only (2, 0) differs in ZZ[q]: its two
    # entries are the only ones the symmetry check evaluates.
    q, one = Polynomial.q(), Polynomial.one()
    entries = ((one, q, q), (q, one, q), (q * q, q, one))
    block = Block(m=1, multiset=(1, 1, 1), basis=(0, 1, 2), entries=entries)
    points = []
    evaluate = Polynomial.evaluate

    def recording(self, point):
        points.append(self)
        return evaluate(self, point)

    monkeypatch.setattr(Polynomial, "evaluate", recording)
    assert certify_block(block, 0).verdict == POSITIVE_DEFINITE
    assert points == [q * q, q]


def test_certify_block_refuses_a_block_that_is_not_square():
    q, one = Polynomial.q(), Polynomial.one()
    for entries in (((one, q),), ((one, q), (q,)), ((one, q), (q, one), (one, one))):
        block = Block(m=1, multiset=(1,), basis=(0,), entries=entries)
        with pytest.raises(ValueError, match="matrix is not square"):
            certify_block(block, Fraction(1, 2))
