import random
from fractions import Fraction
from math import factorial

import pytest

from quonalg import colored_perm, exact_arith, formulas, gram, group_algebra, quon_engine
from quonalg.colored_perm import (
    ColoredArrangement,
    enumerate_arrangements,
    enumerate_group,
    insertion_cycle,
)
from quonalg.exact_arith import Polynomial, RationalFunction
from quonalg.formulas import (
    det_closed_form,
    inverse_closed_form,
    regular_block_det,
    verify_inverse,
)
from quonalg.gram import build_gram
from quonalg.group_algebra import GroupAlgebraElement, cinv_sum
from quonalg.linalg import leading_minors
from quonalg.posdef import certify, certify_block, interval_of_definiteness, scan
from quonalg.quon_engine import (
    CreatorState,
    annihilator_trie,
    apply_annihilator,
    color_mismatch,
    cosym_column,
    cosym_expectation,
    creator_state,
    operator_column,
    vacuum_expectation,
)

from lemmas import annihilate_reference, cosym_reference, expectation_reference

P = Polynomial
ONE = P.one()
Q = P.q()


def test_color_mismatch():
    assert color_mismatch(1, 1, 4) == 0
    assert color_mismatch(4, 1, 4) == 1
    assert color_mismatch(3, 3, 4) == 0
    # one color: the relation loses its color correction entirely
    assert all(color_mismatch(1, 1, 1) == 0 for _ in range(1))


def test_annihilator_on_vacuum_is_zero():
    state = creator_state(4, ())
    assert apply_annihilator(2, 1, state).is_zero


def test_annihilator_double_mode():
    state = creator_state(1, ((1, 1), (1, 1)))
    out = apply_annihilator(1, 1, state)
    assert out.coeff(((1, 1),)) == ONE + Q


def test_annihilator_worked_step():
    state = creator_state(4, ((5, 2), (2, 3), (2, 1)))
    out = apply_annihilator(2, 4, state)
    assert out.coeff(((5, 2), (2, 1))) == Q**2
    assert out.coeff(((5, 2), (2, 3))) == Q**3
    assert len(out.terms) == 2


def test_vacuum_expectation_worked_example():
    value = vacuum_expectation(((2, 4), (5, 1), (2, 4)), ((5, 2), (2, 3), (2, 1)), 4)
    assert value == Q**4 + Q**5
    assert str(value) == "q^4 + q^5"


def test_vacuum_expectation_basics():
    assert vacuum_expectation((), (), 2) == ONE
    assert vacuum_expectation(((1, 1),), ((2, 1),), 2) == P.zero()
    assert vacuum_expectation(((1, 2),), ((1, 1),), 2) == Q


def test_color_out_of_range_rejected():
    with pytest.raises(ValueError):
        vacuum_expectation(((1, 3),), ((1, 1),), 2)
    # The inner annihilator (3,1) already kills the state; (1,5) is still checked.
    with pytest.raises(ValueError):
        vacuum_expectation(((1, 5), (3, 1)), ((2, 1),), 2)
    with pytest.raises(ValueError):
        creator_state(2, ((1, 5),))


def test_cosym_worked_example():
    bra = ColoredArrangement(4, (2, 5, 2), (4, 1, 4))
    ket = ColoredArrangement(4, (5, 2, 2), (2, 3, 1))
    assert cosym_expectation(bra, ket) == Q**4 + Q**5


def test_cosym_trivial_diagonals():
    distinct = ColoredArrangement(3, (1, 2, 4), (3, 3, 3))
    assert cosym_expectation(distinct, distinct) == ONE
    repeated = ColoredArrangement(1, (1, 1), (1, 1))
    assert cosym_expectation(repeated, repeated) == ONE + Q


def test_cosym_multiset_mismatch_is_zero():
    a = ColoredArrangement(2, (1, 2), (2, 2))
    b = ColoredArrangement(2, (1, 1), (2, 2))
    assert cosym_expectation(a, b) == P.zero()
    with pytest.raises(ValueError):
        cosym_expectation(a, ColoredArrangement(3, (1, 2), (3, 3)))


def test_both_routes_reject_the_same_bad_colors():
    # (bra, ket) words with one color outside 1..2
    for bra, ket in [
        (((1, 1), (2, 1)), ((1, 3), (2, 1))),
        (((1, 1), (2, 0)), ((1, 1), (2, 1))),
        (((1, 5), (2, 1)), ((2, 1), (1, 1))),
    ]:
        arrangements = [ColoredArrangement(2, *zip(*w)) for w in (bra, ket)]
        with pytest.raises(ValueError, match=r"color \d outside 1\.\.2"):
            vacuum_expectation(bra, ket, 2)
        with pytest.raises(ValueError, match=r"color \d outside 1\.\.2"):
            cosym_expectation(*arrangements)
    with pytest.raises(ValueError, match=r"color 3 outside 1\.\.2"):
        cosym_column(ColoredArrangement(2, (1, 2), (3, 1)))


@pytest.mark.parametrize(
    "m,multiset",
    [(1, (1, 2, 3)), (1, (1, 1, 2)), (2, (1, 2)), (2, (2, 2)), (2, (1, 1, 2)),
     (3, (1, 2)), (3, (2, 2))],
)
def test_cosym_column_equals_the_pairwise_counting_sum(m, multiset):
    basis = enumerate_arrangements(m, multiset)
    for ket in basis:
        column = cosym_column(ket)
        expected = {bra: cosym_reference(bra, ket) for bra in basis}
        assert column == tuple(expected[bra] for bra in basis)
        assert all(column)  # the group acts transitively on the arrangements
        for bra in basis:
            assert cosym_expectation(bra, ket) == expected[bra]


def test_cosym_across_multisets_and_lengths_is_zero():
    multisets = [(1,), (2,), (1, 2), (1, 3), (2, 2), (1, 1, 2)]
    for m in (1, 2, 3):
        blocks = {ms: enumerate_arrangements(m, ms) for ms in multisets}
        for ket_multiset, kets in blocks.items():
            others = [bra for ms, bras in blocks.items() if ms != ket_multiset for bra in bras]
            for ket in kets:
                assert len(cosym_column(ket)) == len(kets)
            for bra in others:
                assert cosym_expectation(bra, kets[-1]) == P.zero()
                assert cosym_reference(bra, kets[-1]) == P.zero()


def test_operator_and_combinatorial_paths_agree():
    for m, multiset in [(1, (1, 2, 3)), (2, (1, 2)), (3, (1, 2)), (2, (2, 2)), (2, (2, 2, 5))]:
        basis = enumerate_arrangements(m, multiset)
        for bra in basis:
            bra_word = tuple(reversed(bra.tokens))
            for ket in basis:
                assert vacuum_expectation(bra_word, ket.tokens, m) == cosym_expectation(bra, ket)


def _expected_rows(m, words, kets):
    """Each bra word's row over the kets, by the rule on Polynomial
    coefficients one entry at a time; all-zero rows left out."""
    rows = {
        w: tuple(expectation_reference(tuple(reversed(w)), ket, m) for ket in kets)
        for w in words
    }
    return {w: row for w, row in rows.items() if any(row)}


@pytest.mark.parametrize(
    "m,multiset",
    [(1, (1, 2, 3)), (2, (1, 1, 2)), (3, (2, 2, 2)), (2, (1, 2, 3)), (1, (1, 1, 2, 2))],
)
def test_operator_column_equals_per_entry_reduction(m, multiset):
    # One walk for every ket of the block gives every row of the block.
    basis = enumerate_arrangements(m, multiset)
    words = [theta.tokens for theta in basis]
    rows = operator_column(m, annihilator_trie(m, words), words)
    assert rows == _expected_rows(m, words, words)
    assert len(rows) == len(basis)  # no row of a block is all zero
    entries = [e for row in rows.values() for e in row]
    assert len({id(e) for e in entries}) == len(set(entries))


def test_operator_column_on_mixed_words_randomized():
    # Bra words and kets of different lengths and modes, some bras a prefix
    # of another, the empty word and repeats, in one walk: every leaf depth,
    # vanishing subtrees and kets whose slots stay zero.  Few modes make
    # modes repeat within a word.  The packed walk is checked against the
    # rule on Polynomial coefficients, one annihilator at a time.
    rng = random.Random(17)

    def draw(m, modes):
        return tuple((rng.randint(1, modes), rng.randint(1, m)) for _ in range(rng.randint(0, 5)))

    for _ in range(80):
        m, modes = rng.randint(1, 4), rng.randint(1, 3)
        words = [draw(m, modes) for _ in range(12)]
        words += [w[:-1] for w in words[:4] if w] + words[:2]
        kets = [draw(m, modes) for _ in range(rng.randint(1, 6))]
        kets += [tuple(reversed(w)) for w in words[:2]] + kets[:1]
        rows = operator_column(m, annihilator_trie(m, words), kets)
        assert rows == _expected_rows(m, words, kets)
    assert operator_column(2, annihilator_trie(2, words), []) == {}


def test_operator_column_slot_holds_the_largest_degree(monkeypatch):
    # At (2, (1, 2)) the first bra word, innermost first (1,2)(2,2), reduces
    # the last ket (2,1)(1,1) to q**3: the first annihilator passes over one
    # creator, and both colors differ.  That is the degree bound L(L+1)/2
    # for L = 2.  The empty ket after it has a zero slot in every row.
    m, words = 2, [theta.tokens for theta in enumerate_arrangements(2, (1, 2))]
    trie, kets = annihilator_trie(m, words), words + [()]
    expected = _expected_rows(m, words, kets)
    assert expected[words[0]][-2:] == (Q**3, P.zero())
    assert operator_column(m, trie, kets) == expected
    # One coefficient less per slot and the q**3 coefficient carries into
    # the next ket's slot.
    monkeypatch.setattr(
        quon_engine, "_slot_bits", lambda stride, length: stride * (length * (length + 1) // 2)
    )
    assert operator_column(m, trie, kets)[words[0]][-2:] == (P.zero(), ONE)


@pytest.mark.parametrize("walk_bits", [1, 5 * 56, 1000])
def test_operator_column_splits_many_kets_into_walks(monkeypatch, walk_bits):
    # 35 kets of lengths 0 to 3, so S = 56 bits: one, five and 17 kets per
    # walk.  Each walk makes at most one kernel call per trie node.
    m = 2
    multisets = [(1, 2), (1, 1, 2), (2,), ()]
    words = [theta.tokens for ms in multisets for theta in enumerate_arrangements(m, ms)]
    trie = annihilator_trie(m, words)
    expected = _expected_rows(m, words, words)
    assert operator_column(m, trie, words) == expected
    calls = 0
    real_annihilate = quon_engine._annihilate

    def counted_annihilate(*args):
        nonlocal calls
        calls += 1
        return real_annihilate(*args)

    def nodes(node):
        return sum(1 + nodes(child) for token, child in node.items() if token is not None)

    monkeypatch.setattr(quon_engine, "_annihilate", counted_annihilate)
    monkeypatch.setattr(quon_engine, "_WALK_BITS", walk_bits)
    rows = operator_column(m, trie, words)
    assert rows == expected
    per_walk = max(1, walk_bits // 56)
    assert nodes(trie) < calls <= -(-len(words) // per_walk) * nodes(trie)
    entries = [e for row in rows.values() for e in row]
    assert len({id(e) for e in entries}) == len(set(entries))


BAD_TOKENS = [(1.5, 1), (1, 1.9), ("1", 1), (True, 1), (1, True), (0, 1), (-3, 1)]
BAD_MODES = [1.5, "1", True, 0, -3]
GOOD = ((1, 1),)
# The counting path reads arrangements at m = 2, where a color 1.9 passes a
# range check, and a mode 1.0 compares equal to 1.
COSYM_BAD_TOKENS = BAD_TOKENS + [(1.0, 1)]


def _token_calls(token):
    return {
        "bra": lambda: vacuum_expectation((token,), GOOD, 1),
        "ket": lambda: vacuum_expectation(GOOD, (token,), 1),
        "both": lambda: vacuum_expectation((token,), (token,), 1),
        "creator": lambda: creator_state(1, GOOD + (token,)),
        "annihilator": lambda: apply_annihilator(*token, creator_state(1, GOOD)),
    }


def _cosym_calls(token):
    good, bad = ColoredArrangement(2, (1,), (1,)), ColoredArrangement(2, *zip(token))
    return {
        "cosym_bra": lambda: cosym_expectation(bad, good),
        "cosym_ket": lambda: cosym_expectation(good, bad),
        "cosym_both": lambda: cosym_expectation(bad, bad),
    }


def _mode_calls(mode):
    return {
        "gram": lambda: build_gram(1, (1, mode)),
        "combinatorial": lambda: build_gram(1, (mode,), path="combinatorial"),
        "arrangements": lambda: enumerate_arrangements(1, (mode, 2)),
    }


HALF = Fraction(1, 2)


def _block():
    return build_gram(2, (1, 2))


# Each bad m, n or point q beside the call with ints that fills the same
# caches.  The points must be ints or Fractions: 0.1 would be read as
# 3602879701896397/36028797018963968, "1e-1" as 1/10 and True as 1.
SIZE_AND_POINT_CALLS = {
    "gram(m=2.0)": (lambda: build_gram(2.0, (1, 2)), lambda: build_gram(2, (1, 2))),
    "gram(m=True)": (lambda: build_gram(True, (1, 2)), lambda: build_gram(1, (1, 2))),
    "combinatorial(m=2.0)": (
        lambda: build_gram(2.0, (1, 2), path="combinatorial"),
        lambda: build_gram(2, (1, 2), path="combinatorial"),
    ),
    "cinv_sum(m=2.0)": (lambda: cinv_sum(2.0, 2), lambda: cinv_sum(2, 2)),
    "cinv_sum(n=True)": (lambda: cinv_sum(2, True), lambda: cinv_sum(2, 1)),
    "group(n=True)": (lambda: enumerate_group(2, True), lambda: enumerate_group(2, 1)),
    "cycle(m=2.0)": (lambda: insertion_cycle(2.0, 3, 2, 1), lambda: insertion_cycle(2, 3, 2, 1)),
    "verify_inverse(m=2.0)": (lambda: verify_inverse(2.0, 2), lambda: verify_inverse(2, 2)),
    "inverse(m=2.0)": (lambda: inverse_closed_form(2.0, 2), lambda: inverse_closed_form(2, 2)),
    "det_closed_form(m=True)": (lambda: det_closed_form(True, 2), lambda: det_closed_form(1, 2)),
    "det_closed_form(n=2.0)": (lambda: det_closed_form(2, 2.0), lambda: det_closed_form(2, 2)),
    "regular_block_det(m=True)": (
        lambda: regular_block_det(True, 2),
        lambda: regular_block_det(1, 2),
    ),
    "interval(m=True)": (
        lambda: interval_of_definiteness(True),
        lambda: interval_of_definiteness(1),
    ),
    "certify(m=True)": (lambda: certify(True, 2, HALF), lambda: certify(1, 2, HALF)),
    "certify(n=True)": (lambda: certify(1, True, HALF), lambda: certify(1, 1, HALF)),
    "vacuum(m=1.5)": (
        lambda: vacuum_expectation([(1, 1)], [(1, 1)], 1.5),
        lambda: vacuum_expectation([(1, 1)], [(1, 1)], 1),
    ),
    "certify(q=0.1)": (lambda: certify(1, 2, 0.1), lambda: certify(1, 2, Fraction(1, 10))),
    "certify(q='1e-1')": (lambda: certify(2, 2, "1e-1"), lambda: certify(2, 2, Fraction(1, 10))),
    "certify(q=True)": (lambda: certify(2, 2, True), lambda: certify(2, 2, 1)),
    "certify_block(q=0.5)": (
        lambda: certify_block(_block(), 0.5),
        lambda: certify_block(_block(), HALF),
    ),
    "scan(lo=0.0)": (lambda: scan(2, 2, 0.0, HALF, 3), lambda: scan(2, 2, 0, HALF, 3)),
    "scan(hi=0.5)": (lambda: scan(2, 2, 0, 0.5, 3), lambda: scan(2, 2, 0, HALF, 3)),
    "scan(steps=True)": (lambda: scan(2, 2, 0, HALF, True), lambda: scan(2, 2, 0, HALF, 1)),
    "scan(steps=2.0)": (lambda: scan(2, 2, 0, HALF, 2.0), lambda: scan(2, 2, 0, HALF, 2)),
    "element(m=True)": (
        lambda: GroupAlgebraElement(True, 1, {}),
        lambda: GroupAlgebraElement(1, 1, {}),
    ),
    "element(m=2.0)": (
        lambda: GroupAlgebraElement(2.0, 2, {}),
        lambda: GroupAlgebraElement(2, 2, {}),
    ),
    "element(n=-1)": (
        lambda: GroupAlgebraElement(2, -1, {}),
        lambda: GroupAlgebraElement(2, 1, {}),
    ),
    "leading_minors(q=0.5)": (
        lambda: leading_minors(_block().split_tree, 0.5),
        lambda: leading_minors(_block().split_tree, HALF),
    ),
    "evaluate(q=0.5)": (lambda: Q.evaluate(0.5), lambda: Q.evaluate(HALF)),
    "evaluate(q=True)": (lambda: Q.evaluate(True), lambda: Q.evaluate(1)),
    "quotient(q=0.5)": (
        lambda: RationalFunction(ONE, ONE - Q).evaluate(0.5),
        lambda: RationalFunction(ONE, ONE - Q).evaluate(HALF),
    ),
}

CACHES = (
    colored_perm.group_table,
    colored_perm._enumerate,
    gram._build_gram_cached,
    group_algebra.cinv_sum,
    formulas.det_closed_form,
    formulas._denominator,
    formulas.inverse_closed_form,
)

MALFORMED_CALLS = [
    pytest.param(call, None, id=f"{what}{token}")
    for token in BAD_TOKENS
    for what, call in _token_calls(token).items()
] + [
    pytest.param(call, None, id=f"{what}{token}")
    for token in COSYM_BAD_TOKENS
    for what, call in _cosym_calls(token).items()
] + [
    pytest.param(call, None, id=f"{what}({mode!r})")
    for mode in BAD_MODES
    for what, call in _mode_calls(mode).items()
] + [
    pytest.param(call, warm, id=what) for what, (call, warm) in SIZE_AND_POINT_CALLS.items()
]


@pytest.mark.parametrize("call, warm", MALFORMED_CALLS)
def test_malformed_tokens_raise_instead_of_taking_a_value(call, warm):
    # A mode or color that is no int, a bool, or a mode below 1 is rejected
    # on every entry point.  int() would read 1.5, 1.9, "1" and True as 1,
    # and a mode 0 or -3 on both sides matches itself, so each of these
    # words would otherwise take a value.  So is an m, n or q of the wrong
    # type, before any cache is read: lru_cache keys 2.0 and True like 2
    # and 1, so such a call runs on cleared caches and again after ``warm``,
    # its int twin, has filled them.
    if warm is not None:
        for cached in CACHES:
            cached.cache_clear()
    with pytest.raises((TypeError, ValueError)):
        call()
    if warm is not None:
        warm()
        with pytest.raises((TypeError, ValueError)):
            call()


def test_annihilator_trie_checks_colors():
    with pytest.raises(ValueError):
        annihilator_trie(2, [((1, 1),), ((1, 1), (2, 3))])


def test_hermitian_symmetry_randomized():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(1, 4)
        bra = tuple((rng.randint(1, 3), rng.randint(1, m)) for _ in range(rng.randint(0, 4)))
        ket = tuple((rng.randint(1, 3), rng.randint(1, m)) for _ in range(rng.randint(0, 4)))
        forward = vacuum_expectation(bra, ket, m)
        swapped = vacuum_expectation(tuple(reversed(ket)), tuple(reversed(bra)), m)
        assert forward == swapped
        assert isinstance(forward, Polynomial)
        assert all(c >= 0 for c in forward.coeffs)


def test_mode_multiset_mismatch_vanishes_randomized():
    rng = random.Random(13)
    checked = 0
    while checked < 1000:
        m = rng.randint(1, 4)
        bra = tuple((rng.randint(1, 3), rng.randint(1, m)) for _ in range(rng.randint(0, 4)))
        ket = tuple((rng.randint(1, 3), rng.randint(1, m)) for _ in range(rng.randint(0, 4)))
        if sorted(v for v, _ in bra) == sorted(v for v, _ in ket):
            continue
        checked += 1
        assert vacuum_expectation(bra, ket, m) == P.zero()


def test_stride_reads_back_a_merged_coefficient_at_its_bound(monkeypatch):
    # Two words of length 1 merge into the empty word at degree 1, so the
    # coefficient there is a + b, exactly the bound: the state's l1 mass.
    a, b = 2**20 - 5, 5
    state = CreatorState(2, {((1, 1),): P.monomial(1, a), ((1, 2),): P.constant(b)})
    expected = {(): P.monomial(1, a + b)}
    assert annihilate_reference(1, 1, 2, state.terms) == expected
    assert apply_annihilator(1, 1, state).terms == expected
    monkeypatch.setattr(quon_engine, "stride", lambda bound: exact_arith.stride(bound) - 1)
    assert apply_annihilator(1, 1, state).terms != expected


def _random_word(rng, m, modes, length):
    return tuple((rng.randint(1, modes), rng.randint(1, m)) for _ in range(length))


def test_apply_annihilator_equals_the_polynomial_rule_on_signed_states():
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(0, 5)):
            word = _random_word(rng, m, 3, rng.randint(0, 4))
            terms[word] = P([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))])
        terms = {w: c for w, c in terms.items() if c}
        mode, color = rng.randint(1, 3), rng.randint(1, m)
        out = apply_annihilator(mode, color, CreatorState(m, terms))
        assert out.terms == annihilate_reference(mode, color, m, terms)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_packed_walk_on_a_same_mode_word_of_length_7(m):
    # Every creator matches every annihilator and every weight is 1 at q = 1,
    # so the value reaches the walk's mass bound 7! whatever the colors.
    rng = random.Random(m)
    ket = tuple((1, rng.randint(1, m)) for _ in range(7))
    for bra in [tuple((1, c) for _, c in ket), _random_word(rng, m, 1, 7)]:
        value = vacuum_expectation(bra, ket, m)
        assert value == expectation_reference(bra, ket, m)
        assert value.evaluate(1) == factorial(7)
