import math
import random
from fractions import Fraction

import pytest

from quonalg import linalg
from quonalg.exact_arith import Polynomial
from quonalg.formulas import det_closed_form, regular_block_det
from quonalg.gram import build_gram
from quonalg.linalg import leading_minors, poly_det, split_tree
from quonalg.posdef import interval_of_definiteness

from lemmas import evaluate_reference, fraction_det, fraction_minors, kron, plain_det

P = Polynomial
ONE = P.one()
Q = P.q()


def rand_poly(rng, max_deg=3, hi=4):
    return P([rng.randint(-hi, hi) for _ in range(rng.randint(0, max_deg + 1))])


def test_small_hand_determinants():
    assert poly_det([]) == ONE
    assert poly_det([[P.zero()]]) == P.zero()
    assert poly_det([[ONE, Q], [Q, ONE]]) == ONE - Q**2
    # 3x3 circulant: (1 + 2q)(1 - q)^2 expanded by hand
    circ = [[ONE, Q, Q], [Q, ONE, Q], [Q, Q, ONE]]
    assert poly_det(circ) == P((1, 0, -3, 2))


def laplace_det(rows):
    """Cofactor expansion along the first row: shares no code with Bareiss."""
    if not rows:
        return ONE
    total = P.zero()
    for j, entry in enumerate(rows[0]):
        minor = laplace_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        total = total + entry * minor if j % 2 == 0 else total - entry * minor
    return total


def test_packed_and_plain_agree():
    rng = random.Random(5)
    for trial in range(150):
        n = rng.randint(1, 6)
        rows = [[rand_poly(rng) for _ in range(n)] for _ in range(n)]
        if trial % 5 == 0 and n >= 2:
            rows[n - 1] = rows[0][:]  # singular case exercises pivoting
        if trial % 7 == 0:
            rows[0][0] = P.zero()  # zero first pivot forces a row swap
        packed = poly_det([r[:] for r in rows])
        plain = plain_det(rows)
        assert packed == plain
        if n <= 4:
            assert packed == laplace_det(rows)


def test_stride_fits_an_extremal_minor():
    # Sylvester's 4x4 Hadamard matrix meets the Hadamard bound: det = 16.
    h2 = ((1, 1), (1, -1))
    rows = [
        [P((h2[i // 2][j // 2] * h2[i % 2][j % 2],)) for j in range(4)] for i in range(4)
    ]
    stride = linalg._stride(len(rows), linalg._height(rows))
    assert poly_det(rows) == linalg._packed_det(rows, stride) == P((16,))
    # One bit less and the determinant no longer unpacks: the bound is tight.
    assert linalg._packed_det(rows, stride - 1) != P((16,))


def test_det_is_multilinear_in_rows():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rand_poly(rng) for _ in range(n)] for _ in range(n)]
        base = poly_det(rows)
        f = rand_poly(rng, 2, 3) + ONE * 5
        scaled = [r[:] for r in rows]
        scaled[0] = [f * e for e in scaled[0]]
        assert poly_det(scaled) == f * base


def test_row_swap_changes_sign():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 5)
        rows = [[rand_poly(rng) for _ in range(n)] for _ in range(n)]
        swapped = [r[:] for r in rows]
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert poly_det(swapped) == -poly_det([r[:] for r in rows])


def test_not_square_raises():
    for rows in ([[ONE, Q]], [[ONE, Q], [Q]], [[ONE, Q], [Q, ONE], [ONE, ONE]]):
        for det in (poly_det, plain_det):
            with pytest.raises(ValueError, match="matrix is not square"):
                det(rows)
        with pytest.raises(ValueError, match="matrix is not square"):
            split_tree(rows)


def int_minors(rows):
    """Leading minors of a Fraction matrix by one ``_bareiss_minors`` pass
    over its integers cleared by the lcm of its denominators."""
    scale = math.lcm(*(Fraction(e).denominator for row in rows for e in row))
    ints = [[int(e * scale) for e in row] for row in rows]
    return [Fraction(v, scale**k) for k, v in enumerate(linalg._bareiss_minors(ints), 1)]


def test_leading_minors_match_determinants():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
            for _ in range(n)
        ]
        minors = int_minors(rows)
        for k in range(1, n + 1):
            # clear the k-by-k submatrix by its denominators' lcm; the packed
            # determinant of the integer matrix is then den**k times the minor
            den = math.lcm(*(e.denominator for row in rows[:k] for e in row[:k]))
            sub = [[P.constant(e * den) for e in row[:k]] for row in rows[:k]]
            assert poly_det(sub).evaluate(0) / den**k == minors[k - 1]


def test_one_pass_minors_past_a_zero_minor():
    assert linalg._bareiss_minors([[0, 1], [1, 0]]) == [0, -1]
    rng = random.Random(41)
    values = (-1, 0, 1, Fraction(1, 2), Fraction(-2, 3))
    reached = 0
    for _ in range(400):
        n = rng.randint(2, 5)
        rows = [[Fraction(rng.choice(values)) for _ in range(n)] for _ in range(n)]
        expected = fraction_minors(rows)
        zero_at = [k for k, value in enumerate(expected) if value == 0]
        if zero_at and any(expected[zero_at[0] + 1 :]):
            reached += 1
        assert int_minors(rows) == expected
    assert reached >= 50


def with_schur_complement(rng, k, schur, symmetric):
    """An int matrix L diag U + [[0, 0], [0, S]] of size k + len(S): L is
    n-by-k and U k-by-n, unit lower and unit upper triangular on top, and
    U = L^T where ``symmetric``.  Its k-by-k leading part has nonzero
    leading minors and its Schur complement there is S = ``schur``, so
    after k Bareiss steps its trailing block is D_k * S."""
    n = k + len(schur)

    def tall():
        return [
            [int(i == j) if j >= i else rng.randint(-2, 2) for j in range(k)] for i in range(n)
        ]

    left = tall()
    right = list(zip(*(left if symmetric else tall())))
    diag = [rng.choice((-2, -1, 1, 2)) for _ in range(k)]
    rows = [
        [sum(left[i][a] * diag[a] * right[a][j] for a in range(k)) for j in range(n)]
        for i in range(n)
    ]
    for i, row in enumerate(schur):
        for j, value in enumerate(row):
            rows[k + i][k + j] += value
    return rows


def test_rank_stop_past_a_zero_pivot(monkeypatch):
    # Rank-k products (S = 0), k = 0..n, symmetric and not, stop at pivot k
    # with no further elimination.  With one nonzero bordered minor the
    # pass goes on to the per-k route where it lies on row k, and stops
    # anywhere else (in the lower triangle too), where every later minor is
    # still 0.  Every result matches a reference that shares no code.
    dets = []
    det = linalg._det

    def counting(rows):
        dets.append(len(rows))
        return det(rows)

    monkeypatch.setattr(linalg, "_det", counting)
    rng = random.Random(107)
    stopped = went_on = 0
    for trial in range(240):
        symmetric = trial % 2 == 0
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        schur = [[0] * (n - k) for _ in range(n - k)]
        spot = None
        if k < n - 1 and trial % 3:
            row = 0 if trial % 3 == 1 else rng.randrange(1, n - k)
            spot = (row, rng.randrange(1 - bool(row), n - k))
            schur[spot[0]][spot[1]] = rng.choice((-3, -1, 2))
            if symmetric:
                schur[spot[1]][spot[0]] = schur[spot[0]][spot[1]]
        rows = with_schur_complement(rng, k, schur, symmetric)
        dets.clear()
        expected = fraction_minors(rows)
        assert linalg._bareiss_minors(rows) == expected, (trial, rows)
        on_row_k = spot is not None and (spot[0] == 0 or symmetric and spot[1] == 0)
        assert all(expected[:k]) and (on_row_k or not any(expected[k:]))
        assert dets == (list(range(k + 2, n + 1)) if on_row_k else []), (trial, spot)
        stopped += spot is not None and not on_row_k
        went_on += on_row_k
    assert stopped >= 30 and went_on >= 30
    # Where row k is nonzero the later minors need not vanish: here the
    # bordered block is [[0, 1], [1, 0]] and minor k + 2 is -D_k.
    for symmetric in (True, False):
        rows = with_schur_complement(rng, 2, [[0, 1], [1, 0]], symmetric)
        expected = fraction_minors(rows)
        assert expected[2] == 0 != expected[3]
        assert linalg._bareiss_minors(rows) == expected
    # A symmetric pass never updates its lower triangle: row k is read, not
    # column k, whose entry below the zero pivot is here still the input 0.
    rows = [[1, 1, 1], [1, 1, 0], [1, 0, 0]]
    assert linalg._bareiss_minors(rows) == fraction_minors(rows) == [1, 0, -1]


def graded_matrix(rng, grades, symmetric):
    """A Polynomial matrix with row 0 of degrees ``grades`` and entry (i, j)
    of degree at most grades[i] + grades[j], the last diagonal entry of
    degree 2 * max(grades); symmetric where asked."""
    n = len(grades)
    rows = [[None] * n for _ in range(n)]

    def entry(degree, exact):
        tail = [rng.choice((-2, -1, 1, 3))] if exact else []
        return P([rng.randint(-3, 3) for _ in range(degree + 1 - exact)] + tail)

    for i in range(n):
        for j in range(i if symmetric else 0, n):
            rows[i][j] = entry(grades[i] + grades[j], i == 0 or i == j == n - 1)
            if i == 0:
                rows[i][j] = entry(grades[j], True)
            if symmetric:
                rows[j][i] = rows[i][j]
    rows[-1][-1] = entry(2 * max(grades), True) if n > 1 else rows[0][0]
    return rows


def test_graded_leaf_minors_match_fractions():
    # Leaves whose grades pass both tests (zero leading minors included,
    # which take the per-k route on graded ints), fail the triangle test
    # (one entry of too high a degree) or the prefix test (row 0 of
    # falling degrees), at points with r > 1 and, where nothing is graded,
    # at integers.  Each gives the minors and the scale of the uniformly
    # scaled ``_ints_at`` pass and matches Fraction Horner and Gaussian
    # elimination.
    rng = random.Random(109)
    points = (Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3), Fraction(-54321, 2**17 - 1), -2)
    passed = failed = zero_passed = 0
    for trial in range(200):
        kind, symmetric = trial % 4, trial % 8 < 4
        n = rng.randint(1, 5) if kind != 3 else rng.randint(2, 5)
        grades = sorted(rng.randint(0, 3) for _ in range(n))
        if kind == 2:
            grades = [4] + sorted((rng.randint(0, 3) for _ in range(n - 1)), reverse=True)
        elif kind == 3 or n == 1:
            grades[0] = 0  # a 1-by-1 [[x]] fails the prefix test 2 deg x <= deg x
        rows = graded_matrix(rng, grades, symmetric)
        if kind == 1 and n > 1:
            i, j = rng.randrange(1, n), rng.randrange(1, n)
            rows[i][j] = rows[i][j] + P.monomial(grades[i] + grades[j] + 1, 2)
            if symmetric:
                rows[j][i] = rows[i][j]
        elif kind == 3:
            rows[0][0] = P.zero()
        for q0 in points:
            graded = linalg._graded_ints(rows, q0)
            grades_pass = kind in (0, 3) or kind == 1 and n == 1
            assert (graded is not None) == (grades_pass and q0 != -2), (trial, q0)
            ints, scale = linalg._ints_at(rows, q0)
            assert linalg._node_minors((rows, None), q0) == (linalg._bareiss_minors(ints), scale)
            assert list(leading_minors((rows, None), q0)) == reference_minors(rows, q0)
            if graded:
                assert graded[1] == scale
                passed += 1
                zero_passed += kind == 3 and any(reference_minors(rows, q0)[1:])
            else:
                failed += 1
    assert passed >= 300 and failed >= 300 and zero_passed >= 50
    # The m-by-m K of the regular block passes for m = 2 and fails the
    # prefix test for m >= 3; Q_n passes.
    third = Fraction(1, 3)
    for m in (2, 3, 4):
        k = [[ONE if i == j else Q for j in range(m)] for i in range(m)]
        assert (linalg._graded_ints(k, third) is not None) == (m == 2)
    for n in (2, 3, 4):
        q_n = [list(row) for row in build_gram(1, tuple(range(1, n + 1))).entries]
        assert linalg._graded_ints(q_n, third) is not None


def test_leading_minors_of_a_scaled_integer_matrix():
    # At q = 1/2 the integer matrix is [[4, 2, 0], [2, 5, 3], [0, 3, 7]] over
    # the scale 2: integer minors 4, 16, 76, divided by 2, 2**2, 2**3.
    rows = [[4 * Q, 2 * Q, P.zero()], [2 * Q, 5 * Q, 3 * Q], [P.zero(), 3 * Q, 7 * Q]]
    assert leading_minors(split_tree(rows), Fraction(1, 2)) == (2, 4, Fraction(19, 2))
    assert linalg._ints_at(rows, Fraction(1, 2)) == ([[4, 2, 0], [2, 5, 3], [0, 3, 7]], 2)


def test_leading_minors_identity():
    # The identity splits (I_6 = I_2 (x) I_3) and its minors are all 1.
    rows = [[ONE if i == j else P.zero() for j in range(6)] for i in range(6)]
    assert split_tree(rows)[1] is not None
    assert leading_minors(split_tree(rows), Fraction(-3, 7)) == (Fraction(1),) * 6
    assert int_minors([[int(i == j) for j in range(6)] for i in range(6)]) == [1] * 6


def tree_nodes(node):
    """Every node of a ``split_tree``, parents before children."""
    yield node
    for child in node[1] or ():
        yield from tree_nodes(child)


def tree_point_minors(rows, q0):
    """Leading minors of a Polynomial matrix at q0 from its split tree."""
    return list(leading_minors(split_tree(rows), q0))


def reference_minors(rows, q0):
    """Leading minors at q0 by Fraction Horner and Gaussian elimination."""
    return fraction_minors([[evaluate_reference(e, q0) for e in row] for row in rows])


def test_regular_blocks_split_to_q_n_and_k_with_unit_corners():
    for m, n in [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)]:
        block = build_gram(m, tuple(range(1, n + 1)))
        nodes = list(tree_nodes(block.split_tree))
        q_n = [list(row) for row in build_gram(1, tuple(range(1, n + 1))).entries]
        k = [[ONE if i == j else Q for j in range(m)] for i in range(m)]
        leaves = [[list(row) for row in rows] for rows, children in nodes if not children]
        assert leaves == [q_n] + [k] * n, (m, n)
        assert len(nodes) == 2 * n + 1
        assert all(rows[0][0] == ONE for rows, _ in nodes), (m, n)


def test_split_matches_split_free_bareiss_on_regular_blocks(monkeypatch):
    # The regular block is Q_n (x) K (x) ... (x) K: its tree, found once in
    # ZZ[q], gives at every point the minors and the scale of one Bareiss
    # pass over the whole evaluated block.  Every node shares the root's
    # corner, which is evaluated once; each of the n + 1 leaves once more,
    # by the graded map where its test passes and by ``_ints_at`` otherwise.
    ints_at, graded_ints = linalg._ints_at, linalg._graded_ints
    sizes = []

    def recording(rows, q0):
        sizes.append(len(rows))
        return ints_at(rows, q0)

    def graded_recording(rows, q0):
        result = graded_ints(rows, q0)
        if result:
            sizes.append(len(rows))
        return result

    monkeypatch.setattr(linalg, "_ints_at", recording)
    monkeypatch.setattr(linalg, "_graded_ints", graded_recording)
    for m, n in [(2, 2), (3, 2), (4, 2), (2, 3), (5, 2)]:
        block = build_gram(m, tuple(range(1, n + 1)))
        tree = block.split_tree  # found once; finding it evaluates the block too
        lo, hi = interval_of_definiteness(m)
        for q0 in (lo, hi, Fraction(1, 3), Fraction(-54321, 2**17 - 1), Fraction(3, 2)):
            ints, scale = ints_at(block.entries, q0)
            expected = (linalg._bareiss_minors(ints), scale)
            sizes.clear()
            assert linalg._node_minors(tree, q0) == expected, (m, n, q0)
            assert sorted(sizes) == sorted([1, len(tree[0]) // m**n] + [m] * n)
            minors = [Fraction(v, scale**k) for k, v in enumerate(expected[0], 1)]
            assert leading_minors(tree, q0) == tuple(minors)


def test_split_of_tensor_products_and_near_misses(monkeypatch):
    # Products of two and three Polynomial factors with corners c != 1, of
    # positive degree too, singular ones included, at points where c
    # vanishes (0, -1, 1 for the corners q, 1 + q, 1 - q) and where it does
    # not; the references share no code with linalg.
    rng = random.Random(67)
    corners = [P((2,)), P((-3,)), -ONE, Q, ONE + Q, ONE - Q, P((2, -1)), P((1, -1, 1))]
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 3, 2)]
    points = (Fraction(0), Fraction(-1), Fraction(1), Fraction(2, 3), Fraction(-3, 5))
    whole = []
    bareiss_minors = linalg._bareiss_minors

    def recording(ints):
        whole.append(len(ints))
        return bareiss_minors(ints)

    monkeypatch.setattr(linalg, "_bareiss_minors", recording)
    with_zero_minor = fallbacks = 0
    for trial in range(48):
        factors = []
        for size in shapes[trial % len(shapes)]:
            factor = [[rand_poly(rng, 1, 2) for _ in range(size)] for _ in range(size)]
            factor[0][0] = rng.choice(corners) if factors else corners[trial % len(corners)]
            if trial % 4 == 3 and not factors:
                factor[-1] = factor[0][:]
            factors.append(factor)
        rows = factors[0]
        for factor in factors[1:]:
            rows = kron(rows, factor)
        assert linalg.split_tree(rows)[1] is not None
        for q0 in points:
            whole.clear()
            expected = reference_minors(rows, q0)
            assert tree_point_minors(rows, q0) == expected, (trial, q0)
            with_zero_minor += 0 in expected
            # A corner that vanishes at q0 evaluates the whole matrix.
            if rows[0][0].evaluate(q0) == 0:
                fallbacks += 1
                assert whole == [len(rows)], (trial, q0)
        # One entry off and the matrix is no tensor product: one pass.
        rows[-1][-1] = rows[-1][-1] + ONE
        assert linalg.split_tree(rows)[1] is None
        for q0 in points[2:]:
            assert tree_point_minors(rows, q0) == reference_minors(rows, q0), (trial, q0)
    assert with_zero_minor >= 100 and fallbacks >= 30
    # c = 1 - q at q0 = 1: the split holds in ZZ[q] but not at the point.
    rows = kron([[ONE - Q, Q], [Q, 2 * ONE]], [[ONE, ONE + Q], [Q, 3 * ONE]])
    assert linalg.split_tree(rows)[1] is not None
    whole.clear()
    expected = reference_minors(rows, 1)
    assert tree_point_minors(rows, 1) == expected and expected[0] == 0 != expected[-1]
    assert whole == [4]
    # A zero corner never splits.
    rows = kron([[P.zero(), ONE], [ONE, P.zero()]], [[ONE, Q], [Q, 2 * ONE]])
    assert linalg.split_tree(rows)[1] is None
    assert tree_point_minors(rows, Fraction(1, 2)) == reference_minors(rows, Fraction(1, 2))


def test_split_determinant_of_polynomial_tensor_products():
    # det((A (x) B) / c) = det(A)**b * det(B)**a / c**(a*b) on two- and
    # three-factor products with c != 1, singular ones included; the plain
    # route never splits, and the references share no code with Bareiss.
    rng = random.Random(71)
    corners = [P((2,)), P((-3,)), Q, ONE + Q, P((2, -1)), P((1, -1, 1)), -(Q**2)]
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 3, 2)]
    singular = 0
    for trial in range(36):
        factors = []
        for size in shapes[trial % len(shapes)]:
            factor = [[rand_poly(rng, 1, 2) for _ in range(size)] for _ in range(size)]
            factor[0][0] = rng.choice(corners) if factors else corners[trial % len(corners)]
            if trial % 4 == 3 and not factors:
                factor[-1] = factor[0][:]
            factors.append(factor)
        rows = factors[0]
        for factor in factors[1:]:
            rows = kron(rows, factor)
        assert rows[0][0] != ONE
        for near_miss in (False, True):
            if near_miss:
                # One entry off and the matrix is no tensor product.
                rows[-1][-1] = rows[-1][-1] + ONE
                assert linalg._tensor_split(rows) is None
            else:
                assert linalg._tensor_split(rows) is not None
            # The packed test, which poly_det runs, agrees with the plain one.
            s = linalg._split_stride(linalg._height(rows))
            images = linalg._ints_at(rows, 1 << s)[0]
            assert (linalg._tensor_split(images) is None) == near_miss
            packed = poly_det(rows)
            assert packed == plain_det(rows)
            if len(rows) <= 6:
                assert packed == laplace_det(rows)
            # Both sides have degree at most the sum of the row degrees, so
            # agreement at that many points plus one is equality.
            bound = sum(max(0, *(e.degree for e in row)) for row in rows)
            assert packed.degree <= bound
            for x in range(-(bound // 2), bound - bound // 2 + 1):
                at_x = [[e.evaluate(x) for e in row] for row in rows]
                assert packed.evaluate(x) == fraction_det(at_x), (trial, near_miss, x)
            singular += not near_miss and packed.is_zero
    assert singular >= 5
    # A zero corner never splits.
    rows = kron([[P.zero(), ONE], [ONE, P.zero()]], [[ONE, Q], [Q, 2 * ONE]])
    assert linalg._tensor_split(rows) is None
    assert poly_det(rows) == laplace_det(rows) == (Q**2 - 2 * ONE) ** 2


def test_regular_block_determinant_packs_only_q_n_and_k(monkeypatch):
    # The regular block is Q_n (x) K (x) ... (x) K: the packed route packs
    # only leaves of at most n! rows, each at the stride of its own entries.
    leaves = []
    packed_det = linalg._packed_det

    def recording(rows, stride):
        leaves.append((len(rows), stride, linalg._stride(len(rows), linalg._height(rows))))
        return packed_det(rows, stride)

    monkeypatch.setattr(linalg, "_packed_det", recording)
    for m, n in [(2, 3), (4, 2), (3, 3)]:
        leaves.clear()
        regular_block_det(m, n)
        assert leaves and all(s == own for _, s, own in leaves), (m, n)
        assert max(size for size, _, _ in leaves) <= max(m, math.factorial(n)), (m, n)


def rand_symmetric(rng, n, values):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.choice(values)
    return rows


def test_symmetric_elimination_matches_fractions(monkeypatch):
    # The half-triangle pass gives the pivots of the full-square pass, which
    # a patched ``_is_symmetric`` forces, and both match references that
    # share no code with Bareiss.  Zero pivots are frequent, so with
    # ``swap`` the pass often mirrors its trailing triangle and goes on over
    # the full square.
    rng = random.Random(83)
    values = (-2, -1, 0, 0, 0, 1, 2, 3)
    mirrored = 0
    for trial in range(300):
        n = rng.randint(1, 8)
        rows = rand_symmetric(rng, n, values)
        if trial % 3 == 0:
            rows[0][0] = 0
        assert linalg._is_symmetric(rows)
        expected = fraction_minors(rows)
        for swap in (True, False):
            half = linalg._bareiss([r[:] for r in rows], swap)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_is_symmetric", lambda rows: False)
                full = linalg._bareiss([r[:] for r in rows], swap)
            assert half == full, (trial, swap)
        assert linalg._det([r[:] for r in rows]) == expected[-1]
        assert linalg._bareiss_minors(rows) == expected
        # A zero leading minor and a nonzero determinant force a swap.
        mirrored += 0 in expected[:-1] and expected[-1] != 0
    assert mirrored >= 100


def test_one_asymmetric_entry_takes_the_full_loop(monkeypatch):
    # The whole perturbed matrix is eliminated over the full square; a
    # symmetric leading submatrix of it may take the half triangle.
    flags = []
    is_symmetric = linalg._is_symmetric

    def recording(rows):
        flags.append((len(rows), is_symmetric(rows)))
        return flags[-1][1]

    monkeypatch.setattr(linalg, "_is_symmetric", recording)
    rng = random.Random(89)
    for trial in range(60):
        n = rng.randint(2, 7)
        rows = rand_symmetric(rng, n, (-3, -1, 0, 1, 2, 4))
        i, j = sorted(rng.sample(range(n), 2))
        rows[i][j] += rng.choice((-2, -1, 1, 2))
        flags.clear()
        assert linalg._bareiss_minors(rows) == fraction_minors(rows)
        assert flags[0] == (n, False), trial
        flags.clear()
        polys = [[P.constant(e) for e in row] for row in rows]
        assert poly_det(polys).evaluate(0) == fraction_det(rows)
        assert flags == [(n, False)], trial


def test_packed_q4_determinant_halves_the_divisions(monkeypatch):
    # Q_4 is 24 x 24, symmetric, and does not split.  Its pivots are all
    # nonzero, so the full square divides sum(k**2, k = 1..22) = 3795 times
    # and the upper triangle sum(k*(k+1)/2, k = 1..22) = 2024 times.
    # poly_det eliminates its two symmetric 12 x 12 centrosymmetric halves
    # instead: 2 * 385 and 2 * 220 divisions.
    rows = build_gram(1, (1, 2, 3, 4)).entries
    assert linalg._tensor_split(rows) is None
    stride = linalg._stride(len(rows), linalg._height(rows))
    int_divexact, is_symmetric = linalg._int_divexact, linalg._is_symmetric
    calls = []

    def counting(num, den):
        calls.append(den)
        return int_divexact(num, den)

    monkeypatch.setattr(linalg, "_int_divexact", counting)
    runs = (
        (lambda: linalg._packed_det(rows, stride), ((False, 2024), (True, 3795))),
        (lambda: poly_det(rows), ((False, 440), (True, 770))),
    )
    for det, counts in runs:
        for full_square, divisions in counts:
            calls.clear()
            full = (lambda rows: False) if full_square else is_symmetric
            monkeypatch.setattr(linalg, "_is_symmetric", full)
            assert det() == det_closed_form(1, 4)
            assert len(calls) == divisions, full_square


def test_packed_and_plain_agree_on_symmetric_matrices_with_swaps():
    # Symmetric Polynomial matrices whose packed elimination needs a row
    # swap: the plain route keeps the full-square loop and checks the
    # half-triangle one with its mirror fallback.
    rng = random.Random(97)
    swapped = 0
    for trial in range(80):
        n = rng.randint(2, 6)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rand_poly(rng, 2, 3) if rng.random() < 0.7 else P.zero()
        if trial % 2:
            rows[0][0] = rows[0][1] = rows[1][0] = rows[1][1] = rand_poly(rng, 2, 3) + Q**3
        else:
            rows[0][0] = P.zero()
        packed = poly_det([r[:] for r in rows])
        assert packed == plain_det(rows), trial
        if n <= 4:
            assert packed == laplace_det(rows)
        # A zero leading minor (of size 1 or 2) and a nonzero determinant
        # force a swap, as above.
        swapped += not packed.is_zero
    assert swapped >= 50


def test_split_stride_is_tight(monkeypatch):
    # A 4 x 4 matrix with h = 5 that is a tensor product except at entry
    # (0, 3): there x * c - a * e = (q - 4)(-5) - (-4)(3 + q) = 32 - q,
    # which q -> 2**5 maps to 0 but q -> 2**6 does not.
    c = P.constant
    rows = [
        [c(-5), 3 + Q, c(-4), Q - 4],
        [c(5), c(-5), c(4), c(-4)],
        [c(5), -3 - Q, c(-5), 3 + Q],
        [c(-5), c(5), c(5), c(-5)],
    ]
    stride = linalg._split_stride(linalg._height(rows))
    assert stride == (2 * 5**2).bit_length() == 6
    assert linalg._tensor_split(rows) is None
    assert linalg._tensor_split(linalg._ints_at(rows, 1 << stride)[0]) is None
    expected = plain_det(rows)
    assert poly_det(rows) == expected == laplace_det(rows)
    # One bit less and the packed test accepts a false split.
    assert linalg._tensor_split(linalg._ints_at(rows, 1 << (stride - 1))[0]) is not None
    monkeypatch.setattr(linalg, "_split_stride", lambda h: stride - 1)
    assert poly_det(rows) != expected


def test_q_n_is_centrosymmetric():
    # Left multiplication by the longest permutation reverses the basis of
    # Q_n and commutes with it, so Q_n[i][j] == Q_n[N-1-i][N-1-j].
    for n in range(2, 6):
        rows = build_gram(1, tuple(range(1, n + 1))).entries
        size = len(rows)
        assert all(
            rows[i][j] == rows[size - 1 - i][size - 1 - j] for i in range(size) for j in range(size)
        ), n
        assert linalg._centro_halves(rows) is not None, n


def test_q4_determinant_packs_two_halves(monkeypatch):
    # Q_4 (24 x 24, stride 57) is eliminated as two 12 x 12 halves at
    # stride 35, which are not centrosymmetric themselves.
    packed_det = linalg._packed_det
    leaves = []

    def recording(rows, stride):
        leaves.append((len(rows), stride))
        return packed_det(rows, stride)

    monkeypatch.setattr(linalg, "_packed_det", recording)
    rows = build_gram(1, (1, 2, 3, 4)).entries
    assert linalg._stride(len(rows), linalg._height(rows)) == 57
    assert poly_det(rows) == det_closed_form(1, 4)
    assert leaves == [(12, 35), (12, 35)]


def rand_block(rng, k, symmetric):
    rows = [[rand_poly(rng, 2, 3) for _ in range(k)] for _ in range(k)]
    if symmetric:
        for i in range(k):
            for j in range(i):
                rows[i][j] = rows[j][i]
    return rows


def centro_from_halves(rng, k, symmetric, singular):
    """A centrosymmetric 2k x 2k matrix and its halves (A + BJ, A - BJ).

    With random X and D, A = X + D and BJ = s * D, so the halves are X and
    X + 2D in an order set by the sign s; a singular X has a zero row (and
    column, when symmetric).  Symmetric X and D give a symmetric matrix.
    """
    x, d = rand_block(rng, k, symmetric), rand_block(rng, k, symmetric)
    if singular:
        for i in range(k):
            x[0][i] = P.zero()
            if symmetric:
                x[i][0] = P.zero()
    s = rng.choice((1, -1))
    a = [[xe + de for xe, de in zip(xr, dr)] for xr, dr in zip(x, d)]
    bj = [[s * de for de in dr] for dr in d]
    top = [ar + br[::-1] for ar, br in zip(a, bj)]
    rows = top + [row[::-1] for row in top[::-1]]
    twice = [[xe + 2 * de for xe, de in zip(xr, dr)] for xr, dr in zip(x, d)]
    return rows, ((twice, x) if s > 0 else (x, twice))


def test_centrosymmetric_determinants_split_into_halves():
    # det M = det(A + BJ) det(A - BJ) on centrosymmetric matrices of even
    # order 2..10, symmetric and not, singular ones included; the plain
    # route never splits and the references share no code with Bareiss.
    rng = random.Random(101)
    singular = 0
    for trial in range(50):
        k, symmetric = 1 + trial % 5, trial % 2 == 0
        rows, halves = centro_from_halves(rng, k, symmetric, trial % 7 == 3)
        size = 2 * k
        assert all(
            rows[i][j] == rows[size - 1 - i][size - 1 - j] for i in range(size) for j in range(size)
        )
        assert linalg._centro_halves(rows) == halves, trial
        if symmetric:
            assert all(linalg._is_symmetric(half) for half in halves)
        packed = poly_det(rows)
        assert packed == plain_det(rows), trial
        if size <= 4:
            assert packed == laplace_det(rows)
        singular += packed.is_zero
    assert singular >= 5


def test_near_centrosymmetric_matrices_are_not_halved():
    # One entry off its mirror by q, in the upper or the lower triangle of
    # either half of the rows, of a matrix that is not symmetric: no split,
    # and the packed determinant still equals the plain one.
    rng = random.Random(103)
    for trial in range(36):
        k = 2 + trial % 4
        rows, _ = centro_from_halves(rng, k, False, False)
        size = 2 * k
        i = rng.randrange(1, k)
        j = rng.randrange(i) if trial % 3 else rng.randrange(i, size)
        if trial % 2:
            i, j = size - 1 - i, size - 1 - j
        rows[i][j] = rows[i][j] + Q
        assert linalg._centro_halves(rows) is None, trial
        assert poly_det(rows) == plain_det(rows), trial


def test_half_stride_fits_an_extremal_minor():
    # diag(H, JHJ), with Sylvester's 4 x 4 Hadamard matrix H, neither
    # splits nor is H centrosymmetric, so both halves are H, whose
    # determinant 16 meets the Hadamard bound that sets its stride.
    h2 = ((1, 1), (1, -1))
    h = [[h2[i // 2][j // 2] * h2[i % 2][j % 2] for j in range(4)] for i in range(4)]
    top = [[P((e,)) for e in row] + [P.zero()] * 4 for row in h]
    rows = top + [row[::-1] for row in top[::-1]]
    assert linalg.split_tree(rows)[1] is None
    plus, minus = linalg._centro_halves(rows)
    assert plus == minus == [row[:4] for row in top]
    assert linalg._centro_halves(plus) is None
    assert poly_det(rows) == plain_det(rows) == P((256,))
