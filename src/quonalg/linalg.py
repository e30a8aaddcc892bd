"""Fraction-free exact linear algebra over ZZ[q] and over the rationals.

Every elimination is one Bareiss loop over ints, ``_bareiss``: its entries
are minors of the input, so every division is exact, and its pivots are the
leading principal minors of the row-permuted input.  A ZZ[q] matrix enters
it through one map to ints, ``_ints_at``: its image under q -> 2**stride
(balanced-digit Kronecker packing, read back by ``exact_arith.unpack_int``;
proof in ``poly_det``) or its value at a rational point scaled by one
common power of the denominator.  A leaf whose degrees allow it is scaled
per index instead (``_graded_ints``), to the same minors.

The tensor-product split (not the Kronecker packing) is found once per
Polynomial matrix, in ZZ[q]: ``split_tree`` tests whether the matrix is
(A (x) B) / c, with c its corner entry, and splits A and B again.  The
regular Gram block Q_n (x) K (x) ... (x) K (see ``posdef``) splits down to
leaves Q_n and K with c = 1 at every node.  Determinants (``_split_det``)
and the exact leading minors at a rational point (``leading_minors``, the
one minors entry point) are assembled from the leaves'.  A leaf's
determinant splits once more where the leaf has even order and is
centrosymmetric, M[i][j] == M[N-1-i][N-1-j], into the determinants of two
halves of half the order (``_centro_halves``).  Q_n is centrosymmetric:
it commutes with the left action of S_n, and left multiplication by the
longest permutation reverses its lexicographic basis.  That change of
basis keeps the determinant but not the leading minors, which never use
it.  The tests check ``poly_det`` against Bareiss over Polynomial values on
the whole square, which shares no code with this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import isqrt

from .exact_arith import Polynomial, check_point, stride, unpack_int


def _bareiss(rows, swap=True):
    """One fraction-free elimination pass over a square int matrix, destructively.

    Returns ``(sign, pivots)``: pivot k is the (k+1)-th leading principal
    minor of the matrix with its rows permuted, ``sign`` the sign of that
    permutation.  With ``swap``, a zero pivot is replaced by the first row
    below it with a nonzero entry in its column.  Without ``swap``, or when
    no such row exists, the pass stops at the zero pivot k, with k pivots,
    and leaves row k of ``rows`` holding, from column k on, the minors on
    rows {0..k} and columns {0..k-1, j} (``_bareiss_minors`` reads them).

    A matrix equal to its transpose (``_is_symmetric``, tested here and
    nowhere else) is eliminated on its upper triangle alone.
    Proof.  After step k (Bareiss, Math. Comp. 22, 1968), entry (i, j) for
    i, j > k is the minor on rows {0..k, i} and columns {0..k, j} of the
    row-permuted input, and before step 0 it is the input entry.  While no
    row has been swapped, that input is the symmetric M itself, and
    transposing M maps this minor to the one on rows {0..k, j} and columns
    {0..k, i}: entry (j, i).  So step k needs, for row i > k, only the
    entries j >= i, and its multiplier, entry (i, k), equals entry (k, i),
    which the pivot row holds.  A swap breaks the symmetry: the pass then
    first mirrors the trailing upper triangle into the lower one and goes on
    over the full square.
    """
    n = len(rows)
    symmetric = _is_symmetric(rows)
    sign, prev, pivots = 1, None, []
    for k in range(n):
        row_k = rows[k]
        if not row_k[k]:
            if swap and symmetric:
                for i in range(k + 1, n):
                    rows[i][k:i] = [rows[j][i] for j in range(k, i)]
                symmetric = False
            below = (i for i in range(k + 1, n) if rows[i][k])
            i = next(below, None) if swap else None
            if i is None:
                break
            row_k, rows[i] = rows[i], row_k
            rows[k] = row_k
            sign = -sign
        pivot = row_k[k]
        pivots.append(pivot)
        for i in range(k + 1, n):
            row_i = rows[i]
            head, start = (row_k[i], i) if symmetric else (row_i[k], k + 1)
            row_i[k] = None  # never read again; dropping it keeps memory flat
            for j in range(start, n):
                num = pivot * row_i[j] - head * row_k[j]
                row_i[j] = num if prev is None else _int_divexact(num, prev)
        prev = pivot
    return sign, pivots


def _is_symmetric(rows):
    """Whether a list of int lists equals its transpose, compared exactly in C."""
    return rows == [list(col) for col in zip(*rows)]


def _int_divexact(num, den):
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("inexact division in Bareiss step")
    return quot


def _det(rows):
    """Determinant of a nonempty square int matrix by ``_bareiss``, destructively."""
    sign, pivots = _bareiss(rows)
    if len(pivots) < len(rows):
        return 0
    return pivots[-1] if sign > 0 else -pivots[-1]


def _stride(n, h):
    """Bits per packed coefficient of an n x n matrix of height h (see
    ``_height``): ``stride(B)`` (see ``poly_det``).

    B bounds every coefficient of every minor.  On the unit circle each entry
    is bounded in modulus by its l1 coefficient norm, at most h, so Hadamard
    bounds a k-minor by (sqrt(k) h)**k <= ceil(sqrt(n**n)) h**n = B, and no
    coefficient of a polynomial exceeds its maximum modulus there.
    """
    return stride((isqrt(n**n - 1) + 1) * h**n)


def _height(rows):
    """The largest l1 coefficient norm of an entry, at least 1."""
    return max([1] + [sum(map(abs, c)) for c in {p.coeffs for row in rows for p in row}])


def _split_stride(h):
    """Bits per packed coefficient of the split test (proof in ``split_tree``)."""
    return stride(h**2)


def _packed_det(rows, stride):
    """Determinant of the image of ``rows`` under q -> 2**stride, unpacked."""
    return Polynomial(unpack_int(_det(_ints_at(rows, 1 << stride)[0]), stride))


def _tensor_split(rows):
    """The block size b of a split ``rows == (A (x) B) / c``, or None.

    ``rows`` is a square matrix over an integral domain (the packed images
    of ``split_tree``).  For each divisor b of the size N with 1 < b < N,
    smallest first, A[s][t] = rows[s*b][t*b] holds the corners of the b-by-b
    blocks, B is the top-left block and c = rows[0][0].  The split holds iff
    rows[s*b+i][t*b+j] * c == A[s][t] * B[i][j] for every entry, checked
    exactly, row 0 first.  A zero c never splits.
    """
    n = len(rows)
    c = rows[0][0] if n else 0
    if not c:
        return None
    for b in range(2, n):
        if n % b:
            continue
        for r, row in enumerate(rows):
            corners = rows[r - r % b][::b]
            inner = rows[r % b][:b]
            scaled = row if c == 1 else [x * c for x in row]
            if scaled != [a * e for a in corners for e in inner]:
                break
        else:
            return b
    return None


def split_tree(rows):
    """The tensor-product split tree of a square Polynomial matrix.

    A node is ``(rows, children)``: ``children`` is None for a leaf, and
    otherwise the nodes of A and B with rows = (A (x) B) / c, c = rows[0][0]
    (also the corner of A and B), from ``_tensor_split``.  A matrix that is
    not square, or a non-Polynomial entry, raises ``ValueError`` first.

    Every split is tested on the entries' images under phi: q -> 2**s
    (``_ints_at``), s = ``_split_stride(h)`` = ``stride(h**2)``, h the
    largest l1 coefficient norm of a root entry.
    Proof that the test is exact.  It compares x * c with a * e for entries
    x, c, a, e, and phi is a ring homomorphism, so it compares phi(d) with 0
    for d = x * c - a * e.  A coefficient of x * c is at most ||x||_1 *
    max|c_i| <= h**2 < 2**(s-1) in modulus, and so is one of a * e, so
    every coefficient of d has modulus below 2**s.  If d != 0 and d_t is
    its lowest nonzero coefficient, phi(d) = 2**(s*t) * (d_t + 2**s * r)
    for an integer r, and d_t is not a multiple of 2**s, so phi(d) != 0.
    Hence phi(d) == 0 iff d == 0 (and phi(c) == 0 iff c == 0), and the
    entries of every node are root entries, so the packed test splits
    exactly where the Polynomial test would.
    """
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    for row in rows:
        for p in row:
            if not isinstance(p, Polynomial):
                raise ValueError(f"matrix entry is not a polynomial: {p}")
    return _split_node(rows, _ints_at(rows, 1 << _split_stride(_height(rows)))[0])


def _split_node(rows, images):
    """The ``split_tree`` node of ``rows``, split where their images split."""
    b = _tensor_split(images)
    if b is None:
        return rows, None
    corners = [[row[::b] for row in m[::b]] for m in (rows, images)]
    top = [[row[:b] for row in m[:b]] for m in (rows, images)]
    return rows, (_split_node(*corners), _split_node(*top))


def _centro_halves(rows):
    """``(A + BJ, A - BJ)`` if the square Polynomial matrix ``rows`` has even
    order 2k and is centrosymmetric, else None.

    A and B are the top-left and top-right k-by-k blocks and J is the
    k-by-k exchange matrix, so row i of BJ is row i of ``rows`` reversed,
    cut to k entries.  Centrosymmetric means rows[i][j] ==
    rows[2k-1-i][2k-1-j] for every i, j; it is compared exactly, row i
    against row 2k-1-i reversed, and the test stops at the first mismatch.
    Then det(rows) = det(A + BJ) * det(A - BJ) (Cantoni and Butler, Linear
    Algebra Appl. 13, 1976).

    Proof.  Centrosymmetry says rows = [[A, B], [JBJ, JAJ]].  With T =
    [[I, I], [J, -J]] and J*J = I, rows * T = [[A + BJ, A - BJ], [J(A + BJ),
    -J(A - BJ)]] = T * diag(A + BJ, A - BJ).  det T = det(-2J) = (-2)**k *
    det J != 0 (the Schur complement of its top-left I is -2J), and ZZ[q]
    is an integral domain, so det T cancels.  A symmetric ``rows`` gives
    symmetric halves: A = A^T, and its bottom-left block is both JBJ and
    B^T, so (BJ)^T = J B^T = BJ.  An entry of a half is the sum or the
    difference of two entries, so its l1 norm is at most 2h, h that of
    ``rows``.  Each distinct pair of entries is added once.
    """
    n = len(rows)
    k = n // 2
    mirrored = (tuple(rows[i]) != tuple(reversed(rows[n - 1 - i])) for i in range(k))
    if not n or n % 2 or any(mirrored):
        return None
    pairs = {}
    plus, minus = [], []
    for row in rows[:k]:
        row_plus, row_minus = [], []
        for a, b in zip(row[:k], row[::-1]):
            key = (a.coeffs, b.coeffs)
            if key not in pairs:
                pairs[key] = (a + b, a - b)
            s, d = pairs[key]
            row_plus.append(s)
            row_minus.append(d)
        plus.append(row_plus)
        minus.append(row_minus)
    return plus, minus


def _leaf_det(rows):
    """Determinant of a ``split_tree`` leaf.  A centrosymmetric leaf of even
    order is the product of its halves' (``_centro_halves``), each tested
    again; any other takes ``_packed_det`` at its own ``_stride`` and a
    degree check."""
    halves = _centro_halves(rows)
    if halves:
        plus, minus = halves
        return _leaf_det(plus) * _leaf_det(minus)
    result = _packed_det(rows, _stride(len(rows), _height(rows)))
    max_degree = sum(max([0] + [p.degree for p in row if not p.is_zero]) for row in rows)
    if not result.is_zero and result.degree > max_degree:
        raise ArithmeticError("packed determinant exceeded its degree bound")
    return result


def _split_det(node):
    """Determinant of the matrix of a ``split_tree`` node (see ``poly_det``),
    from its leaves' (``_leaf_det``).  The powers are schoolbook
    ``Polynomial.__pow__``, not ``exact_arith.power_product``: their bases
    are dense leaf determinants, and the recurrence was slower there
    (``regular_block_det(2, 4)`` 0.68-0.74 -> 1.69-1.85 s)."""
    rows, children = node
    if children:
        a, b = children
        num = _split_det(a) ** len(b[0]) * _split_det(b) ** len(a[0])
        return num.divexact(rows[0][0] ** len(rows))
    return _leaf_det(rows)


def poly_det(rows):
    """Exact determinant of a square matrix of Polynomial entries.

    The determinant is assembled from the leaves of ``split_tree``
    (``_split_det``).  Where rows * c == A (x) B, with c = rows[0][0] != 0,
    A of size a and B of size b,

        det(rows) = det(A)**b * det(B)**a / c**(a*b).

    Proof.  A (x) B = (A (x) I_b) (I_a (x) B).  I_a (x) B is block diagonal
    with a copies of B, so its determinant is det(B)**a; A (x) I_b is a
    simultaneous permutation of rows and columns away from I_b (x) A, whose
    determinant is det(A)**b.  Multiplying all a*b rows by c multiplies the
    determinant by c**(a*b).  ZZ[q] is an integral domain and det(rows) lies
    in it, so the division by c**(a*b) is exact; ``Polynomial.divexact``
    checks it.  A centrosymmetric leaf of even order is halved first, its
    halves tested again (``_centro_halves``, with the proof), and each leaf
    or half is packed at the stride of its own entries, so the regular
    block only ever eliminates the halves of Q_n (n >= 2) and the m-by-m K
    or its halves: two 12-by-12 matrices instead of the 24-by-24 Q_4.

    Why the packed stride s = ``stride(B)`` of ``_stride`` suffices
    for a leaf or a half.  phi: q -> 2**s is a ring homomorphism ZZ[q] ->
    ZZ.  Run Bareiss over ZZ[q] and, side by side, over the images.  A
    polynomial step computes c = (p*a - h*b) / prev, exactly in ZZ[q], so
    phi(p)*phi(a) - phi(h)*phi(b) = phi(prev)*phi(c): the integer division
    is exact too and yields phi(c).  The un-reduced numerator may have
    coefficients up to 2*B**2, but it is never unpacked.  Every entry either
    run tests against zero or returns, pivots included, is a minor of the
    input, with coefficients of modulus at most B < 2**(s-1).  Balanced
    base-2**s digits represent such a polynomial uniquely, so phi maps it to
    zero only if it is zero: both runs pick the same pivots, and the integer
    run ends with phi(det), whose balanced digits are the coefficients of
    det.  The degree check on each leaf guards the bound itself.
    """
    if not rows:
        return Polynomial.one()
    return _split_det(split_tree(rows))


def _bareiss_minors(ints):
    """Leading principal minors of a square int matrix by elimination.

    One Bareiss pass without row swaps gives every minor as a pivot.  If it
    stops at a zero pivot k, minor k + 1 is 0, and so is every later minor
    when the pass left row k zero; otherwise each later minor takes its own
    elimination.

    Proof of the stop.  Let D_j be minor j (D_0 = 1) and b_ij the minor on
    rows {0..k-1, i} and columns {0..k-1, j}; row k holds b_kj for j >= k
    (``_bareiss``).  Sylvester's identity (Bareiss, 1968) gives, for t >= 1,
    det(b_ij), i and j in k..k+t-1, = D_k**(t-1) * D_{k+t}, and D_k != 0 is
    the last pivot.  A zero row k is the first row of each of these t-by-t
    determinants, so all of them, and every D_{k+t}, are 0.
    """
    n, rows = len(ints), [row[:] for row in ints]
    _, minors = _bareiss(rows, swap=False)
    k = len(minors)
    if k < n:
        later = range(k + 2, n + 1) if any(rows[k][k:]) else ()
        minors += [0] + [_det([row[:j] for row in ints[:j]]) for j in later]
    return minors + [0] * (n - len(minors))


def _kron_minors(da, db, c):
    """Leading principal minors of (A (x) B) / c from those of A and B.

    ``da`` and ``db`` are the minors D_1.. of square int matrices A, of
    size a, and B, of size b, and c is a nonzero int.  For k = s*b + t with
    0 <= s < a and 1 <= t <= b, and D_0 = 1,

        D_k((A (x) B) / c) = D_s(A)**(b-t) D_{s+1}(A)**t D_b(B)**s D_t(B) / c**k.

    Proof.  Take c = 1: dividing k rows by c divides D_k by c**k.  Let A_s
    and B_t be the top-left s-by-s and t-by-t parts of A and B, e = A[s][s],
    u and v the first s entries of row s and of column s of A, and B_r, B_c
    the first t rows and columns of B.  The top-left k-by-k part of A (x) B
    is [[A_s (x) B, v (x) B_c], [u (x) B_r, e * B_t]].  Over the field of
    fractions of the entries, det(A_s (x) B) = D_s(A)**b * D_b(B)**s, and
    the Schur complement of A_s (x) B is e * B_t - (u A_s**-1 v) * (B_r
    B**-1 B_c) = (D_{s+1}(A) / D_s(A)) * B_t, since B_r B**-1 is the first t
    rows of the identity.  Its determinant is (D_{s+1}(A) / D_s(A))**t *
    D_t(B), and the product of the two determinants is the formula.  Both
    sides are polynomials in the entries of A and B that agree wherever
    D_s(A) and D_b(B) are nonzero, so they agree everywhere, zero minors
    included.

    Why the division by c**k is exact where ``_node_minors`` calls this.
    At a node M = (A (x) B) / c and q0 = p/r, with c(q0) = i_c / S_c != 0,
    A(q0) = I_A / S_A and B(q0) = I_B / S_B for int matrices I_A and I_B,
    S * M(q0) is (I_A (x) I_B) / i_c with S = S_A * S_B / S_c.  Each scale
    is r**E (``_ints_at``): E is the largest entry degree at a leaf and
    E_A + E_B - deg(c) at a node.  By induction from the leaves, no entry
    a * e / c of M has degree above E, so S * M(q0) is an int matrix with
    int minors, and E_A >= deg(c), as c is A's corner, so S is an int.
    """
    b = len(db)
    da, db = [1] + da, [1] + db
    minors, power = [], 1  # power = D_b(B)**s
    for s in range(len(da) - 1):
        for t in range(1, b + 1):
            num = da[s] ** (b - t) * da[s + 1] ** t * power * db[t]
            minors.append(num if c == 1 else _int_divexact(num, c ** (s * b + t)))
        power *= db[b]
    return minors


def _ints_at(rows, x):
    """A Polynomial matrix at x = p/r, an int or a Fraction, as ``(ints, r**E)``,
    rows(x) = ints / r**E, E the largest entry degree: sum(c_i q**i) maps to
    sum(c_i p**i r**(E-i)), at x = 2**s the Kronecker image under q -> 2**s.
    Each distinct entry, told apart by its coefficient tuple, is mapped once."""
    p, r = x.numerator, x.denominator
    values = dict.fromkeys(entry.coeffs for row in rows for entry in row)
    degree = max([0] + [len(coeffs) - 1 for coeffs in values])
    weights = [p**i * r ** (degree - i) for i in range(degree + 1)]
    for coeffs in values:
        values[coeffs] = sum(c * w for c, w in zip(coeffs, weights))
    return [[values[entry.coeffs] for entry in row] for row in rows], r**degree


def _graded_ints(rows, q0):
    """``(ints, r**E, lifts)`` for a nonempty Polynomial matrix at q0 = p/r
    with r > 1, or None where its test fails: minors on smaller integers.

    Let e_i be the degree of rows[0][i] (0 for a zero entry), E the largest
    entry degree and f_k = 2 * (e_0 + ... + e_{k-1}).  The test is deg
    rows[i][j] <= e_i + e_j for every i, j, and f_k <= k * E for k = 1..N.
    Proof.  Then ints = D * rows(q0) * D with D = diag(r**e_i) is an int
    matrix: sum(c_d * q**d) at entry (i, j) maps to sum(c_d * p**d *
    r**(e_i + e_j - d)), each distinct (entry, e_i + e_j) once.  Its minor
    k is det(D_k)**2 = r**f_k times minor k of rows(q0), so times lifts[k-1]
    = r**(k*E - f_k), an int, it is minor k of r**E * rows(q0), the
    ``_ints_at`` matrix: the same minors at the same scale.  Each entry the
    elimination computes, a bordered minor, carries r**(f_k + e_i + e_j) in
    place of r**((k+1)*E).  Q_n in lexicographic order passes, with e_i the
    inversion count of word i: entry (i, j) is q**inv(x_i**-1 x_j), and the
    length of a permutation is subadditive; the first k words have at most
    k * E / 2 inversions in all (by induction on n, over the blocks of
    words with one first letter b, each adding b - 1 to the inversions of
    the words of length n - 1).  K with m >= 3 colors fails the prefix
    test (f_k = 2k - 2 > k = k * E for k >= 3).
    """
    r, p = q0.denominator, q0.numerator
    if r == 1 or not rows:
        return None
    grades = [max(x.degree, 0) for x in rows[0]]
    keys = [[(x.coeffs, gi + gj) for gj, x in zip(grades, row)] for gi, row in zip(grades, rows)]
    values, top = dict.fromkeys(chain.from_iterable(keys)), 0
    for coeffs, g in values:
        if len(coeffs) - 1 > g:
            return None
        top = max(top, len(coeffs) - 1)
        values[coeffs, g] = sum(c * p**d * r ** (g - d) for d, c in enumerate(coeffs))
    lifts, f = [], 0
    for k, e in enumerate(grades, 1):
        f += 2 * e
        if f > k * top:
            return None
        lifts.append(r ** (k * top - f))
    return [list(map(values.__getitem__, row)) for row in keys], r**top, lifts


def _node_minors(node, q0, corner=None):
    """``(minors, scale)``: the leading minors of the int matrix scale *
    M(q0), M the matrix of a ``split_tree`` node (see ``_kron_minors``).
    Every node shares the root's corner, so ``corner`` is its ``_ints_at``.
    A matrix left unsplit is evaluated by ``_graded_ints`` where its test
    passes and by ``_ints_at`` otherwise, to the same minors and scale."""
    rows, children = node
    if children:
        corner = corner or _ints_at([rows[0][:1]], q0)
        [[c]], corner_scale = corner
        if c:
            da, sa = _node_minors(children[0], q0, corner)
            db, sb = _node_minors(children[1], q0, corner)
            return _kron_minors(da, db, c), sa * sb // corner_scale
    graded = _graded_ints(rows, q0)
    if graded:
        ints, scale, lifts = graded
        return [v * w for v, w in zip(_bareiss_minors(ints), lifts)], scale
    ints, scale = _ints_at(rows, q0)
    return _bareiss_minors(ints), scale


def leading_minors(tree, q0):
    """Exact leading principal minors, a tuple of Fractions, of the matrix
    of a ``split_tree`` node at the rational point q0.

    Only the leaves are evaluated (``_graded_ints`` or ``_ints_at``), each
    takes one Bareiss pass (``_bareiss_minors``), and each node combines
    its children's minors (``_kron_minors``, with the proofs).  If the
    corner vanishes at q0, the whole matrix is evaluated instead.  Minor k
    is divided by scale**k once, at the end.
    """
    values, scale = _node_minors(tree, check_point(q0))
    return tuple(Fraction(v, scale**k) for k, v in enumerate(values, 1))
