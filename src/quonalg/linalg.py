"""Fraction-free exact linear algebra over ZZ[q] and over the rationals.

Determinants take Polynomial matrices (every block of the package lies in
ZZ[q]); leading minors take a matrix of ints and one common scale.

Every elimination is one Bareiss loop, ``_bareiss``: its entries are minors
of the input, so every division is exact, and its pivots are the leading
principal minors of the row-permuted input.  The caller supplies the exact
division and the zero test, so packed integers and plain Polynomial values
share the control flow but keep separate ring arithmetic and stay oracles
for each other.  The matrices the package's own paths eliminate are
symmetric (Gram blocks, the representation matrix of ``cinv_sum`` and the
leaves of their split), and an int matrix that equals its transpose,
checked exactly, is eliminated on its upper triangle alone: half the work
of the full square (the proof is in ``_bareiss``).  Polynomial determinants run on the image of the matrix
under q -> 2**stride (balanced-digit Kronecker packing by
``exact_arith.pack_coeffs`` and ``unpack_int``, which ``ga_mul`` shares;
the proof for determinants is in ``poly_det``).  Leading minors of a
rational matrix are those of one integer matrix with one common scale,
both given by the caller.

Before either eliminates, the tensor-product split (``_tensor_split``, not
to be confused with the Kronecker packing above) tests exactly whether the
matrix is a tensor product (A (x) B) / c: on the ints for minors, and on
packed images of the polynomials for determinants (``_split_det``).  If
so, leading minors come from those of A and B by a closed formula
(``_int_leading_minors``), and the determinant is det(A)**b * det(B)**a /
c**(a*b) for A of size a and B of size b, an exact division in ZZ[q]
(``_split_det``); A and B split again where they can.  The regular Gram
block is Q_n (x) K (x) ... (x) K with n factors K (see ``posdef``), so its
minors and its determinant come from those of Q_n and of the m-by-m K.  A
matrix that does not split takes one Bareiss pass: without row swaps for
minors, and packed at the stride of its own entries for a determinant.  The
plain Polynomial route of ``poly_det`` never splits: it eliminates the
whole matrix, over the full square, and stays the oracle for the packed
one.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import attrgetter, not_

from .exact_arith import Polynomial, pack_coeffs, unpack_int


def _bareiss(rows, divexact, is_zero, swap=True, symmetric=False):
    """One fraction-free elimination pass over a square matrix, destructively.

    Returns ``(sign, pivots)``: pivot k is the (k+1)-th leading principal
    minor of the matrix with its rows permuted, ``sign`` the sign of that
    permutation.  With ``swap``, a zero pivot is replaced by the first row
    below it with a nonzero entry in its column.  Without ``swap``, or when
    no such row exists, the pass stops with fewer pivots than rows, and the
    next leading minor is zero.

    ``symmetric`` is the caller's exact promise that the matrix equals its
    transpose; the pass then reads and writes only the upper triangle.
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
    sign, prev, pivots = 1, None, []
    for k in range(n):
        row_k = rows[k]
        if is_zero(row_k[k]):
            if swap and symmetric:
                for i in range(k + 1, n):
                    rows[i][k:i] = [rows[j][i] for j in range(k, i)]
                symmetric = False
            below = (i for i in range(k + 1, n) if not is_zero(rows[i][k]))
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
                row_i[j] = num if prev is None else divexact(num, prev)
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


def _det(rows, divexact=_int_divexact, is_zero=not_, zero=0, symmetric=False):
    """Determinant of a nonempty square matrix by ``_bareiss``, destructively.

    The defaults are the integer ring; Polynomial callers pass their own.
    """
    sign, pivots = _bareiss(rows, divexact, is_zero, symmetric=symmetric)
    if len(pivots) < len(rows):
        return zero
    return pivots[-1] if sign > 0 else -pivots[-1]


def _stride(n, h):
    """Bits per packed coefficient of an n x n matrix of height h (see
    ``_height``): B.bit_length() + 1 (see ``poly_det``).

    B bounds every coefficient of every minor.  On the unit circle each entry
    is bounded in modulus by its l1 coefficient norm, at most h, so Hadamard
    bounds a k-minor by (sqrt(k) h)**k <= ceil(sqrt(n**n)) h**n = B, and no
    coefficient of a polynomial exceeds its maximum modulus there.
    """
    return ((isqrt(n**n - 1) + 1) * h**n).bit_length() + 1


def _height(rows):
    """The largest l1 coefficient norm of an entry, at least 1."""
    return max([1] + [sum(map(abs, p.coeffs)) for row in rows for p in row])


def _split_stride(h):
    """Bits per packed coefficient for the split test: (2 h**2).bit_length().

    See ``_split_det`` for why it suffices and ``_height`` for h.
    """
    return (2 * h**2).bit_length()


def _pack(rows, stride):
    """The image of a Polynomial matrix under q -> 2**stride, as int lists."""
    return [[pack_coeffs(p.coeffs, stride) for p in row] for row in rows]


def _packed_det(rows, stride):
    """Determinant of the image of ``rows`` under q -> 2**stride, unpacked."""
    packed = _pack(rows, stride)
    return Polynomial(unpack_int(_det(packed, symmetric=_is_symmetric(packed)), stride))


def _split_det(rows):
    """Determinant of a nonempty square Polynomial matrix, packed and split.

    Where ``_tensor_split`` finds rows = (A (x) B) / c, the determinant is
    det(A)**b * det(B)**a / c**(a*b), with both factors from this function
    again; a factor that does not split takes ``_packed_det`` at its own
    ``_stride``, followed by the degree check (see ``poly_det``).  Both
    strides read the height h, the largest l1 coefficient norm of an entry,
    computed once per call.

    The split is tested on the images of the entries under q -> 2**s, with
    s = ``_split_stride(h)`` = (2 h**2).bit_length().  Proof that this test
    is exact.  The test compares x * c with a * e for entries x, c, a, e,
    and phi: q -> 2**s is a ring homomorphism, so it compares phi(d) with 0
    for d = x * c - a * e.  A coefficient of x * c is at most ||x||_1 *
    max|c_i| <= h**2 in modulus, and so is one of a * e, so every
    coefficient of d has modulus at most 2 h**2 < 2**s.  If d != 0 and d_t is its lowest nonzero coefficient,
    phi(d) = 2**(s*t) * (d_t + 2**s * r) for an integer r, and d_t is not a
    multiple of 2**s, so phi(d) != 0.  Hence phi(d) == 0 iff d == 0 (and
    phi(c) == 0 iff c == 0, since |c_i| <= h), so the packed test splits
    exactly the matrices the Polynomial test splits; the factors are
    returned as Polynomial sub-blocks of ``rows``.
    """
    h = _height(rows)
    split = _tensor_split(rows, _pack(rows, _split_stride(h)))
    if split is not None:
        corners, block = split
        a, b = len(corners), len(block)
        num = _split_det(corners) ** b * _split_det(block) ** a
        return num.divexact(rows[0][0] ** (a * b))
    result = _packed_det(rows, _stride(len(rows), h))
    max_degree = sum(
        max((p.degree for p in row if not p.is_zero), default=0) for row in rows
    )
    if not result.is_zero and result.degree > max_degree:
        raise ArithmeticError("packed determinant exceeded its degree bound")
    return result


def poly_det(rows, method="packed"):
    """Exact determinant of a square matrix of Polynomial entries.

    ``method`` chooses between the packed route (default) and the plain
    Bareiss over Polynomial values, which eliminates the whole matrix
    without splitting and so stays an independent cross-check of the
    packed route.

    The packed route first applies the tensor-product split.  When
    ``_tensor_split`` finds rows * c == A (x) B, with c = rows[0][0] != 0,
    A of size a and B of size b, then

        det(rows) = det(A)**b * det(B)**a / c**(a*b).

    Proof.  A (x) B = (A (x) I_b) (I_a (x) B).  I_a (x) B is block diagonal
    with a copies of B, so its determinant is det(B)**a; A (x) I_b is a
    simultaneous permutation of rows and columns away from I_b (x) A, whose
    determinant is det(A)**b.  Multiplying all a*b rows by c multiplies the
    determinant by c**(a*b).  ZZ[q] is an integral domain and det(rows) lies
    in it, so the division by c**(a*b) is exact; ``Polynomial.divexact``
    checks it.  A and B split again where they can, and each factor that
    does not split (a leaf) is packed at its own stride, computed from its
    own entries, so the regular block Q_n (x) K (x) ... (x) K only ever
    eliminates Q_n and the m-by-m K.

    Why the packed stride s = B.bit_length() + 1 of ``_stride`` suffices
    for a leaf.  phi: q -> 2**s is a ring homomorphism ZZ[q] -> ZZ.  Run
    Bareiss over ZZ[q] and, side by side, over the images.  A polynomial
    step computes c = (p*a - h*b) / prev, exactly in ZZ[q], so phi(p)*phi(a)
    - phi(h)*phi(b) = phi(prev)*phi(c): the integer division is exact too
    and yields phi(c).  The un-reduced numerator may have coefficients up
    to 2*B**2, but it is never unpacked.  Every entry either run tests
    against zero or returns, pivots included, is a minor of the input, with
    coefficients of modulus at most B < 2**(s-1).  Balanced base-2**s digits
    represent such a polynomial uniquely, so phi maps it to zero only if it
    is zero: both runs pick the same pivots, and the integer run ends with
    phi(det), whose balanced digits are the coefficients of det.  The
    degree check on each leaf guards the bound itself.
    """
    n = len(rows)
    if n == 0:
        return Polynomial.one()
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if method == "plain":
        rows = [list(r) for r in rows]
        return _det(rows, Polynomial.divexact, attrgetter("is_zero"), Polynomial.zero())
    return _split_det(rows)


def _bareiss_minors(ints):
    """Leading principal minors of a square int matrix by elimination.

    One Bareiss pass without row swaps gives every minor as a pivot.  After
    a zero pivot, each later minor takes its own elimination.  A symmetric
    matrix, checked once, is eliminated on its upper triangle, and so are
    its leading submatrices, which are symmetric too.
    """
    n = len(ints)
    rows = [row[:] for row in ints]
    symmetric = _is_symmetric(rows)
    _, minors = _bareiss(rows, _int_divexact, not_, swap=False, symmetric=symmetric)
    if len(minors) < n:
        minors.append(0)
        minors += [
            _det([row[:k] for row in ints[:k]], symmetric=symmetric)
            for k in range(len(minors) + 1, n + 1)
        ]
    return minors


def _tensor_split(rows, images=None):
    """``(A, B)`` with ``rows == (A (x) B) / c`` and c = rows[0][0], or None.

    ``rows`` is a square matrix over an integral domain: ints or
    Polynomials.  For each divisor b of the size N with 1 < b < N, smallest
    first, A is the matrix of corner entries of the b-by-b blocks, A[s][t] =
    rows[s*b][t*b], and B the top-left block.  The split holds iff
    ``rows[s*b+i][t*b+j] * c == A[s][t] * B[i][j]`` for every entry, since
    (A (x) B)[s*b+i][t*b+j] = A[s][t] * B[i][j].  The check is exact and
    stops at the first mismatch, most often in row 0.  It runs on
    ``images``, the entries' images under a ring homomorphism that is
    injective on every difference it compares (``rows`` itself by default;
    see ``_split_det`` for packed images), and A and B are returned from
    ``rows``.  A zero c never splits.
    """
    n = len(rows)
    images = rows if images is None else images
    c = images[0][0] if n else 0
    if not c:
        return None
    for b in range(2, n):
        if n % b:
            continue
        for r, row in enumerate(images):
            corners = images[r - r % b][::b]
            inner = images[r % b][:b]
            expected = (a * e for a in corners for e in inner)
            if any(x * c != y for x, y in zip(row, expected)):
                break
        else:
            return [row[::b] for row in rows[::b]], [row[:b] for row in rows[:b]]
    return None


def _int_leading_minors(ints):
    """Leading principal minors D_1..D_N of a square int matrix, exactly.

    The tensor-product split.  When ``_tensor_split`` finds ints =
    (A (x) B) / c, with A of size a and B of size b, write k = s*b + t with
    0 <= s < a and 1 <= t <= b.  Then, with D_0 = 1,

        D_k(ints) = D_s(A)**(b-t) * D_{s+1}(A)**t * D_b(B)**s * D_t(B) / c**k,

    and the minors of A and B come from this function again, so a product
    of several factors splits down to factors that do not split.

    Proof.  D_k(ints) = D_k(A (x) B) / c**k, so take c = 1.  Let A_s and B_t
    be the top-left s-by-s and t-by-t parts of A and B, e = A[s][s], u and
    v the first s entries of row s and of column s of A, and B_r, B_c the
    first t rows and the first t columns of B.  The top-left k-by-k part of
    A (x) B is [[A_s (x) B, v (x) B_c], [u (x) B_r, e * B_t]].  Over the
    field of fractions of the entries, det(A_s (x) B) = D_s(A)**b *
    D_b(B)**s, and the Schur complement of A_s (x) B is e * B_t - (u A_s**-1
    v) * (B_r B**-1 B_c) = (e - u A_s**-1 v) * B_t = (D_{s+1}(A) / D_s(A))
    * B_t, since B_r B**-1 is the first t rows of the identity.  Its
    determinant is (D_{s+1}(A) / D_s(A))**t * D_t(B), and the product of
    the two determinants is the formula.  Both sides are polynomials in the
    entries of A and B that agree wherever D_s(A) and D_b(B) are nonzero,
    so they agree everywhere, zero minors included, as at the singular
    endpoints of a scan.  D_k(ints) is an integer, so the division by c**k
    is exact; ``_int_divexact`` checks it.

    A matrix that does not split takes ``_bareiss_minors``.
    """
    split = _tensor_split(ints)
    if split is None:
        return _bareiss_minors(ints)
    corners, block = split
    c, b = ints[0][0], len(block)
    da = [1] + _int_leading_minors(corners)
    db = [1] + _int_leading_minors(block)
    minors = []
    for s in range(len(corners)):
        for t in range(1, b + 1):
            num = da[s] ** (b - t) * da[s + 1] ** t * db[b] ** s * db[t]
            minors.append(_int_divexact(num, c ** (s * b + t)))
    return minors


def leading_minors(ints, scale=1):
    """Exact leading principal minors of the rational matrix ``ints / scale``.

    ``ints`` is a square matrix of ints, left unchanged, and ``scale`` a
    positive int; entry [k-1] of the result is the Fraction determinant of
    the top-left k-by-k submatrix, D_k(ints) / scale**k.
    ``_int_leading_minors`` computes the D_k: through the tensor-product
    split where the matrix is a tensor product, and by one Bareiss pass
    otherwise.
    """
    n = len(ints)
    if any(len(row) != n for row in ints):
        raise ValueError("matrix is not square")
    return [Fraction(value, scale**k) for k, value in enumerate(_int_leading_minors(ints), 1)]
