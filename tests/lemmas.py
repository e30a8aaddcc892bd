"""Helpers that state lemmas of the group algebra; only tests call them.

Each one builds an object whose defining property a test checks against
the package: the group inverse, the split of a colored permutation into its
permutation and color parts, the split of the q-weighted group sum, the
cyclic all-shifts sum with the geometric inverse of one shift, an n = 1
element placed at one of n positions, the product of such placements over
every position (the color sum, and the color part of the inverse, position
by position), the q**cinv counting sum of one inner product, walked pair
by pair, and the group-algebra product and representation matrix read on
objects, one checked ``act`` per pair (the package runs both on plain
words).  Four more are linear algebra that imports nothing from
``quonalg.linalg``: determinants and leading minors, each by its own
Gaussian elimination over Fractions, the determinant of a Polynomial
matrix by Bareiss over Polynomial values on the whole square
(``plain_det``, the plain route beside ``poly_det``'s integer one), and
the tensor product of two matrices.  ``evaluate_block`` evaluates a block
entry by entry as Fractions, the plain route beside ``posdef``'s scaled
integer evaluation, and ``evaluate_reference`` is Horner's rule on
Fractions, the plain route beside ``Polynomial.evaluate``'s integer one.
``annihilate_reference`` is the annihilator rule on ``Polynomial``
coefficients, one shifted copy per step, and ``expectation_reference``
applies it one annihilator at a time: the plain route beside
``quon_engine``'s packed walk.
``power_product_reference`` multiplies coefficient lists by schoolbook
convolution, one factor at a time: the plain route beside
``exact_arith.power_product``'s recurrence.
``verify_inverse_reference`` is the dense two-sided check of a printed
inverse, two ``ga_mul`` products with the group sum built from ``cinv`` on
objects: the plain route beside ``verify_inverse``'s sparse factors.
``cosym_column_reference`` and ``rep_column_reference`` give one column of
a Gram block and of ``rep_matrix`` from one walk of the group's table for
that column alone: the plain route beside ``GroupTable.columns``, which
walks one column per symmetry orbit and transports the rest.  Nothing in
this module reads the symmetry code.
``parse_polynomial`` and ``parse_rational_function`` read the canonical
strings of ``Polynomial`` and ``RationalFunction`` back, so tests can check
what the CLI prints.
"""

import re
from fractions import Fraction
from functools import reduce

from quonalg.colored_perm import (
    ColoredArrangement,
    act,
    cinv,
    enumerate_arrangements,
    enumerate_group,
    group_table,
)
from quonalg.exact_arith import Polynomial, RationalFunction
from quonalg.group_algebra import GroupAlgebraElement, ga_mul


def inverse(pi):
    """The group inverse: act(pi, inverse(pi)) is the neutral element."""
    n = pi.n
    m = pi.m
    inv_values = [0] * n
    for i, s in enumerate(pi.values):
        inv_values[s - 1] = i + 1
    inv_colors = tuple(
        (-pi.colors[inv_values[i] - 1]) % m or m for i in range(n)
    )
    return ColoredArrangement(m, tuple(inv_values), inv_colors)


def decompose(pi):
    """Split pi into a neutral-colored part and a pure color part.

    Returns (perm_part, color_part) with perm_part carrying pi's value word
    and all-neutral colors, color_part carrying the identity word and pi's
    colors; act(perm_part, color_part) == pi and cinv is additive across the
    pair.
    """
    m, n = pi.m, pi.n
    perm_part = ColoredArrangement(m, pi.values, (m,) * n)
    color_part = ColoredArrangement(m, tuple(range(1, n + 1)), pi.colors)
    return perm_part, color_part


def factor_sum(m, n):
    """Split the q-weighted group sum into permutation and color factors.

    Returns (perm_sum, color_sum): the q**inversions sum over neutral-colored
    permutations and the q**(non-neutral count) sum over pure color elements.
    ga_mul(perm_sum, color_sum) equals cinv_sum(m, n), and color_sum equals
    the product of the n single-position sums 1 + q*(all shifts).
    """
    neutral = (m,) * n
    identity_word = tuple(range(1, n + 1))
    perm_terms = {}
    color_terms = {}
    for g in enumerate_group(m, n):
        if g.colors == neutral:
            perm_terms[g] = Polynomial.monomial(cinv(g))
        if g.values == identity_word:
            color_terms[g] = Polynomial.monomial(cinv(g))
    return (
        GroupAlgebraElement(m, n, perm_terms),
        GroupAlgebraElement(m, n, color_terms),
    )


def all_shifts_sum(m, z):
    """The cyclic element 1 + z * (sum of all m-1 nontrivial shifts)."""
    terms = {ColoredArrangement.neutral(m, 1): 1}
    for k in range(1, m):
        terms[ColoredArrangement(m, (1,), (k,))] = z
    return GroupAlgebraElement(m, 1, terms)


def single_shift_inverse(m, z):
    """Inverse of (1 - z * shift) as a geometric sum over (1 - z**m).

    Returns (numerator, denominator): the numerator is the sum over i < m of
    z**i shift**i, the denominator 1 - z**m.
    """
    one = Polynomial.one()
    terms = {}
    acc = one
    for i in range(m):
        terms[ColoredArrangement(m, (1,), (i or m,))] = acc
        acc = acc * z
    return GroupAlgebraElement(m, 1, terms), one - z**m


def at_position(x, n, pos):
    """The n = 1 element x acting at position pos of n: each term's color
    there, the neutral color elsewhere, the identity value word."""
    m = x.m
    return GroupAlgebraElement(
        m,
        n,
        {
            ColoredArrangement(
                m, tuple(range(1, n + 1)), (m,) * (pos - 1) + pi.colors + (m,) * (n - pos)
            ): c
            for pi, c in x.terms.items()
        },
    )


def position_product(x, n):
    """The product over positions 1..n of the n = 1 element x placed there."""
    return reduce(ga_mul, (at_position(x, n, pos) for pos in range(1, n + 1)))


def color_inverse_reference(m, n):
    """The color part of the inverse as a product over positions: at each,
    the numerator (1 + (m-2)q)e - qS = all_shifts_sum(m, -q) + (m-2)q e of
    the inverse of all_shifts_sum(m, q), S the sum of the nontrivial shifts."""
    q = Polynomial.q()
    e = GroupAlgebraElement.identity(m, 1)
    return position_product(all_shifts_sum(m, -q) + e.scale((m - 2) * q), n)


def cosym_reference(theta_bra, theta_ket):
    """<bra|ket> as a q**cinv sum over one whole walk of the group per pair.

    The definition read literally: add q**cinv(pi) for every colored
    permutation pi with act(theta_ket, pi) == theta_bra.  Arrangements of
    different multisets or lengths never match, and give 0.
    """
    total = Polynomial.zero()
    for pi in enumerate_group(theta_ket.m, theta_ket.n):
        if act(theta_ket, pi) == theta_bra:
            total = total + Polynomial.monomial(cinv(pi))
    return total


def cosym_column_reference(theta_ket):
    """The ket's column of the Gram block from one walk of the group for
    this ket alone: each pi adds 1 to the count of cinv(pi) at the basis
    position of act(theta_ket, pi), found by ``GroupTable.walk``.  This is
    the counting loop that filled every column before blocks were walked
    once per symmetry orbit; no column is read from another."""
    n = theta_ket.n
    table = group_table(theta_ket.m, n)
    basis, image = table.basis(tuple(sorted(theta_ket.values)))
    counts = [[0] * (n * (n + 1) // 2 + 1) for _ in basis]
    for targets, cinvs in table.walk(image, table.moves, theta_ket.values, theta_ket.colors):
        for i, c in zip(targets, cinvs):
            counts[i][c] += 1
    return tuple(map(Polynomial, counts))


def rep_column_reference(x, multiset, theta):
    """The column of theta in ``rep_matrix(x, multiset)`` from one walk of
    x's terms for theta alone (``GroupTable.walk``), each term adding its
    coefficient, a Polynomial, at the position of its image.  This is the
    loop that filled every column of ``rep_matrix`` before it walked one
    basis element per symmetry orbit, without the packing."""
    table = group_table(x.m, x.n)
    basis, image = table.basis(tuple(multiset))
    column = [Polynomial.zero()] * len(basis)
    moves = table.compile(x.terms.items())
    for targets, coeffs in table.walk(image, moves, theta.values, theta.colors):
        for i, c in zip(targets, coeffs):
            column[i] = column[i] + c
    return tuple(column)


def ga_mul_reference(x, y):
    """``ga_mul(x, y)`` on objects: each pair (pi_x, pi_y) of terms adds
    cx * cy at act(pi_y, pi_x)."""
    out = {}
    for pi_x, cx in x.terms.items():
        for pi_y, cy in y.terms.items():
            g = act(pi_y, pi_x)
            out[g] = out.get(g, Polynomial.zero()) + cx * cy
    return GroupAlgebraElement(x.m, x.n, out)


def verify_inverse_reference(printed, denominator):
    """Whether the printed inverse, each term num/den cleared to
    num * (D / den) with D = ``denominator``, gives N * s == D * e == s * N
    by two dense ``ga_mul`` products, s the sum of q**cinv(pi) * pi; a den
    that does not divide D fails."""
    m, n = printed.m, printed.n
    terms = {}
    for pi, c in printed.terms.items():
        try:
            terms[pi] = c.num * denominator.divexact(c.den)
        except ValueError:
            return False
    cleared = GroupAlgebraElement(m, n, terms)
    s = {pi: Polynomial.monomial(cinv(pi)) for pi in enumerate_group(m, n)}
    s = GroupAlgebraElement(m, n, s)
    target = GroupAlgebraElement.identity(m, n).scale(denominator)
    return ga_mul(cleared, s) == target and ga_mul(s, cleared) == target


def rep_matrix_reference(x, multiset):
    """The entries of ``rep_matrix(x, multiset)`` on objects: entry (i, j)
    adds c for every term (pi, c) of x with act(basis[j], pi) == basis[i]."""
    basis = enumerate_arrangements(x.m, multiset)
    index = {theta: i for i, theta in enumerate(basis)}
    rows = [[Polynomial.zero()] * len(basis) for _ in basis]
    for j, theta in enumerate(basis):
        for pi, c in x.terms.items():
            i = index[act(theta, pi)]
            rows[i][j] = rows[i][j] + c
    return tuple(map(tuple, rows))


def evaluate_block(block, q0):
    """The block as exact Fractions at q = q0 (entries are polynomials)."""
    q0 = Fraction(q0)
    return [[entry.evaluate(q0) for entry in row] for row in block.entries]


def fraction_det(rows):
    """Determinant of a square matrix by Gaussian elimination over Fractions."""
    rows = [[Fraction(e) for e in row] for row in rows]
    n = len(rows)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        pivot = rows[k][k]
        det *= pivot
        for i in range(k + 1, n):
            f = rows[i][k] / pivot
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return det


def plain_det(rows):
    """Determinant of a square Polynomial matrix by Bareiss's fraction-free
    elimination over ZZ[q] on the full square, with row swaps and no split.

    After step k every entry below and right of the pivot is a minor of
    the row-permuted input, so each division by the previous pivot is
    exact (``Polynomial.divexact`` checks it), and the last pivot is the
    determinant up to the sign of the swaps.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    rows = [list(row) for row in rows]
    sign, prev = 1, Polynomial.one()
    for k in range(n):
        p = next((i for i in range(k, n) if not rows[i][k].is_zero), None)
        if p is None:
            return Polynomial.zero()
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot, row_k = rows[k][k], rows[k]
        for row_i in rows[k + 1 :]:
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - head * row_k[j]).divexact(prev)
        prev = pivot
    return prev if sign > 0 else -prev


def fraction_minors(rows):
    """Leading principal minors, each by its own ``fraction_det``."""
    return [fraction_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]


def kron(a, b):
    """The tensor product of two square matrices.

    Entry [s*len(b) + i][t*len(b) + j] is a[s][t] * b[i][j].
    """
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def power_product_reference(factors):
    """prod f**e over the pairs (f, e), as a Polynomial, by multiplying
    coefficient lists e times each, schoolbook."""
    acc = [1]
    for f, e in factors:
        for _ in range(e):
            out = [0] * (len(acc) + len(f.coeffs) - 1)
            for i, a in enumerate(acc):
                for j, b in enumerate(f.coeffs):
                    out[i + j] += a * b
            acc = out
    return Polynomial(acc)


def evaluate_reference(poly, point):
    """``poly`` at a rational point by Horner's rule on Fractions."""
    acc = Fraction(0)
    x = Fraction(point)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def annihilate_reference(mode, color, m, terms):
    """One annihilator on {creator word: Polynomial}, the rule read literally.

    Every position u (1-based) holding ``mode`` gives the word without it,
    weighted by q**(u - 1) and one more q if the colors differ mod m.
    """
    out = {}
    for word, coeff in terms.items():
        for u, (cmode, ccolor) in enumerate(word, start=1):
            if cmode != mode:
                continue
            mismatch = 0 if (color - ccolor) % m == 0 else 1
            weight = Polynomial((0,) * (u - 1 + mismatch) + coeff.coeffs)
            shorter = word[: u - 1] + word[u:]
            acc = out.get(shorter)
            out[shorter] = weight if acc is None else acc + weight
    return {w: c for w, c in out.items() if not c.is_zero}


def expectation_reference(bra, ket, m):
    """<bra|ket> by ``annihilate_reference``, innermost (last) annihilator first."""
    terms = {tuple(ket): Polynomial.one()}
    for mode, color in reversed(tuple(bra)):
        terms = annihilate_reference(mode, color, m, terms)
    return terms.get((), Polynomial.zero())


_TERM = re.compile(r"([0-9]*)(q(?:\^([0-9]+))?)?")


def parse_polynomial(text):
    """Parse the canonical polynomial grammar, e.g. ``1 - 2q + q^2``.

    Whitespace may surround the ``+``/``-`` separators and the whole
    string, never stand inside a term: ``"1 2"`` is rejected, not read as 12.
    """
    tokens = re.split(r"\s*([+-])\s*", text.strip())
    if tokens[0] or len(tokens) == 1:
        tokens.insert(0, "+")
    else:
        del tokens[0]
    coeffs = {}
    for sign, term in zip(tokens[0::2], tokens[1::2]):
        match = _TERM.fullmatch(term)
        if not term or not match:
            raise ValueError(f"malformed term {term!r} in {text!r}")
        mag, var, exponent = match.groups()
        degree = int(exponent) if exponent else int(bool(var))
        value = int(mag) if mag else 1
        coeffs[degree] = coeffs.get(degree, 0) + (value if sign == "+" else -value)
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return Polynomial(out)


def parse_rational_function(text):
    """Parse a bare polynomial or the canonical ``(num)/(den)`` form, as written."""
    s = text.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        num_str, den_str = s[1:-1].split(")/(", 1)
        return RationalFunction(parse_polynomial(num_str), parse_polynomial(den_str))
    return RationalFunction(parse_polynomial(s))
