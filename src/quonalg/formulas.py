"""Closed forms for the determinant and inverse of the q-weighted group sum,
with brute-force oracles for both.

Determinant of the regular representation of the q-weighted sum over the
colored permutation group on n positions with m colors:

    ((1 + (m-1)q)(1 - q)**(m-1))**E_c  *  prod_{i=1}^{n-1} (1 - q**(i*i+i))**E_i

with E_c = n * m**(n-1) * n! and E_i = (n-i) * m**n * n! / (i*i + i).  The
color exponent E_c follows from the coset argument applied to each of the n
single-position factors (index m**(n-1) * n! each); the flat exponent
m**n * n! sometimes quoted for the color part fails the n = 1 oracle, where
the block is an m-by-m circulant whose determinant, the color base
(1+(m-1)q)(1-q)**(m-1) of ``circulant_det_closed``, appears to the first
power.  ``regular_block_det`` (fraction-free elimination of the
representation matrix) is the arbiter and is checked against the closed
form in the test suite.

The closed-form inverse multiplies sparse factors, each a ZZ[q] numerator
over a central scalar ZZ[q] denominator, so it is one numerator N in
ZZ[q][G] over the product D of the scalars.  Only the printed inverse
divides: each of its coefficients is the reduced quotient of a coefficient
of N by D.  The two-sided inverse check in the tests fixes every product
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .exact_arith import Polynomial, RationalFunction, poly_lcm
from .colored_perm import (
    ColoredPermutation,
    act,
    insertion_cycle,
)
from .group_algebra import (
    GroupAlgebraElement,
    all_shifts_inverse,
    cinv_sum,
    circulant_det_closed,
    embed_single_position,
    ga_mul,
    product_chain,
    rep_matrix,
)
from . import linalg


@dataclass(frozen=True)
class DetFactorization:
    """Factored determinant of the regular block: color part and cycle parts."""

    m: int
    n: int
    color_base: Polynomial
    color_exponent: int
    perm_factors: tuple  # ((1 - q**(i*i+i), exponent) for i in 1..n-1)

    def expand(self):
        out = self.color_base ** self.color_exponent
        for base, exponent in self.perm_factors:
            out = out * base**exponent
        return out

    def factored_str(self):
        bits = []
        if self.m > 1:
            q = Polynomial.q()
            one = Polynomial.one()
            head = f"({one + (self.m - 1) * q})({one - q})"
            if self.m > 2:
                head += f"^{self.m - 1}"
            bits.append(f"({head})^{self.color_exponent}")
        for base, exponent in self.perm_factors:
            bits.append(f"({base})^{exponent}")
        return " * ".join(bits) if bits else "1"


def det_factorization(m, n):
    """Factored closed form of the regular-block determinant."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    q = Polynomial.q()
    one = Polynomial.one()
    color_exponent = n * m ** (n - 1) * factorial(n)
    perm_factors = []
    for i in range(1, n):
        step = i * i + i
        numerator = (n - i) * m**n * factorial(n)
        exponent, remainder = divmod(numerator, step)
        if remainder:
            raise ArithmeticError(f"non-integer cycle exponent at i={i}")
        perm_factors.append((one - q**step, exponent))
    return DetFactorization(
        m=m,
        n=n,
        color_base=circulant_det_closed(m, q),
        color_exponent=color_exponent,
        perm_factors=tuple(perm_factors),
    )


@lru_cache(maxsize=None)
def det_closed_form(m, n):
    """Expanded closed form of the regular-block determinant, cached per
    (m, n) like ``cinv_sum`` and ``inverse_closed_form``."""
    return det_factorization(m, n).expand()


def regular_block_det(m, n):
    """Determinant of the regular representation of the group sum, by ``poly_det``.

    The representation matrix is the regular Gram block, Q_n (x) K (x) ...
    (x) K, so ``poly_det`` eliminates only Q_n and the m-by-m K.
    """
    return linalg.poly_det(rep_matrix(cinv_sum(m, n), tuple(range(1, n + 1))).entries)


def _difference_product(m, n, j):
    """Product over k = 1..j-1 of (1 - q**(j-k) * insertion_cycle(j, k))."""
    q = Polynomial.q()
    factors = []
    for k in range(1, j):
        cyc = GroupAlgebraElement.from_element(insertion_cycle(m, n, j, k))
        factors.append(GroupAlgebraElement.identity(m, n) - cyc.scale(q ** (j - k)))
    return product_chain(factors)


def _geometric_product(m, n, j):
    """Product over k = j-1..1 of geometric series in insertion_cycle(j-1, k).

    The k factor is sum_{i=0}^{j-1-k} q**((j-k+1)i) cycle**i, over the scalar
    (1 - q**((j-k)(j-k+1))).  Returns (product of the series, product of
    the scalars).
    """
    one = Polynomial.one()
    factors = []
    denominator = one
    for k in range(j - 1, 0, -1):
        top = j - 1 - k
        cyc = insertion_cycle(m, n, j - 1, k)
        power = ColoredPermutation.neutral(m, n)
        terms = {}
        for i in range(top + 1):
            terms[power] = Polynomial.monomial((top + 2) * i)
            power = act(power, cyc)
        factors.append(GroupAlgebraElement(m, n, terms))
        denominator = denominator * (one - Polynomial.monomial((top + 1) * (top + 2)))
    return product_chain(factors), denominator


@lru_cache(maxsize=None)
def inverse_closed_form(m, n):
    """The closed-form inverse of cinv_sum(m, n), assembled from sparse factors.

    Every factor is a ZZ[q] numerator over a scalar ZZ[q] denominator.  The
    color part is the product over positions k = 1..n of the inverse of the
    color sum at k, supported on the cyclic shifts there, over (1 + (m-1)q)
    (1-q).  The permutation part has one block for each size j = n..2, the
    largest acting first: the difference product, over k < j, of (1 -
    q**(j-k) * cycle(j -> k)), then the geometric product, over k <= j-1,
    of truncated geometric series in cycle(j-1 -> k), whose scalars are the
    (1 - q**((j-k)(j-k+1))); both are neutral-colored.  The color part acts
    after the permutation part, and verify_inverse pins these orders
    two-sidedly.  Each coefficient of the result is the reduced quotient of
    a coefficient of the numerator N by the product D of all the scalars:
    the only quotients the package builds.  Memoised like ``cinv_sum``, so a
    caller that prints and then verifies the inverse assembles it once.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    color_inverse, color_denominator = all_shifts_inverse(m)
    color = product_chain(
        embed_single_position(color_inverse, n, pos) for pos in range(1, n + 1)
    )
    denominator = color_denominator**n
    blocks = []
    for j in range(n, 1, -1):
        series, scalar = _geometric_product(m, n, j)
        blocks.append(ga_mul(series, _difference_product(m, n, j)))
        denominator = denominator * scalar
    perm = product_chain(blocks) if blocks else GroupAlgebraElement.identity(m, n)
    numerator = ga_mul(perm, color)
    return GroupAlgebraElement(
        m,
        n,
        {pi: RationalFunction(c, denominator) for pi, c in numerator.terms.items()},
    )


def verify_inverse(m, n):
    """Two-sided exact check that the printed inverse inverts the group sum.

    The printed inverse is cleared by the lcm L of its denominators to an
    element N over ZZ[q]; then N * s == L * e == s * N is checked in ZZ[q],
    with no gcd inside either product.
    """
    s = cinv_sum(m, n)
    inv = inverse_closed_form(m, n)
    lcm = Polynomial.one()
    for den in {c.den for c in inv.terms.values()}:
        lcm = poly_lcm(lcm, den)
    cleared = GroupAlgebraElement(
        m, n, {pi: c.num * lcm.divexact(c.den) for pi, c in inv.terms.items()}
    )
    target = GroupAlgebraElement.identity(m, n).scale(lcm)
    return ga_mul(cleared, s) == target and ga_mul(s, cleared) == target
