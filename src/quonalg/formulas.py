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
(1+(m-1)q)(1-q)**(m-1) of ``det_factorization``, appears to the first
power.  ``regular_block_det`` (fraction-free elimination of the
representation matrix) is the arbiter and is checked against the closed
form in the test suite.

The closed-form inverse multiplies sparse factors, each a ZZ[q] numerator
over a central scalar ZZ[q] denominator, so it is one numerator N in
ZZ[q][G] over the product D of the scalars.  D is known factored into
irreducibles (1 - q, 1 + (m-1)q and cyclotomic polynomials), so only the
printed inverse divides, and only by trial division: each of its
coefficients is a coefficient of N over D, with every irreducible factor
they share divided out.  The two-sided inverse check fixes every product
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import factorial

from .exact_arith import Polynomial, RationalFunction, pack_coeffs, power_product
from .colored_perm import (
    ColoredArrangement,
    act,
    check_sizes,
    enumerate_group,
    insertion_cycle,
    sized_cache,
)
from .group_algebra import (
    GroupAlgebraElement,
    cinv_sum,
    ga_mul,
    inverts_cinv_sum,
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
        """The expanded product, by the linear recurrence of
        ``exact_arith.power_product``: every factor has constant term 1."""
        return power_product(((self.color_base, self.color_exponent),) + self.perm_factors)

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
    """Factored closed form of the regular-block determinant.

    The color base (1 + (m-1)q)(1 - q)**(m-1) is the determinant at n = 1,
    where the block is the m-by-m circulant of e + q*S, S the sum of the
    m - 1 nontrivial color shifts.  Its eigenvalues are
    1 + q*(w + w**2 + ... + w**(m-1)) over the m-th roots of unity w:
    1 + (m-1)q once (w = 1) and 1 - q for each of the other m - 1.
    """
    check_sizes(m, n, 1)
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
        color_base=(one + (m - 1) * q) * (one - q) ** (m - 1),
        color_exponent=color_exponent,
        perm_factors=tuple(perm_factors),
    )


@sized_cache
def det_closed_form(m, n):
    """Expanded closed form of the regular-block determinant, cached per
    (m, n) like ``cinv_sum`` and ``inverse_closed_form``."""
    return det_factorization(m, n).expand()


def regular_block_det(m, n):
    """Determinant of the regular representation of the group sum, by ``poly_det``.

    The representation matrix is the regular Gram block, Q_n (x) K (x) ...
    (x) K, so ``poly_det`` eliminates only the two n!/2-by-n!/2
    centrosymmetric halves of Q_n (n >= 2) and the m-by-m K or its halves.
    """
    return linalg.poly_det(rep_matrix(cinv_sum(m, n), tuple(range(1, n + 1))).entries)


def _color_part(m, n):
    """The numerator of the inverse of the color sum, over ((1 + (m-1)q)(1 - q))**n.

    One term per color word on the identity value word (the first m**n
    elements of ``enumerate_group``): a word with k non-neutral colors has
    the weight (1 + (m-2)q)**(n-k) * (-q)**k.

    Why.  Let S be the sum of the m - 1 nontrivial color shifts g**a at
    one position, g of order m.  In S*S the pairs (a, b) with a + b = 0
    mod m number m - 1, and those with a + b = c for one c != 0 number
    m - 2, so S*S = (m-1)e + (m-2)S, and hence
    (e + qS)((1 + (m-2)q)e - qS) = (1 + (m-1)q)(1 - q)e.  The color sum is
    the product over the n positions of their e + qS (``cinv`` counts the
    non-neutral colors), shifts at different positions commute, and they
    compose position-wise, so the product of the n numerators has at a
    color word the product of the per-position coefficients: 1 + (m-2)q
    at each neutral position, -q at each other.  At m = 1, S = 0 and the
    one word weighs (1 - q)**n, D's color factor.
    """
    q = Polynomial.q()
    weights = [(1 + (m - 2) * q) ** (n - k) * (-q) ** k for k in range(n + 1)]
    return GroupAlgebraElement(
        m,
        n,
        {pi: weights[n - pi.colors.count(m)] for pi in enumerate_group(m, n)[: m**n]},
    )


def _inverse_factors(m, n):
    """The factors of the inverse's numerator, reduce(ga_mul, factors).

    For j = 2..n, a neutral-colored run: for k = 1..j-1 the geometric series
    sum_{i<j-k} q**((j-k+1)i) cycle**i, cycle = insertion_cycle(j-1, k) of
    order j - k, which inverts 1 - q**(j-k+1) * cycle over the scalar
    1 - q**((j-k)(j-k+1)) of ``_denominator``; then
    1 - q**(j-k) * insertion_cycle(j, k) for k = j-1..1.  The run times T_j
    of ``group_algebra._sum_factors``, on either side, is its scalars times
    e (Zagier's factorization).  Last, the color part (``_color_part``):
    its weights count the non-neutral colors only, so conjugation by a
    permutation fixes it and it commutes with the other factors.  ``ga_mul``
    walks its left operand once per term of its right one, so the product
    is folded from the left and the m**n-term color part comes last.
    """
    e = ColoredArrangement.neutral(m, n)
    factors = []
    for j in range(2, n + 1):
        for k in range(1, j):
            top, cycle = j - 1 - k, insertion_cycle(m, n, j - 1, k)
            power, terms = e, {}
            for i in range(top + 1):
                terms[power] = Polynomial.monomial((top + 2) * i)
                power = act(power, cycle)
            factors.append(GroupAlgebraElement(m, n, terms))
        for k in range(j - 1, 0, -1):
            cycle = insertion_cycle(m, n, j, k)
            factors.append(GroupAlgebraElement(m, n, {e: 1, cycle: Polynomial.monomial(j - k, -1)}))
    return factors + [_color_part(m, n)]


@lru_cache(maxsize=None)
def _denominator(m, n):
    """The inverse's denominator D and its irreducible factors with exponents.

    D = ((1 + (m-1)q)(1 - q))**n * prod_{1 <= k < j <= n} (1 - q**t) with
    t = (j-k)(j-k+1): the color scalar at each position, then the scalars
    of the geometric series of ``_inverse_factors``.  Each 1 - q**t is
    (1 - q) times Phi_d over the divisors d >= 2 of t, and each Phi_d is
    q**d - 1 divided exactly by Phi_e for the proper divisors e of d.
    1 + (m-1)q is a unit for m = 1 and Phi_2 for m = 2.  Returns
    (D, ((factor, exponent), ...)), 1 - q first; D is the product of the
    factors raised to their exponents, by Polynomial products: at these
    degrees they are faster than the recurrence of ``power_product``.
    """
    q = Polynomial.q()
    exponents = {1: n}  # d -> exponent of Phi_d; d = 1 stands for 1 - q
    for i in range(1, n):  # t = i(i+1) for the n - i pairs with j - k = i
        t = i * i + i
        for d in range(1, t + 1):
            if t % d == 0:
                exponents[d] = exponents.get(d, 0) + n - i
    if m == 2:
        exponents[2] = exponents.get(2, 0) + n
    phi = {}
    for d in sorted(exponents):
        base = q**d - 1
        for e, f in phi.items():
            if d % e == 0:
                base = base.divexact(f)
        phi[d] = base
    phi[1] = -phi[1]
    factors = [(phi[d], exponents[d]) for d in sorted(exponents)]
    if m >= 3:
        factors.insert(1, (1 + (m - 1) * q, n))
    denominator = Polynomial.one()
    for f, e in factors:
        denominator = denominator * f**e
    return denominator, tuple(factors)


def _divide_out(c, factors):
    """``(c / R, (k_f, ...))``: each factor f of ``factors``, a tuple of
    (f, e_f), divided out of c exactly while it divides, at most e_f times,
    k_f times in all, and R = prod f**k_f.

    A division is skipped where it cannot succeed.  1 - q, the one factor
    with f(1) == 0, divides c exactly when c(1) == 0.  Any other f divides
    c only if the integer f(2) divides c(2), since q -> 2 is a ring map
    ZZ[q] -> ZZ; c(2) is carried through each exact division.
    """
    removed = []
    c_two = pack_coeffs(c.coeffs, 1)  # c(2)
    for f, e in factors:
        f_two, root_at_one = pack_coeffs(f.coeffs, 1), not sum(f.coeffs)
        k = 0
        while k < e:
            if sum(c.coeffs) if root_at_one else c_two % f_two:
                break
            try:
                c = c.divexact(f)
            except ValueError:
                break
            c_two //= f_two
            k += 1
        removed.append(k)
    return c, tuple(removed)


@sized_cache
def inverse_closed_form(m, n):
    """The closed-form inverse of cinv_sum(m, n), assembled from sparse factors.

    Every factor is a ZZ[q] numerator over a scalar ZZ[q] denominator, and
    the numerator N is their one product in ``ga_mul``'s order
    (``_inverse_factors``): a run of neutral-colored factors for each size
    j = 2..n, then the color part (``_color_part``), the inverse of the
    color sum, one term per color word, over ((1 + (m-1)q)(1-q))**n.  In
    ``ga_mul(x, y)`` y acts first, so the color part acts first; it
    commutes with the permutation factors, so any place for it gives the
    same N.  ``verify_inverse`` checks both N * s and s * N, so an order
    that inverts s on one side only fails it.  Memoised like ``cinv_sum``,
    so a caller that prints and then verifies the inverse assembles it
    once.

    Each coefficient c of the numerator N is printed over the product D of
    all the scalars, reduced by trial division: for each irreducible factor
    f of D (``_denominator``), with exponent e_f, c is divided exactly by f
    while it divides, at most e_f times, removing f**k_f; D is divided by
    the removed part R = prod f**k_f once per distinct (k_f); then the sign
    makes the denominator's leading coefficient positive.  The result is
    c/R over D/R in lowest terms.  Each f is irreducible over Q (1 - q and
    1 + (m-1)q are linear, Phi_d is irreducible), no two share a root (the
    root -1/(m-1) of 1 + (m-1)q, m >= 3, is no root of unity), and
    D = prod f**e_f, so by unique factorization in Q[q]
    gcd(c, D) = prod f**min(e_f, v_f(c)) = R up to a unit, where v_f(c) is
    the multiplicity of f in c, which ``_divide_out`` counts (an f that
    divides c in Q[q] divides it exactly in ZZ[q], since f is primitive).
    Each f is primitive, so D and D/R are primitive (Gauss's lemma), and
    c/R and D/R share no integer content either.  This is the canonical
    pair of ``RationalFunction``: no factor of positive degree and no
    integer content in common, denominator with positive leading
    coefficient.
    """
    check_sizes(m, n, 1)
    numerator = reduce(ga_mul, _inverse_factors(m, n))
    denominator, factors = _denominator(m, n)
    reduced = {}  # removed exponents (k_f) -> D / R
    terms = {}
    for pi, c in numerator.terms.items():
        c, key = _divide_out(c, factors)
        if key not in reduced:
            den = denominator
            for (f, _), k in zip(factors, key):
                den = den.divexact(f**k)
            reduced[key] = den
        terms[pi] = RationalFunction(c, reduced[key])
    return GroupAlgebraElement(m, n, terms)


def verify_inverse(m, n):
    """Two-sided exact check that the printed inverse inverts the group sum.

    Each printed term num/den is cleared to num * (D / den), with D the
    inverse's denominator, to an element N over ZZ[q]; then N * s == D * e
    == s * N is checked in ZZ[q] through the sparse factors of
    s = ``cinv_sum(m, n)``, which are checked to multiply to s
    (``group_algebra.inverts_cinv_sum``).  A den that does not divide D
    fails the check.
    """
    denominator = _denominator(m, n)[0]
    parts = {}  # den -> (D / den, {pi: num})
    for pi, c in inverse_closed_form(m, n).terms.items():
        if c.den not in parts:
            try:
                parts[c.den] = denominator.divexact(c.den), {}
            except ValueError:
                return False
        parts[c.den][1][pi] = c.num
    return inverts_cinv_sum(m, n, parts.values(), denominator)
