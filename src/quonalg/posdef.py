"""Exact positive-definiteness certificates for Gram blocks at rational q.

A block evaluated at an exact rational point is a symmetric matrix of
rationals; its leading principal minors decide definiteness (Sylvester):
all positive means positive definite.  A negative minor before any zero one
means indefinite.  Otherwise a zero minor means singular when the
determinant (the last minor) is zero, and indefinite when it is not: a
nonsingular block with a zero leading minor is neither positive nor negative
definite.  The block is evaluated straight to integers with one common scale
(``_scaled_block``), and ``linalg.leading_minors`` computes the minors
exactly, so there are no tolerances anywhere.  The regular block of the
multiset 1..n is a tensor product: build_gram(m, (1..n)) = Q_n (x) K (x)
... (x) K with n factors K, where Q_n = build_gram(1, (1..n)) and K =
(1-q) I_m + q J_m.  In the canonical order the colors, counted by value
slot, vary fastest within each value word, and cinv adds one q per
non-neutral color, a count that does not depend on the permutation once
colors are indexed by value.  ``leading_minors`` finds this structure in
the evaluated block (the tensor-product split) and takes every minor from
the minors of Q_n and of the m-by-m K; a block that does not split takes
one fraction-free elimination pass.

``scan`` samples a closed interval on an exact rational grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import Polynomial
from .gram import build_gram
from . import linalg

POSITIVE_DEFINITE = "positive_definite"
SINGULAR = "singular"
INDEFINITE = "indefinite"


@dataclass(frozen=True)
class PosDefReport:
    """Verdict of one exact certification at one rational point."""

    m: int
    multiset: tuple
    q0: Fraction
    minors: tuple
    verdict: str

    @property
    def smallest_minor(self):
        return min(self.minors) if self.minors else Fraction(1)


def classify_minors(minors):
    """Sylvester verdict from the leading principal minors."""
    for value in minors:
        if value < 0:
            return INDEFINITE
        if value == 0:
            return SINGULAR if minors[-1] == 0 else INDEFINITE
    return POSITIVE_DEFINITE


def _scaled_block(block, q0):
    """The block at q = q0 as ``(ints, scale)`` with block(q0) = ints / scale.

    With q0 = p/r in lowest terms and D the largest entry degree, the entry
    sum(c_i q**i) maps to the integer sum(c_i p**i r**(D-i)) and the common
    scale is r**D.  Entries must be Polynomials, as every ``build_gram``
    entry is.  Each distinct entry is evaluated once: a regular block of
    size N holds a handful of distinct values among its N**2 entries.  They
    are told apart by their coefficient tuples, which hash and compare
    without a Python-level call.
    """
    q0 = Fraction(q0)
    p, r = q0.numerator, q0.denominator
    values = {}
    for row in block.entries:
        for entry in row:
            if not isinstance(entry, Polynomial):
                raise ValueError(f"block entry is not a polynomial: {entry}")
            values[entry.coeffs] = None
    degree = max([0] + [len(coeffs) - 1 for coeffs in values])
    weights = [p**i * r ** (degree - i) for i in range(degree + 1)]
    for coeffs in values:
        values[coeffs] = sum(c * w for c, w in zip(coeffs, weights))
    return [[values[entry.coeffs] for entry in row] for row in block.entries], r**degree


def certify_block(block, q0):
    """Exact Sylvester certification of one block at one rational point.

    Sylvester's criterion holds only for a symmetric matrix, so a block that
    differs from its transpose at q0 raises ``ValueError``.
    """
    q0 = Fraction(q0)
    ints, scale = _scaled_block(block, q0)
    if ints != [list(col) for col in zip(*ints)]:
        i, j = next((i, j) for i, row in enumerate(ints) for j in range(i) if row[j] != ints[j][i])
        raise ValueError(
            f"block is not symmetric at q = {q0}: entry ({i}, {j}) is {block.entries[i][j]}"
            f" but entry ({j}, {i}) is {block.entries[j][i]}"
        )
    minors = tuple(linalg.leading_minors(ints, scale))
    return PosDefReport(
        m=block.m,
        multiset=block.multiset,
        q0=q0,
        minors=minors,
        verdict=classify_minors(minors),
    )


def certify(m, n, q0):
    """Certify the regular block (multiset 1..n) at one rational point."""
    return certify_block(build_gram(m, tuple(range(1, n + 1))), q0)


def scan(m, n, q_lo, q_hi, steps):
    """Certify at ``steps`` evenly spaced rational points, endpoints included."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    q_lo = Fraction(q_lo)
    q_hi = Fraction(q_hi)
    block = build_gram(m, tuple(range(1, n + 1)))
    if steps == 1:
        points = [q_lo]
    else:
        width = q_hi - q_lo
        points = [q_lo + width * k / (steps - 1) for k in range(steps)]
    return [certify_block(block, point) for point in points]


def interval_of_definiteness(m):
    """The open interval of q where the regular blocks stay definite."""
    if m < 1:
        raise ValueError(f"color count must be >= 1, got {m}")
    if m == 1:
        return (Fraction(-1), Fraction(1))
    return (Fraction(1, 1 - m), Fraction(1))
