"""Exact positive-definiteness certificates for Gram blocks at rational q.

A block evaluated at an exact rational point is a symmetric matrix of
rationals; its leading principal minors decide definiteness (Sylvester):
all positive means positive definite.  A negative minor before any zero one
means indefinite.  Otherwise a zero minor means singular when the
determinant (the last minor) is zero, and indefinite when it is not: a
nonsingular block with a zero leading minor is neither positive nor negative
definite.  The regular block of the multiset 1..n is a tensor product:
build_gram(m, (1..n)) = Q_n (x) K (x) ... (x) K with n factors K, where Q_n
= build_gram(1, (1..n)) and K = (1-q) I_m + q J_m.  In the canonical order
the colors, counted by value slot, vary fastest within each value word, and
cinv adds one q per non-neutral color, a count that does not depend on the
permutation once colors are indexed by value.  Each block finds its split
tree once, in ZZ[q] (``Block.split_tree``); a certificate evaluates only
its leaves, to integers with one scale (``_scaled_block``), and combines
their minors exactly (``linalg.tree_minors``): no tolerances anywhere.

``scan`` samples a closed interval on an exact rational grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def _scaled_block(rows, q0):
    """A Polynomial matrix at q = q0 as ``(ints, scale)``, rows(q0) = ints / scale.

    With q0 = p/r in lowest terms and D the largest entry degree, the entry
    sum(c_i q**i) maps to the integer sum(c_i p**i r**(D-i)) and the common
    scale is r**D.  Each distinct entry, told apart by its coefficient tuple,
    is evaluated once: a regular block holds a handful of distinct values.

    These scales meet the condition of ``linalg.tree_minors``: a node M =
    (A (x) B) / c has S = r**E with E = E_A + E_B - deg(c), and by induction
    from the leaves, where E is the largest entry degree, no entry a * e / c
    of M has degree above E.  So S * M(q0) is an int matrix, and E_A >=
    deg(c), as c is A's corner, makes S an int.
    """
    p, r = q0.numerator, q0.denominator
    values = dict.fromkeys(entry.coeffs for row in rows for entry in row)
    degree = max([0] + [len(coeffs) - 1 for coeffs in values])
    weights = [p**i * r ** (degree - i) for i in range(degree + 1)]
    for coeffs in values:
        values[coeffs] = sum(c * w for c, w in zip(coeffs, weights))
    return [[values[entry.coeffs] for entry in row] for row in rows], r**degree


def certify_block(block, q0):
    """Exact Sylvester certification of one block at one rational point.

    A non-Polynomial entry raises ``ValueError``.  Sylvester's criterion
    holds only for a symmetric matrix: a block not symmetric in ZZ[q] is
    evaluated whole and raises ``ValueError`` if it differs from its
    transpose at q0.  Every block takes its minors from the leaves of its
    split tree (``linalg.tree_minors``).
    """
    q0 = Fraction(q0)
    tree = block.split_tree
    if not block.symmetric:
        ints, _ = _scaled_block(block.entries, q0)
        if ints != [list(col) for col in zip(*ints)]:
            i, j = next((i, j) for i, row in enumerate(ints) for j in range(i) if row[j] != ints[j][i])
            raise ValueError(
                f"block is not symmetric at q = {q0}: entry ({i}, {j}) is {block.entries[i][j]}"
                f" but entry ({j}, {i}) is {block.entries[j][i]}"
            )
    values, scale = linalg.tree_minors(tree, lambda rows: _scaled_block(rows, q0))
    minors = tuple(Fraction(v, scale**k) for k, v in enumerate(values, 1))
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
    q_lo, width = Fraction(q_lo), Fraction(q_hi) - Fraction(q_lo)
    block = build_gram(m, tuple(range(1, n + 1)))
    return [certify_block(block, q_lo + width * k / max(steps - 1, 1)) for k in range(steps)]


def interval_of_definiteness(m):
    """The open interval of q where the regular blocks stay definite."""
    if m < 1:
        raise ValueError(f"color count must be >= 1, got {m}")
    if m == 1:
        return (Fraction(-1), Fraction(1))
    return (Fraction(1, 1 - m), Fraction(1))
