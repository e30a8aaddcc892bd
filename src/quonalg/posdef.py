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
tree once, in ZZ[q] (``Block.split_tree``); a certificate takes the exact
minors at its point from the tree's leaves (``linalg.leading_minors``) and
holds only the Sylvester verdict: no tolerances anywhere.

``scan`` samples a closed interval on an exact rational grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .colored_perm import check_sizes
from .exact_arith import check_point
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


def certify_block(block, q0):
    """Exact Sylvester certification of one block at one rational point.

    A block that is not square, or has a non-Polynomial entry, raises
    ``ValueError`` (``linalg.split_tree``).  Sylvester's criterion holds
    only for a symmetric matrix: a block not symmetric in ZZ[q] raises
    ``ValueError`` if an entry pair that differs in ZZ[q] differs at q0 too.
    """
    q0 = Fraction(check_point(q0))
    tree = block.split_tree
    if not block.symmetric:
        entries = block.entries
        for i, row in enumerate(entries):
            for j in range(i):
                a, b = row[j], entries[j][i]
                if a != b and a.evaluate(q0) != b.evaluate(q0):
                    raise ValueError(
                        f"block is not symmetric at q = {q0}: entry ({i}, {j}) is {a}"
                        f" but entry ({j}, {i}) is {b}"
                    )
    minors = linalg.leading_minors(tree, q0)
    return PosDefReport(
        m=block.m,
        multiset=block.multiset,
        q0=q0,
        minors=minors,
        verdict=classify_minors(minors),
    )


def certify(m, n, q0):
    """Certify the regular block (multiset 1..n) at one rational point."""
    check_sizes(m, n)
    return certify_block(build_gram(m, tuple(range(1, n + 1))), q0)


def scan(m, n, q_lo, q_hi, steps):
    """Certify at ``steps`` evenly spaced rational points, endpoints included.
    ``steps`` is an int (not a bool) of at least 1."""
    if type(steps) is not int:
        raise TypeError(f"steps {steps!r} is not an int")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    check_sizes(m, n)
    q_lo, width = Fraction(check_point(q_lo)), Fraction(check_point(q_hi)) - q_lo
    block = build_gram(m, tuple(range(1, n + 1)))
    return [certify_block(block, q_lo + width * k / max(steps - 1, 1)) for k in range(steps)]


def interval_of_definiteness(m):
    """The open interval of q where the regular blocks stay definite."""
    check_sizes(m)
    if m == 1:
        return (Fraction(-1), Fraction(1))
    return (Fraction(1, 1 - m), Fraction(1))
