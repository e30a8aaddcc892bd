"""Seeded task lists and exact checks for the four benchmark workloads.

A task is plain data (ints, tuples, Fractions) drawn from the seed; the
library receives only these inputs.  ``check(lib, task)`` calls quonalg's
public API, the same functions the CLI subcommands call, and compares the
result with an independent route.  It returns ``(ok, facts)``: ``facts``
are exact sizes of the work (degrees, bit lengths, block dimensions) that
``summarize`` folds into per-pass counts.  Why each workload exists, and
which layers it bypasses, is in README.md beside this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import ceil, floor, gcd
from typing import Callable

# A pass should take a few seconds, so that a run holds enough passes for
# per-task medians to settle on a shared machine.  Blocks that alone take
# 10 s or more are left out: (5, 2) and (2, 3) in det-oracle (about 11 s and
# 28 s in poly_det), and (3, 3) in inverse-verify (16-19 s).
DET_LADDER = ((1, 4), (3, 2), (4, 2))
INVERSE_LADDER = ((1, 4), (2, 3), (4, 2), (5, 2))
CERTIFY_LADDER = ((1, 4), (4, 2), (2, 3), (5, 2))

# gram-3way: the combinatorial path makes about size**2 * m**n * n! group
# actions per block (size = arrangements of the multiset), so a block's cost
# is fixed by m and the multiplicity pattern of its modes.  Each pass draws
# a fixed number of multisets per (m, pattern) class from modes 1..4, which
# keeps its work the same for every seed: 6 blocks with distinct modes and 6
# with a repeated one.  Larger classes, such as m = 3 with distinct modes
# (162 x 162, about 15 s), would make a pass take longer than a run.
GRAM_MODES = (1, 2, 3, 4)
GRAM_CLASSES = (  # (m, multiplicities, blocks drawn)
    (1, (1, 1, 1), 4),
    (1, (1, 1, 1, 1), 1),
    (2, (1, 1, 1), 1),
    (3, (3,), 1),
    (2, (4,), 1),
    (2, (2, 1), 2),
    (1, (2, 2), 1),
    (1, (2, 1, 1), 1),
)

# certify-scan: interior points per block, as ranges of the reduced
# denominator.  One of height at most 16 and one high one of 17 bits:
# elimination cost grows with the denominator's bit length, so fixing it
# keeps the work of a pass nearly the same for every seed.  A second, 20-bit
# stratum would add about 6 s to a pass, mostly at (2, 3).
LOW_DENOMINATORS = ((2, 17),)
HIGH_DENOMINATORS = ((2**16, 2**17),)


@dataclass(frozen=True)
class Workload:
    name: str
    make_tasks: Callable  # (seed, lib) -> list of tasks
    check: Callable  # (lib, task) -> (ok, facts)
    summarize: Callable  # (facts list, captured results) -> {metric: value}
    capture: tuple = ()  # span names whose return values summarize reads


def _shuffled(ladder, seed):
    tasks = list(ladder)
    random.Random(seed).shuffle(tasks)
    return tasks


# -- det-oracle --------------------------------------------------------------


def det_tasks(seed, lib):
    return _shuffled(DET_LADDER, seed)


def det_check(lib, task):
    m, n = task
    closed = lib.det_closed_form(m, n)
    ok = lib.regular_block_det(m, n) == closed
    coeffs = closed.coeffs
    return ok, {
        "degree": len(coeffs) - 1,
        "coeff_bits": max((abs(c).bit_length() for c in coeffs), default=0),
    }


def det_summary(facts, captured):
    return {
        "linalg.block_dim": sum(r.size for r in captured["group_algebra.rep_matrix"]),
        "formulas.det_coeff_bits": max(f["coeff_bits"] for f in facts),
        "formulas.det_degree": max(f["degree"] for f in facts),
    }


# -- inverse-verify ----------------------------------------------------------


def inverse_tasks(seed, lib):
    return _shuffled(INVERSE_LADDER, seed)


def inverse_check(lib, task):
    return lib.verify_inverse(*task) is True, {}


def inverse_summary(facts, captured):
    inverses = captured["formulas.inverse_closed_form"]
    return {
        "formulas.inverse_terms": sum(len(inv.terms) for inv in inverses),
        "formulas.inverse_den_degree_max": max(
            c.den.degree for inv in inverses for c in inv.terms.values()
        ),
    }


# -- gram-3way ---------------------------------------------------------------


def gram_tasks(seed, lib):
    rng = random.Random(seed)
    tasks = []
    for m, pattern, count in GRAM_CLASSES:
        pool = [
            ms
            for ms in combinations_with_replacement(GRAM_MODES, sum(pattern))
            if tuple(sorted((ms.count(v) for v in set(ms)), reverse=True)) == pattern
        ]
        tasks += [(m, ms) for ms in rng.sample(pool, count)]
    rng.shuffle(tasks)
    return tasks


def gram_check(lib, task):
    m, multiset = task
    op = lib.build_gram(m, multiset, "operator")
    comb = lib.build_gram(m, multiset, "combinatorial")
    rep = lib.rep_matrix(lib.cinv_sum(m, len(multiset)), multiset)
    ok = (
        op.basis == comb.basis == rep.basis
        and op.entries == comb.entries == rep.entries
    )
    return ok, {"dim": op.size, "repeated": len(set(multiset)) < len(multiset)}


def gram_summary(facts, captured):
    return {
        "gram.block_dim": sum(f["dim"] for f in facts),
        "gram.repeated_mode_share": sum(f["repeated"] for f in facts) / len(facts),
    }


# -- certify-scan ------------------------------------------------------------


def _interior_point(rng, lo, hi, den_range):
    """A point of (lo, hi) whose reduced denominator lies in den_range."""
    while True:
        den = rng.randrange(*den_range)
        num = rng.randrange(floor(lo * den) + 1, ceil(hi * den))
        if gcd(num, den) == 1 and lo < Fraction(num, den) < hi:
            return Fraction(num, den)


def certify_tasks(seed, lib):
    """(m, n, q0, expected verdict) for both endpoints of the interval of
    definiteness and seeded interior points of low and high height."""
    rng = random.Random(seed)
    tasks = []
    for m, n in CERTIFY_LADDER:
        lo, hi = lib.interval_of_definiteness(m)
        tasks += [(m, n, lo, "singular"), (m, n, hi, "singular")]
        for den_range in LOW_DENOMINATORS + HIGH_DENOMINATORS:
            q0 = _interior_point(rng, lo, hi, den_range)
            tasks.append((m, n, q0, "positive_definite"))
    rng.shuffle(tasks)
    return tasks


def certify_check(lib, task):
    m, n, q0, expected = task
    report = lib.certify_block(lib.build_gram(m, tuple(range(1, n + 1))), q0)
    det = lib.det_closed_form(m, n).evaluate(q0)
    ok = report.verdict == expected and report.minors[-1] == det
    bits = max(
        max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        for v in report.minors
    )
    return ok, {"minor_bits": bits}


def certify_summary(facts, captured):
    return {
        "posdef.points": len(facts),
        "posdef.minor_bits_max": max(f["minor_bits"] for f in facts),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "det-oracle",
            det_tasks,
            det_check,
            det_summary,
            capture=("group_algebra.rep_matrix",),
        ),
        Workload(
            "inverse-verify",
            inverse_tasks,
            inverse_check,
            inverse_summary,
            capture=("formulas.inverse_closed_form",),
        ),
        Workload("gram-3way", gram_tasks, gram_check, gram_summary),
        Workload("certify-scan", certify_tasks, certify_check, certify_summary),
    )
}
