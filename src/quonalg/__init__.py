"""quonalg: exact engine for a color-deformed quon algebra.

Symbolic vacuum expectation values of annihilation/creation words, Gram
blocks of the vacuum bilinear form over ZZ[q], colored permutation
combinatorics, closed-form determinants and inverses of the q-weighted
group sums, and exact rational positive-definiteness certificates.
"""

from .exact_arith import Polynomial, parse_rational
from .colored_perm import (
    ColoredArrangement,
    act,
    as_multiset,
    cinv,
    enumerate_arrangements,
    enumerate_group,
    insertion_cycle,
    parse_word,
    word_str,
)
from .group_algebra import (
    Block,
    GroupAlgebraElement,
    cinv_sum,
    ga_mul,
    rep_matrix,
)
from .quon_engine import (
    CreatorState,
    apply_annihilator,
    color_mismatch,
    cosym_expectation,
    creator_state,
    vacuum_expectation,
)
from .gram import (
    build_gram,
    gram_csv_text,
    gram_json_data,
    verify_representation,
)
from .formulas import (
    DetFactorization,
    det_closed_form,
    det_factorization,
    inverse_closed_form,
    regular_block_det,
    verify_inverse,
)
from .posdef import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    SINGULAR,
    PosDefReport,
    certify,
    certify_block,
    interval_of_definiteness,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "parse_rational",
    "ColoredArrangement",
    "act",
    "as_multiset",
    "cinv",
    "enumerate_arrangements",
    "enumerate_group",
    "insertion_cycle",
    "parse_word",
    "word_str",
    "Block",
    "GroupAlgebraElement",
    "cinv_sum",
    "ga_mul",
    "rep_matrix",
    "CreatorState",
    "apply_annihilator",
    "color_mismatch",
    "cosym_expectation",
    "creator_state",
    "vacuum_expectation",
    "build_gram",
    "gram_csv_text",
    "gram_json_data",
    "verify_representation",
    "DetFactorization",
    "det_closed_form",
    "det_factorization",
    "inverse_closed_form",
    "regular_block_det",
    "verify_inverse",
    "INDEFINITE",
    "POSITIVE_DEFINITE",
    "SINGULAR",
    "PosDefReport",
    "certify",
    "certify_block",
    "interval_of_definiteness",
    "scan",
]
