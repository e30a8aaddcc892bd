"""Finite Gram blocks of the vacuum bilinear form.

The block of a multiset I collects the pairwise inner products of the
creator-word states of all colored arrangements of I, rows indexed by the
bra arrangement and columns by the ket arrangement, both in the canonical
enumeration order.  It is a ``Block`` of Polynomials in ZZ[q], since every
entry is a q**cinv generating sum.  The ``operator`` path builds the
whole block in one walk of a trie of the bra words with the annihilator
rewriting engine, every ket packed into its own slot of one int
(``operator_column``); the ``combinatorial`` path fills it one column per
ket, counting the column as q**cinv sums over colored permutations in one
walk of the group (``cosym_column``).  The block also equals the
right-action matrix of the q-weighted group sum on the arrangement module
(``verify_representation`` checks all of this).

The counting loop and ``rep_matrix(cinv_sum(m, n), multiset)`` compute the
same formula, entry (i, j) = sum of q**cinv(pi) over pi with
act(basis[j], pi) == basis[i], in different loop orders.  They share the
lookup tables of ``colored_perm.GroupTable`` (the color sums, the image
table of the multiset and the cinv values compiled with the group), but no
loop, so only the operator path is independent of both.

The infinite form is block diagonal over multisets; this module only ever
materializes one finite block at a time.
"""

from __future__ import annotations

import csv
import io
from functools import lru_cache

from .colored_perm import as_multiset, check_sizes, enumerate_arrangements
from .exact_arith import Polynomial
from .quon_engine import annihilator_trie, cosym_column, operator_column
# Unused here; bench/test_bench.py checks that a traced pass also wraps
# ``gram.vacuum_expectation`` in this namespace.
from .quon_engine import vacuum_expectation  # noqa: F401
from .group_algebra import Block, cinv_sum, rep_matrix


def build_gram(m, multiset, path="operator"):
    """Build the Gram block of a multiset by either construction path.

    path = "operator" uses the annihilator rewriting engine, one walk of the
    bras' trie for all kets together: at most one annihilator step per trie
    node, where the trie holds at most n * size nodes and far fewer when
    bras share their innermost annihilators (a block wider than one walk,
    see ``operator_column``, takes a walk per part); path = "combinatorial"
    uses the colored-permutation counting sum, one table walk of the group
    per ket: size * n! word builds and size * m**n * n! list indices.  The
    two must agree exactly.
    """
    if path not in ("operator", "combinatorial"):
        raise ValueError(f"unknown path {path!r}")
    check_sizes(m)
    return _build_gram_cached(m, as_multiset(multiset), path)


@lru_cache(maxsize=None)
def _build_gram_cached(m, multiset, path):
    basis = enumerate_arrangements(m, multiset)
    if path == "operator":
        # A bra's annihilators, innermost first, are its tokens, as are a
        # ket's creators: one word list serves as the bras and the kets.
        words = [theta.tokens for theta in basis]
        rows = operator_column(m, annihilator_trie(m, words), words)
        zeros = (Polynomial.zero(),) * len(basis)
        entries = tuple(rows.get(word, zeros) for word in words)
    else:
        seen = {}
        columns = [_shared(column, seen) for column in map(cosym_column, basis)]
        entries = tuple(zip(*columns))
    return Block(m=m, multiset=multiset, basis=basis, entries=entries)


def _shared(values, seen):
    """``values`` as a tuple in which equal values are one object.

    ``seen`` maps the coefficient tuple of each value met so far to its
    first object (tuples hash and compare without a Python-level call).
    Sharing it over a block makes the cached block hold one copy of each
    distinct entry instead of one per position.
    """
    return tuple(seen.setdefault(v.coeffs, v) for v in values)


def verify_representation(m, multiset):
    """True iff the operator-path block equals the right-action matrix of the
    q-weighted group sum on the arrangement module."""
    multiset = as_multiset(multiset)
    block = build_gram(m, multiset, path="operator")
    rep = rep_matrix(cinv_sum(m, len(multiset)), multiset)
    return block.basis == rep.basis and block.entries == rep.entries


def gram_csv_text(block):
    """CSV form: header row of basis words, then one row of cells per row.

    Cells are canonical polynomial strings; the header cells are the basis
    arrangement words in order.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(str(b) for b in block.basis)
    for row in block.entries:
        writer.writerow(str(c) for c in row)
    return out.getvalue()


def gram_json_data(block):
    """JSON-ready dict mirroring the CSV content exactly."""
    return {
        "m": block.m,
        "multiset": list(block.multiset),
        "basis": [str(b) for b in block.basis],
        "entries": [[str(c) for c in row] for row in block.entries],
    }
