"""Annihilation/creation operator words and vacuum expectation values.

States are kept in creator-only normal form: a CreatorState maps creator
words (tuples of (mode, color) pairs, outermost creator first) to
Polynomial coefficients in ZZ[q].  Applying an annihilator a_{j,l} to a creator
word sums, over every position u whose creator mode is j, the word with that
creator deleted, weighted by q**(u-1) * q**color_mismatch; a word with no
matching mode contributes nothing, and annihilators kill the vacuum.  This
is enough to evaluate any vacuum expectation, because the annihilators of
the bra can be removed one at a time from the right.

The rule has one copy, the private kernel ``_annihilate``, which runs on
packed coefficients: each coefficient c(q) is carried as the int c(2**s)
for a stride s that the caller chooses, so the weight q**k is a left shift
by s*k bits and merging two words is one int addition.  ``apply_annihilator``
packs a ``CreatorState`` at a stride taken from its l1 mass, calls the
kernel once and unpacks.  ``operator_column`` reduces one ket against many
bras at once: the bras' annihilator words, innermost first, go into a trie
(``annihilator_trie``), and a depth-first walk from the ket's word applies
each trie node's annihilator once to its parent's state, all at the stride
(L!).bit_length() + 1 for a ket of length L.  Bras that share their
innermost annihilators share those steps, so a column costs one kernel
call per trie node rather than one per bra and position.
``vacuum_expectation`` is the walk over a one-bra trie.

Why that stride reads every value back exactly.  Every weight of the rule
is +q**k, so a walk that starts from one word with coefficient 1 only ever
holds coefficients with non-negative integer coefficients, and its q = 1
mass (the sum of all coefficients of all words at q = 1) bounds each one.
A step on words of length l makes at most l shorter words from each word,
each carrying its coefficient times a power of q, so it multiplies the q = 1
mass by at most l.  After k steps from a word of length L the mass is at
most L(L-1)...(L-k+1) <= L! < 2**(s-1), so every coefficient lies in
0..2**(s-1)-1, packed digits never carry into each other, and the balanced
digits of ``exact_arith.unpack_int`` read each coefficient back exactly.
The walk uses only the rewriting rule, never the counting code below,
which it checks.

Word-order convention, also used by the CLI: a bra or ket string lists the
operators exactly as written left to right in the bracket.  The ket word
(i1,k1)(i2,k2)... denotes the creators applied left to right, and the bra
word (j1,l1)(j2,l2)... denotes the annihilators as written, so the LAST pair
of the bra string is the innermost annihilator and is applied first.

The same expectations have a purely combinatorial form: the inner product of
two arrangements of a common multiset is the q**cinv generating sum over the
colored permutations carrying the ket arrangement to the bra arrangement
(``cosym_expectation``), which is independent of the rewriting path.
``cosym_column`` counts a whole column of these sums in one walk of the
group; it computes the same formula as ``rep_matrix(cinv_sum(m, n), ...)``
in ``group_algebra``, in a different loop order.  Both walk the group by
the lookup tables of ``colored_perm.GroupTable``, built once per (m, n)
with each element's cinv; they share no loop, and the rewriting path
above uses none of this.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .exact_arith import Polynomial, pack_coeffs, unpack_int
from .colored_perm import group_table


def color_mismatch(creator_color, annihilator_color, m):
    """1 if the two colors differ mod m, else 0.

    This is the exponent of the extra q in the contraction of a creator and
    an annihilator of the same mode; color m is congruent to 0.
    """
    return 0 if (annihilator_color - creator_color) % m == 0 else 1


@dataclass(frozen=True)
class CreatorState:
    """Finite combination of creator-only words applied to the vacuum."""

    m: int
    terms: dict

    def coeff(self, word):
        return self.terms.get(tuple(word), Polynomial.zero())

    @property
    def is_zero(self):
        return not self.terms


def _check_colors(m, word):
    """Raise ``ValueError`` unless every color of ``word`` lies in 1..m."""
    for _, c in word:
        if not 1 <= c <= m:
            raise ValueError(f"color {c} outside 1..{m}")


def _word(m, word):
    """``word`` as a tuple of int (mode, color) pairs, its colors checked."""
    word = tuple((int(v), int(c)) for v, c in word)
    _check_colors(m, word)
    return word


def creator_state(m, word):
    """The state of a single creator word (outermost creator first)."""
    return CreatorState(m, {_word(m, word): Polynomial.one()})


def _stride(bound):
    """Bits per packed coefficient when every coefficient is at most ``bound``
    in modulus: bound < 2**(stride-1), so balanced digits read it back."""
    return bound.bit_length() + 1


def _annihilate(terms, token, m, stride):
    """The annihilator ``token`` = (mode, color) on packed coefficients.

    ``terms`` maps creator words to the images of their coefficients under
    q -> 2**stride.  The creator at 0-based position u of mode ``mode``
    contributes the word without it, weighted by q**(u + color_mismatch):
    its image shifted left by stride * (u + color_mismatch) bits, added to
    what other words already gave the same shorter word.  Packing is a ring
    map, so each result is the exact image of the rewritten coefficient; it
    reads back only if every such coefficient has modulus below
    2**(stride-1), which each caller proves for its stride.  Values that
    cancel to 0 (only signed input can) stay in the result.
    """
    mode, color = token
    out = {}
    for word, coeff in terms.items():
        u = 0
        for cmode, ccolor in word:
            if cmode == mode:
                shorter = word[:u] + word[u + 1 :]
                shift = stride * (u + color_mismatch(ccolor, color, m))
                out[shorter] = out.get(shorter, 0) + (coeff << shift)
            u += 1
    return out


def apply_annihilator(mode, color, state):
    """Normal-order one annihilator a_{mode,color} into a creator state.

    Each creator word contributes, for every position u (1-based) holding the
    annihilated mode, the word with that position removed, weighted by
    q**(u - 1 + color_mismatch).  Words without the mode vanish, as does the
    empty word.

    The step runs in ``_annihilate`` at stride ``_stride(B)``, where B is
    the l1 mass of the state, the sum of ||c||_1 over its coefficients c.
    B bounds every coefficient of the result: two positions u < u' of one
    word give the same shorter word only if the creators from u to u' are
    all equal, so they carry one color mismatch and distinct weights
    q**(u - 1 + mismatch), and each word adds at most its own ||c||_1 to
    any one coefficient of any one shorter word.
    """
    m = state.m
    if not 1 <= color <= m:
        raise ValueError(f"color {color} outside 1..{m}")
    stride = _stride(sum(sum(map(abs, c.coeffs)) for c in state.terms.values()))
    packed = {w: pack_coeffs(c.coeffs, stride) for w, c in state.terms.items()}
    out = _annihilate(packed, (mode, color), m, stride)
    return CreatorState(
        m, {w: Polynomial(unpack_int(v, stride)) for w, v in out.items() if v}
    )


def vacuum_expectation(bra, ket, m):
    """Exact value of <vacuum| (bra annihilators) (ket creators) |vacuum>.

    ``bra`` and ``ket`` are sequences of (mode, color) pairs in the written
    order described in the module docstring.  The result is a Polynomial.
    Every color of both words is checked up front, so a bad bra color
    raises ``ValueError`` even where the state vanishes before reaching it.
    It is ``operator_column`` over the trie of the one bra.
    """
    word = _word(m, tuple(bra)[::-1])
    column = operator_column(m, annihilator_trie(m, [word]), ket)
    return column.get(word, Polynomial.zero())


def annihilator_trie(m, words):
    """The annihilator words as a trie, innermost annihilator first.

    Each node is a dict from a (mode, color) pair to the child node that
    applies it next; a word ending at a node is stored under the key None.
    A word here lists its annihilators in the order they act, which is the
    written bra reversed; a Gram block's bra arrangement tokens are already
    in that order.  Every color is checked against 1..m.
    """
    root = {}
    for word in words:
        word = tuple(word)
        _check_colors(m, word)
        node = root
        for token in word:
            node = node.setdefault(token, {})
        node[None] = word
    return root


def operator_column(m, trie, ket):
    """Every nonzero <bra|ket> over the bra words of ``trie``, in one walk.

    The walk starts from the ket's word (colors checked as by
    ``creator_state``) with coefficient 1 and goes depth first; each trie
    node applies its annihilator once to its parent's state through
    ``_annihilate``, so bras that share their innermost annihilators share
    those steps, and a state that vanishes cuts off its whole subtree.  A
    ket costs at most one kernel call per trie node instead of one per bra
    and position.  Returns a dict from each bra word (as stored in the
    trie) to its nonzero value.

    States hold packed ints at the stride s = (L!).bit_length() + 1 for a
    ket of length L: the rule's weights are all +q**k, and k steps multiply
    the q = 1 mass by at most L(L-1)...(L-k+1) <= L! < 2**(s-1), which
    bounds every coefficient (the module docstring has the proof).  Each
    distinct nonzero leaf int is unpacked once, into one Polynomial.
    """
    ket = _word(m, ket)
    stride = _stride(factorial(len(ket)))
    column, values = {}, {}

    def walk(node, terms):
        for token, child in node.items():
            if token is None:
                value = terms.get(())
                if value:
                    poly = values.get(value)
                    if poly is None:
                        poly = values[value] = Polynomial(unpack_int(value, stride))
                    column[child] = poly
            else:
                shorter = _annihilate(terms, token, m, stride)
                if shorter:
                    walk(child, shorter)

    walk(trie, {ket: 1})
    return column


def cosym_column(theta_ket):
    """Every inner product with the ket, from one walk of the group.

    Returns the tuple of <theta|ket> = sum of q**cinv(pi) over the colored
    permutations pi with act(theta_ket, pi) == theta, for the arrangements
    theta of the ket's multiset in basis order: the ket's column of the
    Gram block.  Arrangements of other multisets or lengths have inner
    product 0.

    Each pi adds 1 to the count of its cinv at the basis position of
    act(theta_ket, pi), found by ``GroupTable.walk``: size * n! word
    builds and size * m**n * n! list indices per block.  This is
    ``rep_matrix(cinv_sum(m, n), multiset)`` in another loop order.  A ket
    color outside 1..m raises ``ValueError``, as on the rewriting path.
    """
    m, values = theta_ket.m, theta_ket.values
    _check_colors(m, theta_ket.tokens)
    table = group_table(m, len(values))
    basis, image = table.basis(tuple(sorted(values)))
    width = len(values) * (len(values) + 1) // 2 + 1  # cinv <= n(n-1)/2 + n
    counts = [[0] * width for _ in basis]
    for targets, cinvs in table.walk(image, table.moves, values, theta_ket.colors):
        for i, c in zip(targets, cinvs):
            counts[i][c] += 1
    counts = list(map(tuple, counts))
    polys = {row: Polynomial(row) for row in set(counts)}
    return tuple(map(polys.__getitem__, counts))


def cosym_expectation(theta_bra, theta_ket):
    """Combinatorial form of the same inner product.

    Sums q**cinv over all colored permutations pi with
    act(theta_ket, pi) == theta_bra: the bra's entry of
    ``cosym_column(theta_ket)``.  If the two arrangements draw on different
    multisets (or lengths) the sum is empty and the value is 0, matching the
    operator computation.  Colors of either arrangement outside 1..m raise
    ``ValueError``, as on the rewriting path.
    """
    if theta_bra.m != theta_ket.m:
        raise ValueError(f"color-count mismatch: {theta_bra.m} vs {theta_ket.m}")
    _check_colors(theta_bra.m, theta_bra.tokens)
    column = cosym_column(theta_ket)
    table = group_table(theta_ket.m, theta_ket.n)
    row = table.basis(tuple(sorted(theta_ket.values)))[1].get(theta_bra.values)
    return Polynomial.zero() if row is None else column[row[table.index[theta_bra.colors]]]
