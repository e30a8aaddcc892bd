"""Annihilation/creation operator words and vacuum expectation values.

States are kept in creator-only normal form: a CreatorState maps creator
words (tuples of (mode, color) pairs, outermost creator first) to
Polynomial coefficients in ZZ[q].  Applying an annihilator a_{j,l} to a creator
word sums, over every position u whose creator mode is j, the word with that
creator deleted, weighted by q**(u-1) * q**color_mismatch; a word with no
matching mode contributes nothing, and annihilators kill the vacuum.  This
is enough to evaluate any vacuum expectation, because the annihilators of
the bra can be removed one at a time from the right.

``vacuum_expectation`` reduces one bra/ket pair.  ``operator_column``
reduces one ket against many bras at once: the bras' annihilator words,
innermost first, go into a trie (``annihilator_trie``), and a depth-first
walk from the ket's creator state applies each trie node's annihilator once
to its parent's state.  Bras that share their innermost annihilators share
those steps, so a column costs one ``apply_annihilator`` call per trie node
rather than one per bra and position.  The walk uses only the rewriting
rule, never the counting code below, which it checks.

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
in ``group_algebra``, in a different loop order.  Both act on plain words
through ``colored_perm.act_words`` and read cinv from the table that
``colored_perm.group_moves`` builds once per (m, n); they share no loop,
and the rewriting path above uses none of this.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_arith import Polynomial
from .colored_perm import act_words, group_moves


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


def creator_state(m, word):
    """The state of a single creator word (outermost creator first)."""
    word = tuple((int(v), int(c)) for v, c in word)
    _check_colors(m, word)
    return CreatorState(m, {word: Polynomial.one()})


def apply_annihilator(mode, color, state):
    """Normal-order one annihilator a_{mode,color} into a creator state.

    Each creator word contributes, for every position u (1-based) holding the
    annihilated mode, the word with that position removed, weighted by
    q**(u - 1 + color_mismatch).  Words without the mode vanish, as does the
    empty word.
    """
    m = state.m
    if not 1 <= color <= m:
        raise ValueError(f"color {color} outside 1..{m}")
    out = {}
    for word, coeff in state.terms.items():
        for u, (cmode, ccolor) in enumerate(word, start=1):
            if cmode != mode:
                continue
            weight = coeff.times_monomial(u - 1 + color_mismatch(ccolor, color, m))
            shorter = word[: u - 1] + word[u:]
            acc = out.get(shorter)
            out[shorter] = weight if acc is None else acc + weight
    return CreatorState(m, {w: c for w, c in out.items() if not c.is_zero})


def vacuum_expectation(bra, ket, m):
    """Exact value of <vacuum| (bra annihilators) (ket creators) |vacuum>.

    ``bra`` and ``ket`` are sequences of (mode, color) pairs in the written
    order described in the module docstring.  The result is a Polynomial.
    Every color of both words is checked up front, so a bad bra color
    raises ``ValueError`` even where the state vanishes before reaching it.
    """
    bra = tuple(bra)
    _check_colors(m, bra)
    state = creator_state(m, ket)
    for mode, color in reversed(bra):
        if state.is_zero:
            break
        state = apply_annihilator(mode, color, state)
    return state.coeff(())


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

    The walk starts from the ket's creator state and goes depth first; each
    trie node applies its annihilator once to its parent's state, so bras
    that share their innermost annihilators share those steps, and a state
    that vanishes cuts off its whole subtree.  A ket costs at most one
    ``apply_annihilator`` call per trie node instead of one per bra and
    position.  Returns a dict from each bra word (as stored in the trie) to
    its nonzero value.
    """
    column = {}

    def walk(node, state):
        for token, child in node.items():
            if token is None:
                value = state.coeff(())
                if value:
                    column[child] = value
            else:
                shorter = apply_annihilator(*token, state)
                if not shorter.is_zero:
                    walk(child, shorter)

    walk(trie, creator_state(m, ket))
    return column


def cosym_column(theta_ket):
    """Every nonzero inner product with the ket, from one walk of the group.

    Returns a dict from each arrangement theta reachable from the ket to
    <theta|ket> = sum of q**cinv(pi) over the colored permutations pi with
    act(theta_ket, pi) == theta.  Each pi adds 1 to the count of its cinv in
    the bucket of act(theta_ket, pi), and each bucket's counts are the
    coefficients of its entry.  Arrangements absent from the dict (other
    multisets or lengths) have inner product 0.

    This is the same formula as the representation matrix of the q-weighted
    group sum (``rep_matrix(cinv_sum(m, n), multiset)``) in another loop
    order.  The walk runs on plain words: the group's moves and cinv values
    come from the per-(m, n) table ``group_moves``, the action from
    ``act_words``, and a bucket becomes an arrangement of the ket's type
    only once, as a key of the result.
    """
    m, n = theta_ket.m, theta_ket.n
    moves, cinvs = group_moves(m, n)
    width = n * (n + 1) // 2 + 1  # cinv is at most n(n-1)/2 inversions + n colors
    buckets = {}
    for key, c in zip(act_words(m, theta_ket.values, theta_ket.colors, moves), cinvs):
        counts = buckets.get(key)
        if counts is None:
            counts = buckets[key] = [0] * width
        counts[c] += 1
    cls = type(theta_ket)
    return {cls(m, *key): Polynomial(counts) for key, counts in buckets.items()}


def cosym_expectation(theta_bra, theta_ket):
    """Combinatorial form of the same inner product.

    Sums q**cinv over all colored permutations pi with
    act(theta_ket, pi) == theta_bra: the bra's entry of
    ``cosym_column(theta_ket)``.  If the two arrangements draw on different
    multisets (or lengths) the sum is empty and the value is 0, matching the
    operator computation.
    """
    if theta_bra.m != theta_ket.m:
        raise ValueError(f"color-count mismatch: {theta_bra.m} vs {theta_ket.m}")
    return cosym_column(theta_ket).get(theta_bra, Polynomial.zero())
