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
kernel once and unpacks.  ``operator_column`` reduces many kets against
many bras in one walk: the bras' annihilator words, innermost first, go
into a trie (``annihilator_trie``), and a depth-first walk applies each
trie node's annihilator once to its parent's state.  The root state holds
every ket's word, and ket j carries the int 2**(S*j): a second level of
packing with one slot of S bits per ket.  Bras that share their innermost
annihilators share those steps, and all kets share every step, so a whole
block costs at most one kernel call per trie node (a block wider than
``_WALK_BITS`` takes one walk per that many bits of kets).  A leaf's int
holds the bra's row over every ket of the walk; it is cut into its slots
once, and each distinct slot becomes one Polynomial.  ``vacuum_expectation`` is the walk with one
bra and one ket.

Why the stride reads every coefficient back exactly.  For a walk whose
longest ket has length L, s is (L!).bit_length() + 1 rounded up to whole
bytes.  Every weight of the rule is +q**k, so a walk that starts from one
word with coefficient 1 only ever holds coefficients with non-negative
integer coefficients, and its q = 1 mass (the sum of all coefficients of
all words at q = 1) bounds each one.  A step on words of length l makes at
most l shorter words from each word, each carrying its coefficient times a
power of q, so it multiplies the q = 1 mass by at most l.  After k steps
from a word of length L the mass is at most L(L-1)...(L-k+1) <= L! <
2**(s-1), so every coefficient lies in 0..2**(s-1)-1, packed digits never
carry into each other, and the balanced digits of
``exact_arith.unpack_int`` read each coefficient back exactly.  A shorter
ket has a smaller mass bound.

Why the slot S = s*(D+1), with D = L(L+1)/2, keeps kets apart.  A step on a
word of length l shifts by q**(u + mismatch) with u <= l-1 and mismatch <=
1, so it adds at most l to the degree, and the walk from a ket of length at
most L to the empty word adds at most L + (L-1) + ... + 1 = D.  Every entry
is thus a polynomial of degree at most D whose coefficients lie in
0..2**(s-1)-1, so its image under q -> 2**s lies in 0..2**(s*(D+1))-1 =
0..2**S-1.  The kernel's operations (a shift by a multiple of s, an
addition) are linear, so the int of a word is the sum over kets j of
2**(S*j) times the image of that word's coefficient in ket j's own walk,
and each term fits its slot: slots never carry into each other, and slot j
of a leaf holds exactly the image of <bra|ket_j>.  s and S are multiples
of 8, so the slots are whole bytes of the leaf's ``to_bytes``.
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

from .exact_arith import Polynomial, pack_coeffs, stride, unpack_int
from .colored_perm import check_colors, check_sizes, check_tokens, group_table


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


def _word(m, word):
    """``word`` as (mode, color) pairs, checked by ``check_sizes`` and ``check_tokens``."""
    check_sizes(m)
    word = tuple((v, c) for v, c in word)
    check_tokens([v for v, _ in word], [c for _, c in word], m)
    return word


def creator_state(m, word):
    """The state of a single creator word (outermost creator first)."""
    return CreatorState(m, {_word(m, word): Polynomial.one()})


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

    The step runs in ``_annihilate`` at stride ``stride(B)``, where B is
    the l1 mass of the state, the sum of ||c||_1 over its coefficients c.
    B bounds every coefficient of the result: two positions u < u' of one
    word give the same shorter word only if the creators from u to u' are
    all equal, so they carry one color mismatch and distinct weights
    q**(u - 1 + mismatch), and each word adds at most its own ||c||_1 to
    any one coefficient of any one shorter word.
    """
    m = state.m
    check_tokens((mode,), (color,), m)
    s = stride(sum(sum(map(abs, c.coeffs)) for c in state.terms.values()))
    packed = {w: pack_coeffs(c.coeffs, s) for w, c in state.terms.items()}
    out = _annihilate(packed, (mode, color), m, s)
    return CreatorState(
        m, {w: Polynomial(unpack_int(v, s)) for w, v in out.items() if v}
    )


def vacuum_expectation(bra, ket, m):
    """Exact value of <vacuum| (bra annihilators) (ket creators) |vacuum>.

    ``bra`` and ``ket`` are sequences of (mode, color) pairs in the written
    order described in the module docstring.  The result is a Polynomial.
    Every color of both words is checked up front, so a bad bra color
    raises ``ValueError`` even where the state vanishes before reaching it.
    It is ``operator_column`` over the trie of the one bra, for the one ket.
    """
    word = _word(m, tuple(bra)[::-1])
    row = operator_column(m, annihilator_trie(m, [word]), [ket]).get(word)
    return Polynomial.zero() if row is None else row[0]


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
        check_colors(m, [c for _, c in word])
        node = root
        for token in word:
            node = node.setdefault(token, {})
        node[None] = word
    return root


def _slot_bits(stride, length):
    """Bits per ket in a multi-ket walk: room for the D + 1 coefficients of
    an entry of degree at most D = length(length+1)/2, ``stride`` bits each
    (the module docstring has the proof)."""
    return stride * (length * (length + 1) // 2 + 1)


# The most bits one walk packs its kets into.  A state's ints span all the
# slots of a walk, so one walk over k kets holds about k**2 * S / 2 bits in
# its root alone; past this width more, narrower walks are faster as well
# as smaller.  The operator block of (2, (1, 2, 3, 4, 5)), 3840 kets, took
# 4.4 s at a 138 MB peak in walks of 512 kets and 6.4 s at 320 MB in one
# walk (Python 3.11, one core of a shared 2-core x86-64 machine).
_WALK_BITS = 1 << 16


def operator_column(m, trie, kets):
    """Every nonzero row <bra|ket_j> over the bra words of ``trie``.

    A walk starts from the state holding each ket's word (colors checked
    as by ``creator_state``) with the coefficient 1 in the ket's own slot,
    and goes depth first; each trie node applies its annihilator once to
    its parent's state through ``_annihilate``, so bras that share their
    innermost annihilators share those steps, every ket of the walk shares
    every step, and a state that vanishes cuts off its whole subtree.  A
    walk costs at most one kernel call per trie node, and one walk takes up
    to ``_WALK_BITS`` // S kets, so every block of up to 512 kets of length
    at most 5 is one walk.  Returns a dict from each bra word (as stored in
    the trie) whose row is not all zero to its row: a tuple with one
    Polynomial per ket, in the order of ``kets``.

    States hold packed ints at the stride s and the slot S of the module
    docstring, for the longest ket.  Each leaf int is cut into its slots
    with one ``to_bytes``, and each distinct slot is unpacked once, into
    one Polynomial, so equal entries are one object.
    """
    kets = [_word(m, ket) for ket in kets]
    length = max(map(len, kets), default=0)
    s = -(-stride(factorial(length)) // 8) * 8
    width = _slot_bits(s, length) // 8
    zero = Polynomial.zero()
    rows, values = {}, {bytes(width): zero}

    def walk(node, terms, start, total):
        for token, child in node.items():
            if token is None:
                value = terms.get(())
                if value:
                    data = value.to_bytes(total, "little")
                    slots = [data[k : k + width] for k in range(0, total, width)]
                    for slot in set(slots).difference(values):
                        unpacked = unpack_int(int.from_bytes(slot, "little"), s)
                        values[slot] = Polynomial(unpacked)
                    row = rows.get(child)
                    if row is None:
                        row = rows[child] = [zero] * len(kets)
                    row[start : start + len(slots)] = map(values.__getitem__, slots)
            else:
                shorter = _annihilate(terms, token, m, s)
                if shorter:
                    walk(child, shorter, start, total)

    per_walk = max(1, _WALK_BITS // (8 * width))
    for start in range(0, len(kets), per_walk):
        part, root = kets[start : start + per_walk], {}
        for j, ket in enumerate(part):
            root[ket] = root.get(ket, 0) + (1 << (8 * width * j))
        walk(trie, root, start, width * len(part))
    for word, row in rows.items():
        rows[word] = tuple(row)  # one list at a time: a block's rows are big
    return rows


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
    ``rep_matrix(cinv_sum(m, n), multiset)`` in another loop order.  The
    ket's tokens are checked by ``check_tokens``, as on the rewriting path.
    """
    m, values = theta_ket.m, theta_ket.values
    check_tokens(values, theta_ket.colors, m)
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
    operator computation.  The tokens of both arrangements are checked by
    ``check_tokens``, as on the rewriting path.
    """
    if theta_bra.m != theta_ket.m:
        raise ValueError(f"color-count mismatch: {theta_bra.m} vs {theta_ket.m}")
    check_tokens(theta_bra.values, theta_bra.colors, theta_bra.m)
    column = cosym_column(theta_ket)
    table = group_table(theta_ket.m, theta_ket.n)
    row = table.basis(tuple(sorted(theta_ket.values)))[1].get(theta_bra.values)
    return Polynomial.zero() if row is None else column[row[table.index[theta_bra.colors]]]
