"""Colored permutations, colored arrangements of a multiset, and the
colored-inversion statistic cinv.

A colored arrangement with m colors is a pair of words: a rearrangement of
a multiset of positive integers and a color word over 1..m.  Color m is
the neutral color; it plays the role of 0 modulo m in all color arithmetic.
The colored permutations on n positions, the group elements, are exactly
the arrangements of the multiset {1, ..., n} (``check_element``), and
``ColoredArrangement`` holds both.

The right action of a colored permutation (perm, pcolors) on an arrangement
(values, colors) produces (values o perm, colors o perm + pcolors mod m);
group composition is the same formula applied to two permutations.  The
formula has one copy, ``act``.  Loops over the whole group use the tables
of ``GroupTable`` instead, built by calling ``act``: the color sums, one
row per color word, built on first use by composing generator rows, and per
multiset an image table (``GroupTable.basis``) from value word and color
index to basis position.
Composing an arrangement with the n! permutations costs n! word builds,
and each of the m**n * n! group elements then costs one list index.  A
matrix that the left symmetries of a multiset keep (relabelling modes of
equal multiplicity, shifting each mode's colors) is walked for one
arrangement per orbit, and ``GroupTable.columns`` reads every other column
off it: a block of size arrangements with k distinct modes costs
size / (|Aut(I)| * m**k) walks.

The enumeration order fixed here is part of the package contract (matrix
rows, CSV exports, and the CLI depend on it): value words ascend
lexicographically, and within one value word the colors are driven by a
counter over the value slots.  Slot k means the k-th smallest multiset
element (ties broken left to right), each slot's digit runs through
(m, 1, 2, ..., m-1), slot 1 is the fastest digit and slot n the slowest,
and the position holding slot k's value receives that slot's digit.  The
all-neutral coloring therefore comes first, and for the identity value word
slots coincide with positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import product
from operator import itemgetter


@dataclass(frozen=True)
class ColoredArrangement:
    """A rearrangement of a multiset of positive integers, with colors."""

    m: int
    values: tuple[int, ...]
    colors: tuple[int, ...]

    @property
    def n(self):
        return len(self.values)

    @property
    def tokens(self):
        """The (value, color) pairs in position order."""
        return tuple(zip(self.values, self.colors))

    def __str__(self):
        return word_str(self.tokens)

    @classmethod
    def neutral(cls, m, n):
        """The group identity: identity word, every color neutral."""
        return cls(m, tuple(range(1, n + 1)), (m,) * n)


def word_str(tokens):
    """Render (value, color) pairs as ``(v,c)(v,c)...``; empty word is ``()``."""
    if not tokens:
        return "()"
    return "".join(f"({v},{c})" for v, c in tokens)


def parse_word(text):
    """Parse ``(v,c)(v,c)...`` into a tuple of (value, color) pairs.

    The empty word may be written ``""`` or ``()``.
    """
    s = text.replace(" ", "")
    if s in ("", "()"):
        return ()
    tokens = []
    i = 0
    while i < len(s):
        if s[i] != "(":
            raise ValueError(f"expected '(' at position {i} in {text!r}")
        close = s.find(")", i)
        if close < 0:
            raise ValueError(f"unbalanced parenthesis in {text!r}")
        body = s[i + 1 : close].split(",")
        if len(body) != 2:
            raise ValueError(f"expected '(value,color)' in {text!r}")
        tokens.append((int(body[0]), int(body[1])))
        i = close + 1
    return tuple(tokens)


def cinv(pi):
    """Colored inversions: inversions of the value word plus the number of
    positions carrying a non-neutral color."""
    values = pi.values
    n = len(values)
    inv = 0
    for i in range(n):
        vi = values[i]
        for j in range(i + 1, n):
            if vi > values[j]:
                inv += 1
    return inv + sum(1 for c in pi.colors if c != pi.m)


def check_colors(m, colors):
    """Raise ``ValueError`` unless every color lies in 1..m."""
    for c in colors:
        if not 1 <= c <= m:
            raise ValueError(f"color {c} outside 1..{m}")


def check_element(pi):
    """Raise ``ValueError`` unless the arrangement pi is an element of the
    group: its value word a permutation of 1..n, its colors in 1..m."""
    if sorted(pi.values) != list(range(1, pi.n + 1)):
        raise ValueError(f"{pi} is not a group element: its values are not 1..{pi.n}")
    check_colors(pi.m, pi.colors)


def check_tokens(modes, colors=(), m=None):
    """Raise ``TypeError`` unless every mode and color has type int (a bool
    has not), and ``ValueError`` unless every mode is at least 1 and every
    color lies in 1..m (``check_colors``)."""
    for v in (*modes, *colors):
        if type(v) is not int:
            raise TypeError(f"mode or color {v!r} is not an int")
    if modes and min(modes) < 1:
        raise ValueError(f"mode {min(modes)} must be at least 1")
    check_colors(m, colors)


def check_sizes(m, n=0, least_n=0):
    """Raise ``TypeError`` unless the color count m and the length n have
    type int (a bool has not), and ``ValueError`` unless m >= 1 and n >= least_n."""
    if type(m) is not int or type(n) is not int:
        raise TypeError(f"color count {m!r} or length {n!r} is not an int")
    if m < 1 or n < least_n:
        raise ValueError(f"need m >= 1 and n >= {least_n}, got m = {m}, n = {n}")


def sized_cache(fn):
    """``lru_cache`` for a function of (m, n), read only after ``check_sizes``
    passes: 2.0 and True hash like 2 and 1, so would find their results."""
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def checked(m, n):
        check_sizes(m, n)
        return cached(m, n)

    checked.cache_clear = cached.cache_clear
    return checked


def act(theta, pi):
    """Right action of the colored permutation pi on the arrangement theta.

    Position i of the result takes theta's value at position pi(i), and its
    color is the mod-m sum of theta's color there and pi's color at i
    (representatives chosen in 1..m).  When theta is a group element too,
    the result is the group composition.  A pi that is not a group element
    (``check_element``) and colors of theta outside 1..m raise
    ``ValueError``.
    """
    if theta.n != pi.n:
        raise ValueError(f"length mismatch: {theta.n} vs {pi.n}")
    if theta.m != pi.m:
        raise ValueError(f"color-count mismatch: {theta.m} vs {pi.m}")
    m, values, colors = theta.m, theta.values, theta.colors
    check_element(pi)
    check_colors(m, colors)
    sources = [s - 1 for s in pi.values]
    return ColoredArrangement(
        m,
        tuple([values[s] for s in sources]),
        tuple([(colors[s] + c - 1) % m + 1 for s, c in zip(sources, pi.colors)]),
    )


class GroupTable:
    """The colored permutation group of one (m, n), compiled for lookup.

    The action factors through the semidirect product:
    act((v, c), (sigma, p)) = (v o sigma, c o sigma (+) p), with (+) the
    position-wise color sum.  A color word is stored as its index among the
    first m**n elements (identity value word).  ``moves`` is the whole
    group compiled by ``compile`` with each element's cinv as payload;
    ``elements`` and ``cinvs`` follow ``enumerate_group(m, n)``.
    """

    def __init__(self, m, n):
        self.m = m
        self.elements = enumerate_group(m, n)
        self.cinvs = tuple(map(cinv, self.elements))
        self.index = {pi.colors: i for i, pi in enumerate(self.elements[: m**n])}
        self._rows = [None] * m**n
        self._bases = {}
        self._maps = {}
        self.moves = self.compile(zip(self.elements, self.cinvs))

    def basis(self, multiset):
        """The arrangements of a sorted multiset of size n, and its image
        table: value word -> color index -> position among them.  Built once
        per multiset; for 1..n the arrangements are ``elements`` itself."""
        found = self._bases.get(multiset)
        if found is None:
            basis, image = _enumerate(self.m, multiset), {}
            for i, theta in enumerate(basis):
                row = image.setdefault(theta.values, [0] * len(self.index))
                row[self.index[theta.colors]] = i
            found = self._bases[multiset] = basis, image
        return found

    def columns(self, multiset, column):
        """Every column of a matrix M on the basis of ``multiset`` with
        M[g.i][g.j] = M[i][j] for each symmetry g below, in basis order:
        ``column(theta)`` gives the column of one basis element theta per
        orbit (a sequence indexed by basis position), and every other
        column is transported from it.

        The symmetries.  Let I have k distinct modes.  A pair g = (h, d) of
        a permutation h of those modes that keeps each one's multiplicity
        and a map d from them to Z_m acts on the arrangements of I by
        g.(v, c) = (h o v, c (+) d o v).  It commutes with the right action:
        act(g.(v, c), (sigma, p)) = (h o v o sigma, c o sigma (+) d o v o
        sigma (+) p) = g.act((v, c), (sigma, p)), because (+) is commutative.
        So act(theta_j, pi) = theta_i iff act(g.theta_j, pi) = g.theta_i,
        and every ``rep_matrix(x, I)``, the Gram block among them (it is
        that of the q**cinv group sum), has M[g.i][g.j] = M[i][j].

        Transport.  For t = g.k, M[i][t] = M[g.(g^-1.i)][g.k] = M[g^-1.i][k]:
        column t is column k read at the positions g^-1.i, one
        ``itemgetter`` call.  The generators are the swaps of two modes of
        equal multiplicity that are adjacent among those modes in ascending
        order, which generate every such h, and the unit shift of the color
        at every position of one mode, which generate every d (for m = 1
        the shifts are the identity and are left out).  The group is finite,
        so a search from the first element of an orbit along the generators
        alone, without their inverses, reaches the whole orbit.

        Orbit size.  The action is free: g.(v, c) = (v, c) forces h o v = v,
        so h fixes every mode (each occurs in v), and d o v = 0, so d = 0.
        Each orbit thus has |Aut(I)| * m**k elements, |Aut(I)| the product
        over multiplicities of the factorial of the number of modes with
        it, and a regular block (distinct modes 1..n) is one orbit.
        """
        basis = self.basis(multiset)[0]
        maps = self._maps.get(multiset)
        if maps is None:
            maps = self._maps[multiset] = self._symmetries(multiset)
        cols = [None] * len(basis)
        for j, theta in enumerate(basis):
            if cols[j] is None:
                cols[j], orbit = column(theta), [j]
                for k in orbit:
                    for forward, backward in maps:
                        t = forward[k]
                        if cols[t] is None:
                            cols[t] = backward(cols[k])
                            orbit.append(t)
        return cols

    def _symmetries(self, multiset):
        """Per generator g of ``columns``, the basis positions of g.theta for
        the basis elements theta, in basis order, and an ``itemgetter`` of
        the positions of g^-1.theta.  A basis with a generator has at least
        two elements (m > 1 or two distinct modes), so each getter returns
        a tuple."""
        basis, image = self.basis(multiset)
        m, modes, classes = self.m, sorted(set(multiset)), {}
        for a in modes:
            classes.setdefault(multiset.count(a), []).append(a)
        swaps = [{a: b, b: a} for same in classes.values() for a, b in zip(same, same[1:])]
        images = [
            [(tuple([h.get(v, v) for v in t.values]), t.colors) for t in basis] for h in swaps
        ]
        images += [
            [(t.values, tuple([c % m + 1 if v == a else c for v, c in t.tokens])) for t in basis]
            for a in (modes if m > 1 else ())
        ]
        maps = []
        for words in images:
            forward = [image[v][self.index[c]] for v, c in words]
            backward = [0] * len(forward)
            for i, t in enumerate(forward):
                backward[t] = i
            maps.append((forward, itemgetter(*backward)))
        return maps

    def compile(self, items):
        """Distinct (element, payload) pairs grouped by value word sigma:
        one (0-based sources, color indices ascending or ``None`` for all
        m**n, payloads) per sigma."""
        groups = {}
        for pi, payload in items:
            groups.setdefault(pi.values, []).append((self.index[pi.colors], payload))
        moves = []
        for values, pairs in groups.items():
            ps, payloads = zip(*sorted(pairs))  # the indices are distinct
            full = len(ps) == len(self.index)
            moves.append((tuple([v - 1 for v in values]), None if full else ps, payloads))
        return tuple(moves)

    def walk(self, image, moves, values, colors):
        """Per sigma of ``moves``: the words of the arrangement (values,
        colors) composed with sigma, built once, then the position in
        ``image``'s basis of each move's image, one list index each, beside
        the moves' payloads."""
        for sources, ps, payloads in moves:
            row = image[tuple([values[s] for s in sources])]
            sums = self.sums(self.index[tuple([colors[s] for s in sources])], ps)
            yield map(row.__getitem__, sums), payloads

    def sums(self, a, ps):
        """Indices of a (+) p for the indices p of ``ps`` (all, in order,
        when ``ps`` is None), from the row of a."""
        row = self._row(a)
        return row if ps is None else [row[p] for p in ps]

    def _row(self, a):
        """The indices of a (+) p for every p, built on first use.

        The color words form the abelian group (Z_m)**n.  Let i be the first
        non-neutral position of a, g the generator with color 1 at i alone,
        and b the word a with the color at i one step back (1 goes to m), so
        a = b (+) g and a (+) p = b (+) (g (+) p): the row of a is the row
        of b read at the row of g.  Only the n generators' rows call
        ``act``, m**n times each; the neutral row is the identity.
        """
        row = self._rows[a]
        if row is None:
            m, colors, size = self.m, self.elements[a].colors, len(self._rows)
            i = next((i for i, c in enumerate(colors) if c != m), None)
            if i is None:
                row = tuple(range(size))
            else:
                g = self.index[(m,) * i + (1,) + (m,) * (len(colors) - i - 1)]
                if a == g:
                    elements, index = self.elements, self.index
                    row = tuple([index[act(elements[a], pi).colors] for pi in elements[:size]])
                else:
                    b = self.index[colors[:i] + ((colors[i] - 2) % m + 1,) + colors[i + 1 :]]
                    row = tuple(map(self._row(b).__getitem__, self._row(g)))
            self._rows[a] = row
        return row


@sized_cache
def group_table(m, n):
    """The ``GroupTable`` of (m, n), built on first use: the one cache of
    the compiled group and its cinv values."""
    return GroupTable(m, n)


def as_multiset(values):
    """Canonical multiset form: ascending tuple of modes (``check_tokens``)."""
    ms = tuple(values)
    check_tokens(ms)
    return tuple(sorted(ms))


def _slot_map(word):
    """Position -> 1-based slot of the sorted multiset, ties left to right."""
    order = sorted(range(len(word)), key=lambda i: (word[i], i))
    st = [0] * len(word)
    for slot, i in enumerate(order, start=1):
        st[i] = slot
    return tuple(st)


def _value_words(multiset):
    """Distinct rearrangements of a sorted tuple, ascending lexicographically.

    Each word follows from the last by the next-permutation step: find the
    rightmost i with word[i] < word[i+1], swap word[i] with the rightmost
    larger entry, and reverse the tail after i.  Repeated values give no
    repeated words, so the cost is proportional to the words produced, not
    to n!.
    """
    word = list(multiset)
    n = len(word)
    while True:
        yield tuple(word)
        i = n - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = reversed(word[i + 1 :])


@lru_cache(maxsize=None)
def _enumerate(m, multiset):
    n = len(multiset)
    # Counter tuples indexed by slot, slot 1 fastest; each slot's colors run
    # neutral first, then 1..m-1.
    counters = [w[::-1] for w in product((m, *range(1, m)), repeat=n)]
    out = []
    for word in _value_words(multiset):
        slots = _slot_map(word)
        for counter in counters:
            colors = tuple(counter[slots[i] - 1] for i in range(n))
            out.append(ColoredArrangement(m, word, colors))
    return tuple(out)


def enumerate_arrangements(m, multiset):
    """All colored arrangements of the multiset, in the canonical order."""
    check_sizes(m)
    return _enumerate(m, as_multiset(multiset))


def enumerate_group(m, n):
    """All m**n * n! colored permutations on n positions, canonical order:
    the cached tuple of ``enumerate_arrangements(m, range(1, n + 1))``."""
    check_sizes(m, n)
    return _enumerate(m, tuple(range(1, n + 1)))


def insertion_cycle(m, n, j, k):
    """The neutral-colored cycle sending j -> j-1 -> ... -> k -> j.

    In one-line form this is the word 1, ..., k-1, j, k, ..., j-1 followed by
    the fixed points j+1..n: it inserts the value j at position k.  Its
    inversion count is j - k.
    """
    check_sizes(m, n)
    if not 1 <= k <= j <= n:
        raise ValueError(f"need 1 <= k <= j <= n, got k={k}, j={j}, n={n}")
    word = list(range(1, n + 1))
    word[k - 1 : j] = [j] + list(range(k, j))
    return ColoredArrangement(m, tuple(word), (m,) * n)
