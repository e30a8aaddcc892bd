"""Group-algebra elements over ZZ[q], their products, and representation
matrices on arrangement modules.

An element is a finite map from colored permutations (the arrangements of
1..n, ``check_element``, all sharing one color count m and one length n)
to Polynomial coefficients; ints are coerced.  An inverse that needs a
denominator is a pair (numerator element, denominator Polynomial), and the
denominator is a central scalar, so products of such pairs multiply
numerators and denominators separately.  The module of
formal combinations of the colored arrangements of a multiset I carries a
right action of the group; ``rep_matrix`` expands that action in the
canonical arrangement basis, one column per basis element (walked for one
element per symmetry orbit, ``GroupTable.columns``), as a ``Block``:
the one matrix type of the package, which Gram blocks share.  Both
``rep_matrix`` and ``ga_mul`` walk the terms of x by the lookup tables of
``colored_perm.GroupTable``, with coefficients packed into ints;
``inverts_cinv_sum`` multiplies packed vectors by the group sum through its
sparse factors, and checks the factors first.

``ga_mul`` is oriented so that ``rep_matrix`` is multiplicative:
``rep_matrix(ga_mul(x, y), I)`` equals ``rep_matrix(x, I) @ rep_matrix(y, I)``.
Concretely the product term of (pi_x, pi_y) is act(pi_y, pi_x), i.e. in
ga_mul(x, y) the arrangement is acted on by y's group element first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import prod
from operator import add, lshift

from .exact_arith import Polynomial, pack_coeffs, stride, unpack_int
from .linalg import split_tree
from .colored_perm import ColoredArrangement, as_multiset, check_element, check_sizes
from .colored_perm import group_table, insertion_cycle, sized_cache


class GroupAlgebraElement:
    """Finite Polynomial-weighted combination of colored permutations.

    Int coefficients are coerced to Polynomials.  A key that is not a
    group element of (m, n) raises ``ValueError``.  Zero coefficients are
    never stored; equality is structural on the term map.  Instances are
    treated as immutable.  The one element with other coefficients is the
    printed inverse of ``formulas.inverse_closed_form``, whose coefficients
    are reduced quotients; it is read, never multiplied.
    """

    __slots__ = ("m", "n", "terms")

    def __init__(self, m, n, terms=None):
        check_sizes(m, n)
        clean = {}
        if terms:
            for pi, coeff in terms.items():
                if isinstance(coeff, int):
                    coeff = Polynomial.constant(coeff)
                if coeff.is_zero:
                    continue
                if pi.m != m or pi.n != n:
                    raise ValueError(f"term {pi} does not live in ({m}, {n})")
                check_element(pi)
                clean[pi] = coeff
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GroupAlgebraElement is immutable")

    @classmethod
    def identity(cls, m, n):
        return cls(m, n, {ColoredArrangement.neutral(m, n): 1})

    @classmethod
    def from_element(cls, pi, coeff=1):
        return cls(pi.m, pi.n, {pi: coeff})

    def coeff(self, pi):
        return self.terms.get(pi, Polynomial.zero())

    @property
    def is_zero(self):
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check_sizes(other)
        out = dict(self.terms)
        for pi, c in other.terms.items():
            out[pi] = out.get(pi, 0) + c
        return GroupAlgebraElement(self.m, self.n, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GroupAlgebraElement(
            self.m, self.n, {pi: -c for pi, c in self.terms.items()}
        )

    def scale(self, coeff):
        return GroupAlgebraElement(
            self.m, self.n, {pi: c * coeff for pi, c in self.terms.items()}
        )

    def _check_sizes(self, other):
        if self.m != other.m or self.n != other.n:
            raise ValueError(
                f"size mismatch: ({self.m}, {self.n}) vs ({other.m}, {other.n})"
            )

    def __repr__(self):
        if not self.terms:
            return "GroupAlgebraElement(0)"
        bits = [f"[{c}]*{pi}" for pi, c in sorted(self.terms.items(), key=lambda t: str(t[0]))]
        return "GroupAlgebraElement(" + " + ".join(bits) + ")"


def _norms(x):
    """(max of the sup norms, sum of the l1 norms) of x's coefficients."""
    sup = l1 = 0
    for c in x.terms.values():
        if not isinstance(c, Polynomial):
            raise TypeError(f"ga_mul needs ZZ[q] coefficients, got {c!r}")
        sup = max(sup, max(map(abs, c.coeffs)))
        l1 += sum(map(abs, c.coeffs))
    return sup, l1


def _product_stride(x, y):
    """Bits per packed coefficient of ga_mul(x, y): ``stride(B)``.

    B = min(sup(x) * l1(y), sup(y) * l1(x)) bounds every coefficient of the
    product (see ``ga_mul``).
    """
    (sup_x, l1_x), (sup_y, l1_y) = _norms(x), _norms(y)
    return stride(min(sup_x * l1_y, sup_y * l1_x))


def ga_mul(x, y):
    """Convolution product oriented so rep_matrix is multiplicative.

    rep_matrix(ga_mul(x, y), I) == rep_matrix(x, I) @ rep_matrix(y, I); the
    group term contributed by a pair (pi_x, pi_y) is act(pi_y, pi_x), found
    by ``GroupTable.walk`` as a position in the group, whose cached element
    keys the result.

    Coefficients are multiplied and summed as their images under
    phi: q -> 2**s (``pack_coeffs``), one image per term of x and of y, and
    each output is unpacked once (``unpack_int``).  Coefficients that are
    not Polynomials (the printed inverse's quotients) raise TypeError.

    Why the stride s = ``stride(B)`` of ``_product_stride`` suffices.
    phi is a ring homomorphism ZZ[q] -> ZZ, so the int accumulated at a
    group element g is phi(c_g), with c_g the sum of a_x * b_y over the
    pairs (pi_x, pi_y) with act(pi_y, pi_x) = g.  For a fixed pi_y the map
    pi_x -> act(pi_y, pi_x) is injective (it is a product in the group), so
    at most one pi_x meets each pi_y at g.  A coefficient of a_x * b_y has
    modulus at most ||a_x||_inf * ||b_y||_1, so every coefficient of c_g has
    modulus at most max_x ||a_x||_inf * sum_y ||b_y||_1; with the roles of
    x and y exchanged (pi_y -> act(pi_y, pi_x) is injective as well), also
    at most max_y ||b_y||_inf * sum_x ||a_x||_1.  B is the smaller of the
    two, so B < 2**(s-1), and balanced base-2**s digits recover c_g from
    phi(c_g) exactly; a c_g that cancels to zero packs to 0, unpacks to the
    zero Polynomial and is dropped like any zero coefficient.  Partial sums
    are never unpacked, so their size does not matter.
    """
    x._check_sizes(y)
    m, n = x.m, x.n
    stride = _product_stride(x, y)
    table = group_table(m, n)
    moves = table.compile((pi, pack_coeffs(c.coeffs, stride)) for pi, c in x.terms.items())
    image = table.basis(tuple(range(1, n + 1)))[1]
    out = [0] * len(table.elements)
    for pi_y, cy in y.terms.items():
        py = pack_coeffs(cy.coeffs, stride)
        for targets, packed_x in table.walk(image, moves, pi_y.values, pi_y.colors):
            for i, px in zip(targets, packed_x):
                out[i] += px * py
    return GroupAlgebraElement(
        m,
        n,
        {
            pi: Polynomial(unpack_int(v, stride))
            for pi, v in zip(table.elements, out)
            if v
        },
    )


@sized_cache
def cinv_sum(m, n):
    """The q-weighted group sum: every element with coefficient q**cinv."""
    table = group_table(m, n)
    return GroupAlgebraElement(
        m, n, {pi: Polynomial.monomial(c) for pi, c in zip(table.elements, table.cinvs)}
    )


def _sum_factors(m, n):
    """Sparse factors of s = ``cinv_sum(m, n)``: T_2, ..., T_n, then C_1, ...,
    C_n, each a tuple of terms (pi, e) for q**e * pi, with
    s = C_n ... C_1 T_n ... T_2 in ``ga_mul``'s order.

    T_j = sum_{k=1..j} q**(j-k) * insertion_cycle(j, k), and C_p = e + q *
    (the m - 1 words with one non-neutral color, at position p, on the
    identity value word); C_p = e at m = 1 and is left out.  Every term is
    a pure permutation or a pure color word, and the factors have
    prod |f| = n! * m**n = |G| terms in all (Zagier's factorization of the
    q-weighted permutation sum, Comm. Math. Phys. 147 (1992), with one
    color factor per position).  ``inverts_cinv_sum`` checks the product
    instead of assuming it.
    """
    e = ColoredArrangement.neutral(m, n)
    factors = [
        tuple((insertion_cycle(m, n, j, k), j - k) for k in range(1, j + 1))
        for j in range(2, n + 1)
    ]
    for p in range(n if m > 1 else 0):
        words = (e.colors[:p] + (a,) + e.colors[p + 1 :] for a in range(1, m))
        factors.append(((e, 0), *((ColoredArrangement(m, e.values, w), 1) for w in words)))
    return factors


def _chain_stride(sup, factors, target_sup):
    """Bits per packed coefficient of ``_times_factors``: ``stride(B)``, with
    B = max(sup * prod |f|, target_sup).

    Why it suffices, for an input vector whose coefficients have modulus at
    most sup and a target whose coefficients have modulus at most
    target_sup.  A factor's terms are distinct group elements with
    coefficients q**e, and for one term pi both h -> act(h, pi) and
    h -> act(pi, h) are bijections of G, so each output position receives
    one shifted input coefficient per term: times a factor f, the bound
    grows at most |f|-fold, and the chain's output has coefficients of
    modulus at most sup * prod |f| <= B.  The target's are at most B too.
    So every compared polynomial has coefficients below 2**(s-1), where
    balanced base-2**s digits are unique (``unpack_int`` reads them back),
    and two packed ints are equal exactly when their polynomials are.
    Packing is a ring homomorphism, so the final ints are the images of
    the exact products however large the intermediate ones grow.  The
    bound is attained: an input with coefficient sup * q**(K - cinv(h))
    at every h, K the largest cinv, times cinv_sum on either side, has
    sup * |G| * q**K at the neutral element.
    """
    return stride(max(sup * prod(map(len, factors)), target_sup))


def _blocks(table):
    """The offset b * M of the b-th value word's block in a vector of
    ``_gather``, M = m**n, value words in the group's order."""
    size = len(table.index)
    words = (pi.values for pi in table.elements[::size])
    return dict(zip(words, range(0, len(table.elements), size)))


def _gather(table, blocks, pi, on_left):
    """For pi a pure permutation sigma or a pure color word d: the index into
    V of each entry of pi * V (``on_left``) or of V * pi, or None for pi = e.

    A vector V over G holds the element (v, color word k) at blocks[v] + k
    (``_blocks``), k the color word's index in ``table.index``.  pi * V has
    the term act(h, pi) for h of V, V * pi the term act(pi, h) (``ga_mul``'s
    orientation); each map is a bijection of G, so an entry is read at its
    preimage, found from one word build per value word (and per color word
    for act(h, sigma)) and the color rows of ``table`` (``GroupTable.sums``).
    """
    m, n, sigma, index = pi.m, pi.n, pi.values, table.index
    if pi.colors.count(m) < n:  # act(h, d) = (v, c (+) d), act(d, h) = (v, (d o v) (+) c)
        minus = (0, *[m - c or m for c in pi.colors])  # -d at positions 1..n
        words = (minus[1:] if on_left else tuple(map(minus.__getitem__, v)) for v in blocks)
        rows = zip(blocks.values(), (table.sums(index[w], None) for w in words))
    elif sigma == tuple(sorted(sigma)):
        return None
    elif on_left:  # act(h, sigma) = (v o sigma, c o sigma)
        back = sorted(range(n), key=sigma.__getitem__)  # w o sigma**-1 = w[back]
        row = [index[tuple(map(c.__getitem__, back))] for c in index]
        rows = ((blocks[tuple(map(v.__getitem__, back))], row) for v in blocks)
    else:  # act(sigma, h) = (sigma o v, c)
        back = dict(zip(sigma, range(1, n + 1)))  # sigma**-1
        rows = ((blocks[tuple(map(back.__getitem__, v))], range(len(index))) for v in blocks)
    return [b + k for b, row in rows for k in row]


def _chain(table, blocks, factors, on_left):
    """The factors as ``_times_factors`` applies them, on the left
    (``on_left``) or on the right of a vector: per factor, each term's
    (``_gather`` index, exponent), the first-applied factor first."""
    order = factors if on_left else reversed(factors)
    return [[(_gather(table, blocks, pi, on_left), e) for pi, e in f] for f in order]


def _times_factors(vector, chain, width):
    """The packed vector of P * V or of V * P, for chain = ``_chain(table,
    blocks, factors, on_left)`` and P = f_r ... f_1 in ``ga_mul``'s order
    for factors f_1, ..., f_r (P = s for ``_sum_factors``).

    V and the result are lists of ints at stride ``width``
    (``_chain_stride``), indexed as in ``_gather``.  The factors act one at
    a time: P * V applies f_1 first, V * P applies f_r first.
    """
    for factor in chain:
        out = None
        for index, e in factor:
            terms = vector if index is None else map(vector.__getitem__, index)
            if e:
                terms = map(lshift, terms, repeat(e * width))
            out = list(terms) if out is None else list(map(add, out, terms))
        vector = out
    return vector


def inverts_cinv_sum(m, n, parts, scalar):
    """Whether N * s == scalar * e == s * N, for s = ``cinv_sum(m, n)`` and N
    the sum of cof * x over the (cof, x) of ``parts``, x a dict from group
    elements to ZZ[q] coefficients, no element in two of them.

    s is taken as its sparse factors (``_sum_factors``), and the check has
    two parts, both on packed ints (``_chain_stride`` proves the strides):
    (a) the factors applied to e give the packed s; (b) N, with the
    coefficient num * cof packed as pack(num) * pack(cof), times the
    factors on each side is pack(scalar) at e and 0 elsewhere.  No
    coefficient is unpacked.  The input sup of (b) bounds each
    ||num * cof||_inf by ||num||_inf * ||cof||_1.
    """
    table, factors = group_table(m, n), _sum_factors(m, n)
    blocks, index, cinvs = _blocks(table), table.index, table.cinvs
    on_left = _chain(table, blocks, factors, True)
    # (a): (v, k) has cinv inv(v) + cinv(k), that is cinvs[blocks[v]] + cinvs[k]
    width = _chain_stride(1, factors, 1)
    unit = [1] + [0] * (len(cinvs) - 1)
    packed_sum = [1 << width * (cinvs[b] + c) for b in blocks.values() for c in cinvs[: len(index)]]
    if _times_factors(unit, on_left, width) != packed_sum:
        return False
    sup = 0
    for cof, x in parts:
        l1 = sum(map(abs, cof.coeffs))
        sup = max([sup] + [l1 * max(map(abs, c.coeffs)) for c in x.values()])
    width = _chain_stride(sup, factors, max(map(abs, scalar.coeffs), default=0))
    vector = [0] * len(cinvs)
    for cof, x in parts:
        packed = pack_coeffs(cof.coeffs, width)
        for pi, num in x.items():
            vector[blocks[pi.values] + index[pi.colors]] = pack_coeffs(num.coeffs, width) * packed
    target = [pack_coeffs(scalar.coeffs, width)] + unit[1:]
    return (
        _times_factors(vector, on_left, width) == target
        and _times_factors(vector, _chain(table, blocks, factors, False), width) == target
    )


@dataclass(frozen=True)
class Block:
    """A square matrix over the arrangements of a multiset, in basis order.

    Entries are Polynomials, in Gram blocks and representation matrices
    alike.  The cached properties are not fields: ``==`` and ``hash`` ignore
    them.
    """

    m: int
    multiset: tuple
    basis: tuple
    entries: tuple

    @property
    def size(self):
        return len(self.basis)

    @cached_property
    def split_tree(self):
        """The tensor-product split tree of the entries (``linalg.split_tree``)."""
        return split_tree(self.entries)

    @cached_property
    def symmetric(self):
        """Whether the entries equal their transpose in ZZ[q], on coefficient tuples."""
        coeffs = [[p.coeffs for p in row] for row in self.entries]
        return coeffs == [list(col) for col in zip(*coeffs)]


def rep_matrix(x, multiset):
    """Right-action matrix of x on the arrangement module of the multiset.

    Column j expands basis[j] acted on by x in the canonical arrangement
    basis; for the multiset {1..n} this is the regular representation.
    The left symmetries of the multiset commute with the right action of
    every term, so one basis element per orbit is walked, one word build
    per value word of x's terms (n! for ``cinv_sum``) and one list index
    per term each, and ``GroupTable.columns`` transports its column to the
    rest of the orbit.
    A walked column is summed as packed ints and each distinct value is
    unpacked once; coefficients that are not Polynomials raise TypeError.

    Why the stride s = ``stride(B)`` of ``_rep_stride``, with B the
    sum of ||c||_inf over the terms of x, suffices: packing is a ring
    homomorphism, so the int at entry (i, j) is the image of the sum of c
    over the terms (pi, c) with act(basis[j], pi) = basis[i].  Each term
    sends basis[j] to exactly one basis element, so it enters that sum at
    most once, and every coefficient of the sum has modulus at most
    B < 2**(s-1).  Balanced base-2**s digits (``unpack_int``) therefore
    read it back exactly; an entry that cancels is the zero Polynomial.
    """
    multiset = as_multiset(multiset)
    if len(multiset) != x.n:
        raise ValueError(f"multiset size {len(multiset)} does not match n={x.n}")
    m = x.m
    stride = _rep_stride(x)
    table = group_table(m, x.n)
    basis, image = table.basis(multiset)
    moves = table.compile((pi, pack_coeffs(c.coeffs, stride)) for pi, c in x.terms.items())
    polys = {0: Polynomial.zero()}

    def column(theta):
        col = [0] * len(basis)
        for targets, packed in table.walk(image, moves, theta.values, theta.colors):
            for i, c in zip(targets, packed):
                col[i] += c
        for v in set(col).difference(polys):  # each distinct value unpacked once
            polys[v] = Polynomial(unpack_int(v, stride))
        return list(map(polys.__getitem__, col))

    entries = tuple(zip(*table.columns(multiset, column)))
    return Block(m=m, multiset=multiset, basis=basis, entries=entries)


def _rep_stride(x):
    """Bits per packed entry of ``rep_matrix(x, ...)``: ``stride(B)``, with
    B the sum of the sup norms of x's coefficients."""
    for c in x.terms.values():
        if not isinstance(c, Polynomial):
            raise TypeError(f"rep_matrix needs ZZ[q] coefficients, got {c!r}")
    return stride(sum(max(map(abs, c.coeffs)) for c in x.terms.values()))

