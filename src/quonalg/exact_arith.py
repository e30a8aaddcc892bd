"""Exact arithmetic in ZZ[q], and reduced quotients for printing.

The package computes in ZZ[q]: every scalar it multiplies or adds is an
integer-coefficient ``Polynomial`` in the single variable q, with
arbitrary-precision coefficients.  A ``RationalFunction`` is a quotient of
two such polynomials with no arithmetic of its own; it exists only where a
quotient is printed (the coefficients of the closed-form inverse), and it
is in lowest terms because its maker says so: nothing in this module
computes a gcd.  Exact rational numbers (evaluation points) are ints and
``fractions.Fraction`` values; ``check_point`` rejects any other point.

Canonical string form, used verbatim by the CLI and the file exports: terms
ascending by degree, coefficient 1 elided, constant term printed bare, e.g.
``q^4 + q^5`` or ``1 - 2q + q^2``.  A quotient with nontrivial denominator is
printed ``(num)/(den)``.  The package prints this grammar and never reads
it back; the one string it parses is an exact rational number
(``parse_rational``, for the CLI).

Products of two ``Polynomial`` values are schoolbook convolutions, which
suit the sparse closed-form factors the package multiplies.  Where many
products and sums meet, a caller packs each coefficient tuple into one big
integer instead (Kronecker substitution q -> 2**stride, ``pack_coeffs``),
computes on plain ints and unpacks each result once (``unpack_int``):
``linalg`` for determinants (evaluating at 2**stride), ``group_algebra.ga_mul``
for group-algebra products, ``quon_engine`` for annihilator steps.  Each
caller proves a bound on its results' coefficients and packs at ``stride``.
"""

from __future__ import annotations

import re
from fractions import Fraction


def check_point(x):
    """x if it is an exact rational point, an int (not a bool) or a Fraction."""
    if type(x) is not int and not isinstance(x, Fraction):
        raise TypeError(f"point {x!r} is not an int or a Fraction")
    return x


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def pack_coeffs(coeffs, stride):
    """Image of a coefficient tuple under q -> 2**stride."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << stride) + c
    return acc


def stride(bound):
    """Bits per packed coefficient when every coefficient read back has
    modulus at most ``bound``: bound.bit_length() + 1, the least s with
    bound < 2**(s-1), so balanced digits (``unpack_int``) read it back."""
    return bound.bit_length() + 1


def unpack_int(value, stride):
    """Inverse of pack_coeffs under the balanced-digit convention.

    Each digit d is read in -2**(stride-1) <= d < 2**(stride-1), so the
    coefficients come back exactly when each has modulus below
    2**(stride-1).  A stride below 2 has no balanced digit for +1, so it is
    rejected.
    """
    if stride < 2:
        raise ValueError(f"stride must be at least 2, got {stride}")
    coeffs = []
    half = 1 << (stride - 1)
    mask = (1 << stride) - 1
    while value:
        d = value & mask
        if d >= half:
            d -= mask + 1
        coeffs.append(d)
        value = (value - d) >> stride
    return coeffs


class Polynomial:
    """Dense univariate polynomial over ZZ.

    ``coeffs[i]`` is the coefficient of q**i.  Trailing zeros are stripped;
    the zero polynomial is the empty tuple and has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(tuple(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def q(cls):
        return _Q

    @classmethod
    def constant(cls, c):
        return cls((int(c),))

    @classmethod
    def monomial(cls, degree, coeff=1):
        if coeff == 0:
            return _ZERO
        return cls((0,) * degree + (int(coeff),))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # A constant hashes like the int it equals.
        if len(self.coeffs) < 2:
            return hash(self.leading)
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({self})"

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative exponent on a polynomial")
        result = _ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def evaluate(self, point):
        """Exact value at a rational point (``check_point``), as a Fraction.

        With the point p/r in lowest terms and d the degree, Horner's rule
        runs on integers: it builds N = sum(c_i * p**i * r**(d-i)) and
        r**d together, and the value is the one Fraction N / r**d.
        """
        p, r = check_point(point).numerator, point.denominator
        coeffs = self.coeffs
        if not coeffs:
            return Fraction(0)
        acc, scale = coeffs[-1], 1
        for c in coeffs[-2::-1]:
            scale *= r
            acc = acc * p + c * scale
        return Fraction(acc, scale)

    def divexact(self, other):
        """Exact quotient self/other in ZZ[q]; ValueError if division fails."""
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return _ZERO
        da, db = self.degree, other.degree
        if da < db:
            raise ValueError("inexact polynomial division")
        rem = list(self.coeffs)
        bc = other.coeffs
        lb = other.leading
        quot = [0] * (da - db + 1)
        for k in range(da - db, -1, -1):
            c = rem[db + k]
            if c:
                t, r = divmod(c, lb)
                if r:
                    raise ValueError("inexact polynomial division")
                quot[k] = t
                for i, bi in enumerate(bc):
                    rem[k + i] -= t * bi
        if any(rem):
            raise ValueError("inexact polynomial division")
        return Polynomial(quot)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)


def power_product(factors):
    """The expansion of prod f**e over the pairs (f, e) of ``factors``, each
    f a Polynomial with f(0) != 0 and each e >= 0; ValueError otherwise.

    With F = prod f and G = sum e * f' * F / f (built factor by factor:
    F, G -> F f, G f + e f' F), the product P satisfies F * P' = G * P,
    as P' / P = G / F.  The coefficients of q**(k-1) on both sides give
    one linear recurrence,

        F_0 k P_k = sum_{j=1..k} (G_{j-1} - (k-j) F_j) P_{k-j},

    from P_0 = prod f(0)**e up to k = deg P = sum e * deg f.  P has
    integer coefficients, so each division by F_0 k is exact; it is
    checked.  deg G < deg F, so j runs over the j <= deg F with G_{j-1}
    or F_j nonzero: a few products per coefficient for sparse factors.
    """
    full, log, out, degree = _ONE, _ZERO, [1], 0
    for f, e in factors:
        if e < 0 or not (f.coeffs and f.coeffs[0]):
            raise ValueError(f"power_product needs f(0) != 0 and e >= 0, got ({f}, {e})")
        derivative = Polynomial([e * d * c for d, c in enumerate(f.coeffs)][1:])
        full, log = full * f, log * f + derivative * full
        out[0], degree = out[0] * f.coeffs[0] ** e, degree + e * f.degree
    pad = log.coeffs + (0,) * len(full.coeffs)  # G_{j-1} beside F_j for j >= 1
    pairs = [(j, g, c) for j, (g, c) in enumerate(zip(pad, full.coeffs[1:]), 1) if g or c]
    for k in range(1, degree + 1):
        num = sum((g - (k - j) * c) * out[k - j] for j, g, c in pairs if j <= k)
        value, rem = divmod(num, full.coeffs[0] * k)
        if rem:
            raise ArithmeticError("inexact division in power_product")
        out.append(value)
    return Polynomial(out)


_ZERO = Polynomial.__new__(Polynomial)
object.__setattr__(_ZERO, "coeffs", ())
_ONE = Polynomial.__new__(Polynomial)
object.__setattr__(_ONE, "coeffs", (1,))
_Q = Polynomial.__new__(Polynomial)
object.__setattr__(_Q, "coeffs", (0, 1))


class RationalFunction:
    """Quotient num/den of two integer polynomials in lowest terms, for printing.

    Lowest terms are the caller's promise: the constructor maps a zero
    quotient to 0/1 and gives den a positive leading coefficient, and
    divides out nothing.  ``inverse_closed_form`` keeps the promise (the
    proof is in its docstring).  With no common factor of positive degree
    and no common integer content the form is unique, so equality is
    structural, and a quotient with unit denominator equals and hashes like
    its numerator.  Instances are immutable.  There is no arithmetic: the
    package computes in ZZ[q] and builds a quotient only where one is
    printed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = Polynomial.constant(num)
        if den is None:
            den = _ONE
        elif isinstance(den, int):
            den = Polynomial.constant(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = _ZERO, _ONE
        elif den.leading < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def is_zero(self):
        return self.num.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Polynomial)):
            return self.den == _ONE and self.num == other
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den == _ONE:
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self})"

    def evaluate(self, point):
        """Exact value at a rational point; raises ZeroDivisionError at a pole."""
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at q = {point}")
        return self.num.evaluate(point) / d

    def __str__(self):
        if self.den == _ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text):
    """Parse an exact rational number: an integer literal or ``p/q``.

    Only ``[+-]digits`` and ``[+-]digits/digits`` are read, with surrounding
    spaces stripped: decimals, exponents and underscores are rejected, since
    exact inputs must be integers or quotients of integers.
    """
    s = text.strip()
    if "." in s:
        raise ValueError(f"decimal notation not accepted for exact input: {text!r}")
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"not an integer or p/q: {text!r}")
    return Fraction(s)
