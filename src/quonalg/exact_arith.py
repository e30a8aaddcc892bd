"""Exact arithmetic in ZZ[q], and reduced quotients for printing.

The package computes in ZZ[q]: every scalar it multiplies or adds is an
integer-coefficient ``Polynomial`` in the single variable q, with
arbitrary-precision coefficients.  A ``RationalFunction`` is a reduced
quotient of two such polynomials with no arithmetic of its own; it exists
only where a quotient is printed or parsed (the coefficients of the
closed-form inverse).  Exact rational numbers (used as evaluation points)
are plain ``fractions.Fraction`` values.

Canonical string form, used verbatim by the CLI and the file exports: terms
ascending by degree, coefficient 1 elided, constant term printed bare, e.g.
``q^4 + q^5`` or ``1 - 2q + q^2``.  A quotient with nontrivial denominator is
printed ``(num)/(den)``.  ``parse_polynomial`` / ``parse_rational_function``
read the same grammar back.

Products of two ``Polynomial`` values are schoolbook convolutions, which
suit the sparse closed-form factors the package multiplies.  Where many
products and sums meet, a caller packs each coefficient tuple into one big
integer instead (Kronecker substitution q -> 2**stride, ``pack_coeffs``),
computes on plain ints and unpacks each result once (``unpack_int``):
``linalg`` for determinants, ``group_algebra.ga_mul`` for group-algebra
products, ``quon_engine`` for annihilator steps.  Each caller chooses its stride from a bound on the coefficients
of its results and proves that bound in its docstring.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd


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
        """Exact value at a rational point, as a Fraction.

        With the point p/r in lowest terms and d the degree, Horner's rule
        runs on integers: it builds N = sum(c_i * p**i * r**(d-i)) and
        r**d together, and the value is the one Fraction N / r**d.
        """
        coeffs = self.coeffs
        if not coeffs:
            return Fraction(0)
        x = Fraction(point)
        p, r = x.numerator, x.denominator
        acc, scale = coeffs[-1], 1
        for c in coeffs[-2::-1]:
            scale *= r
            acc = acc * p + c * scale
        return Fraction(acc, scale)

    def content(self):
        """Non-negative gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = _int_gcd(g, abs(c))
        return g

    def primitive(self):
        """self divided by its content; zero stays zero."""
        g = self.content()
        if g in (0, 1):
            return self
        return Polynomial(tuple(c // g for c in self.coeffs))

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


_ZERO = Polynomial.__new__(Polynomial)
object.__setattr__(_ZERO, "coeffs", ())
_ONE = Polynomial.__new__(Polynomial)
object.__setattr__(_ONE, "coeffs", (1,))
_Q = Polynomial.__new__(Polynomial)
object.__setattr__(_Q, "coeffs", (0, 1))


def _prem(a, b):
    """Pseudo-remainder of a by b: lc(b)**(deg a - deg b + 1) * a  mod  b."""
    da, db = a.degree, b.degree
    if da < db:
        return a
    rem = list(a.coeffs)
    bc = b.coeffs
    lb = b.leading
    for k in range(da - db, -1, -1):
        c = rem[db + k]
        rem = [x * lb for x in rem]
        if c:
            for i, bi in enumerate(bc):
                rem[k + i] -= c * bi
    return Polynomial(rem[:db])


def _positive_primitive(p):
    p = p.primitive()
    if p.leading < 0:
        p = -p
    return p


def poly_gcd(a, b):
    """Primitive gcd in ZZ[q] with positive leading coefficient.

    Computed by the primitive pseudo-remainder sequence; gcd(0, b) is the
    positive primitive part of b.
    """
    if a.is_zero:
        return _positive_primitive(b)
    if b.is_zero:
        return _positive_primitive(a)
    a = a.primitive()
    b = b.primitive()
    while not b.is_zero:
        a, b = b, _prem(a, b).primitive()
    return _positive_primitive(a)


def poly_lcm(a, b):
    if a.is_zero or b.is_zero:
        return _ZERO
    g = poly_gcd(a, b)
    out = (a * b).divexact(g)
    if out.leading < 0:
        out = -out
    return out


class RationalFunction:
    """Reduced quotient num/den of two integer polynomials, for printing.

    Canonical form: gcd(num, den) = 1 over the rationals, the integer
    contents of num and den share no factor, and den has positive leading
    coefficient.  The form is unique, so equality is structural, and a
    quotient with unit denominator equals and hashes like its numerator.
    Instances are immutable.  There is no arithmetic: the package computes
    in ZZ[q] and builds a quotient only where one is printed or parsed.
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
        elif den != _ONE:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divexact(g)
                den = den.divexact(g)
            cg = _int_gcd(num.content(), den.content())
            if cg > 1:
                num = num.divexact(cg)
                den = den.divexact(cg)
            if den.leading < 0:
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
        point = Fraction(point)
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at q = {point}")
        return self.num.evaluate(point) / d

    def __str__(self):
        if self.den == _ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"


def parse_polynomial(text):
    """Parse the canonical polynomial grammar, e.g. ``1 - 2q + q^2``."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    coeffs = {}
    i = 0
    first = True
    while i < len(s):
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
        elif not first:
            raise ValueError(f"expected sign in {text!r} at position {i}")
        first = False
        start = i
        while i < len(s) and s[i].isdigit():
            i += 1
        mag_str = s[start:i]
        degree = 0
        if i < len(s) and s[i] == "q":
            i += 1
            degree = 1
            if i < len(s) and s[i] == "^":
                i += 1
                dstart = i
                while i < len(s) and s[i].isdigit():
                    i += 1
                if i == dstart:
                    raise ValueError(f"missing exponent in {text!r}")
                degree = int(s[dstart:i])
        elif not mag_str:
            raise ValueError(f"malformed term in {text!r} at position {start}")
        mag = int(mag_str) if mag_str else 1
        coeffs[degree] = coeffs.get(degree, 0) + sign * mag
    if not coeffs:
        raise ValueError(f"no terms in {text!r}")
    size = max(coeffs) + 1
    out = [0] * size
    for d, c in coeffs.items():
        out[d] = c
    return Polynomial(out)


def parse_rational_function(text):
    """Parse either a bare polynomial or the canonical ``(num)/(den)`` form."""
    s = text.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        num_str, den_str = s[1:-1].split(")/(", 1)
        return RationalFunction(parse_polynomial(num_str), parse_polynomial(den_str))
    return RationalFunction(parse_polynomial(s))


def parse_rational(text):
    """Parse an exact rational number: an integer literal or ``p/q``.

    Decimal notation is rejected on purpose; exact inputs must be integers
    or quotients of integers.
    """
    s = text.strip()
    if "." in s:
        raise ValueError(f"decimal notation not accepted for exact input: {text!r}")
    return Fraction(s)
