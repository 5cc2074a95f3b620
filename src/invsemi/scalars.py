"""Exact complex scalars with rational real and imaginary parts.

QQi is the exact mode used for every identity assertion. A QQi is three
Python ints (x, y, d), the value (x + y*i)/d with d > 0 and gcd(x, y, d) = 1,
so an operation is integer arithmetic and at most one gcd; `.re` and `.im`
are `Fraction`s built on access. Mixing a QQi with a python complex falls
through to float mode, so truncation numerics embed the exact values without
a separate conversion layer.
"""

from __future__ import annotations

import cmath
import sys
from fractions import Fraction
from math import gcd, isqrt

from .errors import InputError

# the largest |e| a scalar string such as "1e-300" may carry: Python's default
# limit on int-string digits, which does not cover exponents, so that
# Fraction("1e1000000") would build a 3.3M-bit integer; not configurable.
# The numerator and denominator a string parses to may have at most this many
# digits too, so that every parsed scalar prints.
MAX_DECIMAL_EXPONENT = 4300
# (10 ** MAX_DECIMAL_EXPONENT).bit_length(): an int with fewer bits has at
# most MAX_DECIMAL_EXPONENT digits, one with more bits has more
_LIMIT_BITS = 14285

_HASH_MODULUS = sys.hash_info.modulus


def _as_fraction(x):
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if abs(_exponent(x)) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"a decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
        q = Fraction(x)
        if _too_long(q.numerator) or _too_long(q.denominator):
            raise ValueError(f"more than {MAX_DECIMAL_EXPONENT} digits")
        return q
    raise TypeError(f"not an exact rational: {x!r}")


def _too_long(n):
    """Whether the int n has more than MAX_DECIMAL_EXPONENT decimal digits,
    told from its bit length; only at the one bit length that 10 **
    MAX_DECIMAL_EXPONENT shares with shorter ints is the value compared."""
    n = abs(n)
    bits = n.bit_length()
    return bits > _LIMIT_BITS or (bits == _LIMIT_BITS and n >= 10 ** MAX_DECIMAL_EXPONENT)


def _exponent(text):
    """The int after the last e or E of a numeric string, else 0."""
    cut = max(text.rfind("e"), text.rfind("E"))
    try:
        return int(text[cut + 1:]) if cut >= 0 else 0
    except ValueError:
        return 0    # no exponent that Fraction would accept either


def _exact_isqrt(n):
    """The integer square root of an int n >= 0, or None if n is no square."""
    r = isqrt(n)
    return r if r * r == n else None


def _make(x, y, d):
    """The QQi (x + y*i)/d for ints with d > 0, reduced by one gcd."""
    g = gcd(x, y, d)
    if g != 1:
        x //= g
        y //= g
        d //= g
    return _raw(x, y, d)


def _raw(x, y, d):
    """The QQi of a triple that is already canonical."""
    q = object.__new__(QQi)
    q._x = x
    q._y = y
    q._d = d
    return q


def _triple(other):
    """(x, y, d) of an exact operand, or None."""
    if isinstance(other, QQi):
        return other._x, other._y, other._d
    if isinstance(other, int):
        return other, 0, 1
    if isinstance(other, Fraction):
        return other.numerator, 0, other.denominator
    return None


class QQi:
    """Complex number (x + y*i)/d over Python ints, d > 0, gcd(x, y, d) = 1.

    The triple is private; `re` and `im` are read-only `Fraction`s.
    """

    __slots__ = ("_x", "_y", "_d")

    def __new__(cls, re=0, im=0):
        a, b = _as_fraction(re), _as_fraction(im)
        return _make(a.numerator * b.denominator, b.numerator * a.denominator,
                     a.denominator * b.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    def __repr__(self):
        return f"QQi({self.re!s}, {self.im!s})"

    def __str__(self):
        if not self._y:
            return str(self.re)
        return f"{self.re}{'+' if self._y > 0 else ''}{self.im}i"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = _triple(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return self.to_complex() + other
            return NotImplemented
        x, y, d = o
        D = self._d
        return _make(self._x * d + x * D, self._y * d + y * D, D * d)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self._x, -self._y, self._d)

    def __sub__(self, other):
        o = _triple(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return self.to_complex() - other
            return NotImplemented
        x, y, d = o
        return self + _raw(-x, -y, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _triple(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return self.to_complex() * other
            return NotImplemented
        x, y, d = o
        a, b = self._x, self._y
        return _make(a * x - b * y, a * y + b * x, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _triple(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return self.to_complex() / other
            return NotImplemented
        x, y, d = o
        n = x * x + y * y
        if not n:
            raise ZeroDivisionError("division by zero QQi")
        a, b = self._x, self._y
        return _make((a * x + b * y) * d, (b * x - a * y) * d, self._d * n)

    def conjugate(self):
        return _raw(self._x, -self._y, self._d)

    # -- predicates and conversions -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, QQi):
            return self._x == other._x and self._y == other._y and self._d == other._d
        if isinstance(other, int):
            return not self._y and self._d == 1 and self._x == other
        if isinstance(other, Fraction):
            return (not self._y and self._d == other.denominator
                    and self._x == other.numerator)
        if isinstance(other, (float, complex)):
            return self.to_complex() == other
        return NotImplemented

    def __hash__(self):
        x, y, d = self._x, self._y, self._d
        if y:
            return hash((x, y, d))
        if d == 1:
            return hash(x)
        # hash(Fraction(x, d)) by the numeric hash rule, without the Fraction
        try:
            h = hash(hash(abs(x)) * pow(d, -1, _HASH_MODULUS))
        except ValueError:
            h = sys.hash_info.inf
        h = h if x >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(self):
        return self._x != 0 or self._y != 0

    def to_complex(self) -> complex:
        try:
            return complex(self._x / self._d, self._y / self._d)
        except OverflowError:
            raise InputError("an exact coefficient is out of the float range") from None

    def sqrt_exact(self):
        """Principal square root if it lies in Q(i), else None.

        The root of (x + y*i)/d is w/d for w the root of the Gaussian
        integer (x + y*i)*d, which lies in Z[i] if it lies in Q(i).
        """
        d = self._d
        a, b = self._x * d, self._y * d
        m = _exact_isqrt(a * a + b * b)
        if m is None or (m + a) % 2:
            return None
        p = _exact_isqrt((m + a) // 2)
        if p is None:
            return None
        if p:
            return _make(p, b // (2 * p), d)
        q = _exact_isqrt(m)  # the value is -m/d^2
        return None if q is None else _make(0, q, d)


def is_exact(x) -> bool:
    return isinstance(x, QQi)


def as_scalar(x):
    """Normalize ints, Fractions, strings, tuples, and complexes to QQi or complex."""
    try:
        if isinstance(x, QQi) or type(x) is complex:
            return x
        if isinstance(x, (int, Fraction, str)):
            return QQi(x)
        if isinstance(x, float):
            return complex(x, 0.0)
        if isinstance(x, tuple) and len(x) == 2:
            return QQi(x[0], x[1])
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad scalar {x!r}: {exc}") from None
    raise InputError(f"not a scalar: {x!r}")


def conj(x):
    return x.conjugate()


def to_complex(x) -> complex:
    return x.to_complex() if isinstance(x, QQi) else complex(x)


def rand_qqi(rng) -> QQi:
    """A random nonzero QQi whose parts have numerators in [-9, 9] and
    denominators in [1, 9], redrawn until nonzero."""
    while True:
        c = QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if c != 0:
            return c


def principal_sqrt(x):
    """Principal square root, exact in Q(i) when possible, float otherwise."""
    if isinstance(x, QQi):
        r = x.sqrt_exact()
        if r is not None:
            return r
        return cmath.sqrt(x.to_complex())
    return cmath.sqrt(complex(x))


def scalar_to_json(x):
    if isinstance(x, QQi):
        re, im = x.re, x.im
        if any(map(_too_long, (re.numerator, re.denominator, im.numerator, im.denominator))):
            raise InputError(f"a computed scalar has more than {MAX_DECIMAL_EXPONENT} digits")
        return {"re": str(re), "im": str(im)}
    return {"re": repr(x.real), "im": repr(x.imag), "float": True}


def scalar_from_json(d):
    try:
        if isinstance(d, dict) and d.get("float"):
            z = complex(float(d["re"]), float(d["im"]))
            if not cmath.isfinite(z):
                raise ValueError("a float scalar must be finite")
            return z
        return QQi(d["re"], d.get("im", 0))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad scalar {d!r}: {exc}") from None
