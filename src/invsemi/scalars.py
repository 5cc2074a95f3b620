"""Exact complex scalars with rational real and imaginary parts.

QQi is the exact mode used for every identity assertion. Mixing a QQi with a
python complex falls through to float mode, so truncation numerics embed the
exact values without a separate conversion layer.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import InputError


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def frac_sqrt(q: Fraction):
    """Exact nonnegative square root of a Fraction, or None."""
    if q < 0:
        return None
    pn, qd = q.numerator, q.denominator
    rn, rd = math.isqrt(pn), math.isqrt(qd)
    if rn * rn == pn and rd * rd == qd:
        return Fraction(rn, rd)
    return None


class QQi:
    """Complex number a + b*i with a, b exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    def __repr__(self):
        return f"QQi({self.re!s}, {self.im!s})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QQi):
            return other
        if isinstance(other, (int, Fraction)):
            return QQi(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return self.to_complex() + other
            return NotImplemented
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return self.to_complex() - other
            return NotImplemented
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return self.to_complex() * other
            return NotImplemented
        return QQi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return self.to_complex() / other
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero QQi")
        return QQi((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def conjugate(self):
        return QQi(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    # -- predicates and conversions -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, QQi):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return self.to_complex() == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def to_complex(self) -> complex:
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            raise InputError("an exact coefficient is out of the float range") from None

    def sqrt_exact(self):
        """Principal square root if it lies in Q(i), else None."""
        a, b = self.re, self.im
        if b == 0:
            if a >= 0:
                r = frac_sqrt(a)
                return None if r is None else QQi(r, 0)
            r = frac_sqrt(-a)
            return None if r is None else QQi(0, r)
        m = frac_sqrt(a * a + b * b)
        if m is None:
            return None
        c = frac_sqrt((m + a) / 2)
        if c is None or c == 0:
            return None
        return QQi(c, b / (2 * c))


def is_exact(x) -> bool:
    return isinstance(x, QQi)


def as_scalar(x):
    """Normalize ints, Fractions, strings, tuples, and complexes to QQi or complex."""
    try:
        if isinstance(x, QQi) or type(x) is complex:
            return x
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(x, (int, Fraction, str)):
            return QQi(_as_fraction(x))
        if isinstance(x, float):
            return complex(x, 0.0)
        if isinstance(x, tuple) and len(x) == 2:
            return QQi(_as_fraction(x[0]), _as_fraction(x[1]))
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
        return {"re": str(x.re), "im": str(x.im)}
    return {"re": repr(x.real), "im": repr(x.imag), "float": True}


def scalar_from_json(d):
    try:
        if isinstance(d, dict) and d.get("float"):
            z = complex(float(d["re"]), float(d["im"]))
            if not cmath.isfinite(z):
                raise ValueError("a float scalar must be finite")
            return z
        return QQi(_as_fraction(d["re"]), _as_fraction(d.get("im", 0)))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad scalar {d!r}: {exc}") from None
