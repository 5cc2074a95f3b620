import cmath
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invsemi.errors import InputError
from invsemi.scalars import (
    MAX_DECIMAL_EXPONENT,
    QQi,
    _LIMIT_BITS,
    as_scalar,
    conj,
    is_exact,
    principal_sqrt,
    scalar_from_json,
    scalar_to_json,
    to_complex,
)
from util import FractionQQi, abs2, rand_qqi, rand_qqi_nonzero, rand_square_qqi


def test_qqi_arithmetic_matches_complex():
    rng = random.Random(7)
    for _ in range(300):
        a, b = rand_qqi(rng), rand_qqi(rng)
        za, zb = to_complex(a), to_complex(b)
        assert cmath.isclose(to_complex(a + b), za + zb, abs_tol=1e-12)
        assert cmath.isclose(to_complex(a - b), za - zb, abs_tol=1e-12)
        assert cmath.isclose(to_complex(a * b), za * zb, abs_tol=1e-12)
        if b != 0:
            assert cmath.isclose(to_complex(a / b), za / zb, abs_tol=1e-9)
        assert to_complex(a.conjugate()) == za.conjugate()
        assert cmath.isclose(to_complex(abs2(a)), abs(za) ** 2, abs_tol=1e-9)


def test_qqi_equality_and_mixing():
    assert QQi(2) == 2
    assert QQi(Fraction(1, 2)) == Fraction(1, 2)
    assert QQi(0, 1) != 1
    assert QQi(3, 0) == 3 + 0j
    # mixing with a float degrades to complex, never errors
    mixed = QQi(1, 1) + 0.5
    assert isinstance(mixed, complex)
    assert mixed == 1.5 + 1j


def test_as_scalar_forms():
    assert as_scalar("3/4") == QQi(Fraction(3, 4))
    assert as_scalar(("1/2", "-2")) == QQi(Fraction(1, 2), Fraction(-2))
    assert as_scalar(5) == QQi(5)
    assert as_scalar(QQi(1, 2)) == QQi(1, 2)
    assert as_scalar(1 + 2j) == 1 + 2j
    assert is_exact(as_scalar("3/4"))
    assert not is_exact(as_scalar(0.25))
    with pytest.raises(InputError):
        as_scalar("not a number")


def test_conj_on_both_modes():
    assert conj(QQi(1, 2)) == QQi(1, -2)
    assert conj(2 + 3j) == 2 - 3j


def test_sqrt_exact_on_random_squares():
    rng = random.Random(11)
    for _ in range(200):
        mu = rand_qqi_nonzero(rng)
        sq = mu * mu
        root = sq.sqrt_exact()
        assert root is not None
        assert isinstance(root, QQi)
        assert root * root == sq
        # principal branch: nonnegative real part, and positive imaginary
        # part on the negative real axis
        assert root.re > 0 or (root.re == 0 and root.im >= 0)


def test_sqrt_exact_rejects_non_squares():
    assert QQi(2).sqrt_exact() is None
    assert QQi(0, 1).sqrt_exact() is None  # sqrt(i) leaves Q(i)
    assert QQi(-1).sqrt_exact() == QQi(0, 1)
    assert QQi(Fraction(9, 4)).sqrt_exact() == QQi(Fraction(3, 2))


def test_principal_sqrt_falls_back_to_float():
    r = principal_sqrt(QQi(2))
    assert isinstance(r, complex)
    assert cmath.isclose(r * r, 2, abs_tol=1e-12)
    rng = random.Random(3)
    for _ in range(100):
        sq = rand_square_qqi(rng)
        r = principal_sqrt(sq)
        assert isinstance(r, QQi) and r * r == sq


def test_scalar_json_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        x = rand_qqi(rng)
        back = scalar_from_json(scalar_to_json(x))
        assert back == x and is_exact(back)
    y = scalar_from_json(scalar_to_json(0.5 + 0.25j))
    assert y == 0.5 + 0.25j and not is_exact(y)


def test_bool_is_not_a_scalar():
    for args in ((True,), (1, False)):
        with pytest.raises(TypeError):
            QQi(*args)
    with pytest.raises(InputError, match="bad scalar"):
        as_scalar(True)
    for bad in ({"re": True}, {"re": "1", "im": False}):
        with pytest.raises(InputError, match="bad scalar"):
            scalar_from_json(bad)


def test_decimal_exponent_is_capped():
    assert MAX_DECIMAL_EXPONENT == 4300
    for text in ("1e4301", "1e-4301", "-2.5E+4301", "1e4_301", "1e99999999999999999999"):
        with pytest.raises(InputError, match="bad scalar"):
            as_scalar(text)
        with pytest.raises(InputError, match="bad scalar"):
            scalar_from_json({"re": "0", "im": text})
    # an exponent of 4300 passes this cap, and the digit cap below decides
    assert as_scalar("9e4299") == QQi(9 * 10 ** 4299)
    assert scalar_from_json({"re": "1e-4299"}) == QQi(Fraction(1, 10 ** 4299))


def test_parsed_digits_are_capped():
    """A string whose numerator or denominator would pass 4300 digits is a
    bad scalar, so every parsed scalar prints; the cap reads bit lengths."""
    assert (10 ** MAX_DECIMAL_EXPONENT).bit_length() == _LIMIT_BITS
    for text in ("1e4300", "-1e4300", "1e-4300", "0.5e-4300", "1.5e4300", "1/1e4300"):
        with pytest.raises(InputError, match="bad scalar"):
            as_scalar(text)
        with pytest.raises(InputError, match="bad scalar"):
            scalar_from_json({"re": "0", "im": text})
    # 10**4300 - 1 shares its bit length with 10**4300; 2**14284 has one bit less
    for n in (10 ** 4300 - 1, -(10 ** 4300 - 1), 2 ** (_LIMIT_BITS - 1)):
        text = str(n)
        assert as_scalar(text) == QQi(n) and as_scalar(f"1/{abs(n)}") == QQi(Fraction(1, abs(n)))
        assert scalar_to_json(as_scalar(text)) == {"re": text, "im": "0"}


# -- the integer QQi against the Fraction-pair oracle -------------------------

BIG = 2 ** 80
plain = st.one_of(st.just(0), st.integers(-BIG, BIG),
                  st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
texts = st.one_of(st.builds(str, plain),
                  st.builds("{}.{}e{}".format, st.integers(-10 ** 6, 10 ** 6),
                            st.integers(0, 10 ** 6), st.integers(-40, 40)))
parts = st.tuples(st.one_of(plain, texts), st.one_of(plain, texts))


def outcome(fn):
    """(value, None), or (None, the exception type) for an expected failure."""
    try:
        return fn(), None
    except (ZeroDivisionError, TypeError, InputError) as exc:
        return None, type(exc)


def bits(z):
    return z.real.hex(), z.imag.hex()


def assert_canonical(q):
    x, y, d = q._x, q._y, q._d
    assert type(x) is int and type(y) is int and type(d) is int
    assert d > 0 and math.gcd(x, y, d) == 1


def assert_agrees(q, o):
    """q is a canonical QQi with the value, text, hash and floats of o."""
    assert isinstance(q, QQi) and isinstance(o, FractionQQi)
    assert_canonical(q)
    assert (q.re, q.im) == (o.re, o.im)
    assert (str(q), repr(q)) == (str(o), repr(o))
    assert scalar_to_json(q) == {"re": str(o.re), "im": str(o.im)}
    back = scalar_from_json(scalar_to_json(q))
    assert back == q
    assert_canonical(back)
    assert bool(q) == bool(o)
    if o.im == 0:
        real = o.re.numerator if o.re.denominator == 1 else o.re
        assert hash(q) == hash(real) == hash(o.re) == hash(o)
        assert {real: 1}[q] == {o.re: 1}[q] == {q: 1}[real] == {q: 1}[o.re] == 1
    z, err = outcome(q.to_complex)
    want, want_err = outcome(o.to_complex)
    assert err is want_err and (err or bits(z) == bits(want))


def assert_same_outcome(got, want):
    (value, err), (want_value, want_err) = got, want
    assert err is want_err
    if err is None:
        if isinstance(want_value, FractionQQi):
            assert_agrees(value, want_value)
        else:
            assert bits(value) == bits(want_value)


OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


@settings(max_examples=150)
@given(parts, parts, plain)
@example(("0", 0), (0, "1/2"), 0)
@example((3, -4), (0, 0), Fraction(-7, 5))
def test_qqi_matches_the_fraction_pair_oracle(a, b, c):
    x, ox, y, oy = QQi(*a), FractionQQi(*a), QQi(*b), FractionQQi(*b)
    assert_agrees(x, ox)
    assert_agrees(y, oy)
    z = complex(c, 1)
    for op in OPERATORS:
        assert_same_outcome(outcome(lambda: op(x, y)), outcome(lambda: op(ox, oy)))
        for other in (c, z):
            assert_same_outcome(outcome(lambda: op(x, other)), outcome(lambda: op(ox, other)))
            assert_same_outcome(outcome(lambda: op(other, x)), outcome(lambda: op(other, ox)))
    assert_agrees(-x, -ox)
    assert_agrees(x.conjugate(), ox.conjugate())
    assert abs2(x) == ox.abs2() and type(abs2(x)) is Fraction
    for q, o in ((x, ox), (x * x, ox * ox), (x * y, ox * oy)):
        root, want = q.sqrt_exact(), o.sqrt_exact()
        assert (root is None) == (want is None)
        if root is not None:
            assert_agrees(root, want)
    assert (x == y) == (ox == oy) and (x != y) == (ox != oy)
    for other in (c, int(c), z, x.to_complex()):
        assert (x == other) == (ox == other)


HUGE = 2 ** 1100


@settings(max_examples=60)
@given(st.integers(-HUGE, HUGE), st.integers(-HUGE, HUGE), st.integers(1, BIG))
@example(2 ** 1024 - 2 ** 970, 0, 1)
@example(2 ** 1024 - 2 ** 971, 2 ** 1024 - 2 ** 970 - 1, 1)
@example(2 ** 1100, 0, 2 ** 76)
@example(1, -(2 ** 1100), 2 ** 80)
def test_to_complex_matches_the_oracle_bit_for_bit(x, y, d):
    assert_agrees(QQi(Fraction(x, d), Fraction(y, d)), FractionQQi(Fraction(x, d), Fraction(y, d)))
