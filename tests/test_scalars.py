import cmath
import random
from fractions import Fraction

import pytest

from invsemi.errors import InputError
from invsemi.scalars import (
    QQi,
    as_scalar,
    conj,
    is_exact,
    principal_sqrt,
    scalar_from_json,
    scalar_to_json,
    to_complex,
)
from util import rand_qqi, rand_qqi_nonzero, rand_square_qqi


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
        assert cmath.isclose(to_complex(a.abs2()), abs(za) ** 2, abs_tol=1e-9)


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
