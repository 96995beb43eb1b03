import random
from fractions import Fraction as Fr

import pytest

from posetpoly.localized import LocalizedRatio, divide_by_one_minus_lambda
from posetpoly.polynomials import UniPoly

LAM = UniPoly([0, 1])
ONE_MINUS = UniPoly([1, -1])


def test_exact_division():
    assert divide_by_one_minus_lambda(ONE_MINUS) == UniPoly([1])
    assert divide_by_one_minus_lambda(LAM * ONE_MINUS) == LAM
    assert divide_by_one_minus_lambda(ONE_MINUS**3) == ONE_MINUS**2


def test_division_rejects_nondivisible():
    with pytest.raises(ValueError):
        divide_by_one_minus_lambda(LAM)


def test_normalize_cancels_shared_factor():
    # (1-λ)λ/(1-λ)^2 → λ/(1-λ)
    r = LocalizedRatio(ONE_MINUS * LAM, 2).normalize()
    assert r.numerator == LAM
    assert r.pole_order == 1


def test_normalize_idempotent():
    rng = random.Random(314159)
    for _ in range(30):
        num = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        r = LocalizedRatio(num * ONE_MINUS ** rng.randint(0, 3), rng.randint(0, 4))
        once = r.normalize()
        assert once.normalize() == once
        assert once.pole_order == 0 or once.numerator(1) != 0


def test_add_example():
    # 1/(1-λ) + λ/(1-λ) = (1+λ)/(1-λ), no common factor left
    r = LocalizedRatio(UniPoly([1]), 1) + LocalizedRatio(LAM, 1)
    assert r.numerator == UniPoly([1, 1])
    assert r.pole_order == 1


def test_mul_example():
    # λ/(1-λ) · (1-λ) = λ with pole order 0
    r = LocalizedRatio(LAM, 1) * LocalizedRatio(ONE_MINUS, 0)
    assert r.numerator == LAM
    assert r.pole_order == 0


def test_arithmetic_returns_canonical_forms():
    rng = random.Random(2718)
    for _ in range(30):
        a = LocalizedRatio(
            UniPoly([rng.randint(-3, 3) for _ in range(3)]), rng.randint(0, 3)
        )
        b = LocalizedRatio(
            UniPoly([rng.randint(-3, 3) for _ in range(3)]), rng.randint(0, 3)
        )
        for r in (a + b, a * b, a - b):
            assert r == r.normalize()
            assert r.pole_order == 0 or r.numerator(1) != 0


def test_equality_across_representations():
    assert LocalizedRatio(LAM * ONE_MINUS, 2) == LocalizedRatio(LAM, 1)
    assert LocalizedRatio(UniPoly([1]), 0) == 1
    assert LocalizedRatio(ONE_MINUS, 1) == 1


def test_evaluation_matches_rational_function():
    r = LocalizedRatio(UniPoly([0, 1, 1]), 2)  # (λ+λ²)/(1-λ)²
    lam = Fr(1, 3)
    assert r(lam) == (lam + lam**2) / (1 - lam) ** 2
    with pytest.raises(ZeroDivisionError):
        r(1)


def test_as_poly():
    assert LocalizedRatio(LAM * ONE_MINUS, 1).as_poly() == LAM
    with pytest.raises(ValueError):
        LocalizedRatio(LAM, 1).as_poly()


def test_addition_agrees_with_pointwise():
    rng = random.Random(1618)
    for _ in range(25):
        a = LocalizedRatio(UniPoly([rng.randint(-4, 4) for _ in range(4)]), rng.randint(0, 3))
        b = LocalizedRatio(UniPoly([rng.randint(-4, 4) for _ in range(4)]), rng.randint(0, 3))
        x = Fr(rng.randint(2, 9), 1)
        assert (a + b)(x) == a(x) + b(x)
        assert (a * b)(x) == a(x) * b(x)
        assert (a - b)(x) == a(x) - b(x)


def test_render():
    assert LocalizedRatio(LAM, 1).render() == "(λ) / (1 - λ)"
    assert LocalizedRatio(UniPoly([0, 1, 1]), 3).render() == "(λ^2 + λ) / (1 - λ)^3"
    assert LocalizedRatio(LAM, 0).render() == "λ"


def test_immutability():
    r = LocalizedRatio(LAM, 1)
    with pytest.raises(AttributeError):
        r.pole_order = 0  # type: ignore[misc]


def test_pow():
    r = LocalizedRatio(LAM, 1)
    assert r**0 == LocalizedRatio(UniPoly([1]), 0)
    assert r**3 == LocalizedRatio(LAM * LAM * LAM, 3)
    assert (r**2)(Fr(3)) == r(Fr(3)) ** 2
    with pytest.raises(ValueError):
        r**-1
