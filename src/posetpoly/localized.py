"""Exact arithmetic in the localization of Q[λ] at the prime (1-λ).

A LocalizedRatio is numerator/(1-λ)^pole_order with a UniPoly numerator.
Canonical form: pole_order = 0, or (1-λ) does not divide the numerator.
Divisibility by (1-λ) is exactly "numerator vanishes at λ = 1", and the
cofactor comes out of one synthetic division, so normalization is a loop
of evaluate-and-divide steps.  Arithmetic methods always return normalized
values; construction keeps whatever it is given until normalize() is called.
"""

from __future__ import annotations

from fractions import Fraction

from posetpoly.polynomials import RationalLike, UniPoly, _as_fraction, _coerce

__all__ = ["LocalizedRatio"]


def divide_by_one_minus_lambda(p: UniPoly) -> UniPoly:
    """The exact quotient p/(1-λ); requires p(1) = 0."""
    if p(1) != 0:
        raise ValueError("polynomial is not divisible by (1-λ)")
    # p = (1-λ)q means q = -(p/(λ-1)); synthetic division at the root 1.
    quotient: list[Fraction] = []
    carry = Fraction(0)
    for c in reversed(p.coeffs):
        carry = carry + c
        quotient.append(carry)
    quotient.pop()  # the remainder, already checked zero
    quotient.reverse()
    return UniPoly(tuple(-c for c in quotient))


class LocalizedRatio:
    """An element numerator/(1-λ)^pole_order of Q[λ] localized at (1-λ)."""

    __slots__ = ("numerator", "pole_order")

    numerator: UniPoly
    pole_order: int

    def __init__(self, numerator: UniPoly | RationalLike, pole_order: int = 0) -> None:
        if pole_order < 0:
            raise ValueError("pole order must be nonnegative")
        object.__setattr__(self, "numerator", _coerce(numerator))
        object.__setattr__(self, "pole_order", pole_order)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LocalizedRatio is immutable")

    def normalize(self) -> LocalizedRatio:
        """Cancel every (1-λ) factor shared by numerator and pole."""
        num, pole = self.numerator, self.pole_order
        if not num:
            return LocalizedRatio(num, 0)
        while pole > 0 and num(1) == 0:
            num = divide_by_one_minus_lambda(num)
            pole -= 1
        return LocalizedRatio(num, pole)

    def _key(self) -> tuple[tuple[Fraction, ...], int]:
        norm = self.normalize()
        return (norm.numerator.coeffs, norm.pole_order)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (UniPoly, int, Fraction)):
            other = LocalizedRatio(other)
        if not isinstance(other, LocalizedRatio):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __bool__(self) -> bool:
        return bool(self.numerator)

    def __add__(self, other: LocalizedRatio | UniPoly | RationalLike) -> LocalizedRatio:
        other = _coerce_localized(other)
        pole = max(self.pole_order, other.pole_order)
        lifted_self = self.numerator * _one_minus_lambda_power(pole - self.pole_order)
        lifted_other = other.numerator * _one_minus_lambda_power(pole - other.pole_order)
        return LocalizedRatio(lifted_self + lifted_other, pole).normalize()

    __radd__ = __add__

    def __neg__(self) -> LocalizedRatio:
        return LocalizedRatio(-self.numerator, self.pole_order)

    def __sub__(self, other: LocalizedRatio | UniPoly | RationalLike) -> LocalizedRatio:
        return self + (-_coerce_localized(other))

    def __rsub__(self, other: UniPoly | RationalLike) -> LocalizedRatio:
        return _coerce_localized(other) - self

    def __mul__(self, other: LocalizedRatio | UniPoly | RationalLike) -> LocalizedRatio:
        other = _coerce_localized(other)
        return LocalizedRatio(
            self.numerator * other.numerator, self.pole_order + other.pole_order
        ).normalize()

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> LocalizedRatio:
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        return LocalizedRatio(
            self.numerator**exponent, self.pole_order * exponent
        ).normalize()

    def as_poly(self) -> UniPoly:
        """The underlying polynomial; error if a genuine pole remains."""
        norm = self.normalize()
        if norm.pole_order != 0:
            raise ValueError("value has a pole at λ = 1, not a polynomial")
        return norm.numerator

    def __call__(self, point: RationalLike) -> Fraction:
        """Evaluate at λ = point, which must not be 1."""
        x = _as_fraction(point)
        if x == 1:
            raise ZeroDivisionError("evaluation at the pole λ = 1")
        return self.numerator(x) / (1 - x) ** self.pole_order

    def __repr__(self) -> str:
        return f"LocalizedRatio({self.numerator!r}, {self.pole_order})"

    def __str__(self) -> str:
        return self.render()

    def render(self, var: str = "λ") -> str:
        num = self.numerator.render(var)
        if self.pole_order == 0:
            return num
        denom = f"(1 - {var})"
        if self.pole_order > 1:
            denom += f"^{self.pole_order}"
        return f"({num}) / {denom}"


def _one_minus_lambda_power(k: int) -> UniPoly:
    return UniPoly((1, -1)) ** k


def _coerce_localized(value: LocalizedRatio | UniPoly | RationalLike) -> LocalizedRatio:
    if isinstance(value, LocalizedRatio):
        return value
    return LocalizedRatio(value)

