"""Dense univariate polynomials over exact rationals.

Coefficients are stored ascending (``coeffs[k]`` multiplies ``t^k``) as a
tuple of Fraction with trailing zeros stripped, so equal polynomials compare
equal and hash equal.  The zero polynomial is the empty tuple and reports
degree -1.  Degrees stay tiny here (bounded by the poset sizes involved),
so nothing sparse is needed.

Besides ring arithmetic the module carries the finite-difference calculus
used by every invariant downstream: the forward difference
(delta f)(t) = f(t+1) - f(t), its inverse pinned by g(0) = 0, the backward
pair nabla / nabla_inverse, and exact Lagrange interpolation.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Iterable, Sequence

__all__ = [
    "UniPoly",
    "binomial_poly",
    "delta",
    "delta_inverse",
    "from_binomial_basis",
    "nabla",
    "nabla_inverse",
    "lagrange_interpolate",
]

RationalLike = int | Fraction


# Integers up to _SMALL in size share one Fraction each.  Nearly every
# integral coefficient is that small: on the benchmark's deep-recursion and
# catalog-sweep streams 97.5% and 98.9% of the integers converted here, and
# 94% of the e coefficients and all qsym coefficients kept in deep-recursion
# answers.  A bound of 1024 would catch 99.98% for a table four times the
# size (about 100 KB instead of 25 KB).
_SMALL = 256
_SMALL_INTEGERS = tuple(Fraction(k) for k in range(-_SMALL, _SMALL + 1))


def _as_fraction(value: RationalLike) -> Fraction:
    """value as a Fraction; the integers up to _SMALL in size share one
    immutable Fraction each, so the integer coefficients of many results
    cost no memory of their own."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        if -_SMALL <= value <= _SMALL:
            return _SMALL_INTEGERS[value + _SMALL]
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class _SharedFractions:
    """One object for each of the first `bound` distinct fractions asked
    for; a later value is a Fraction of its own, and the table is never
    emptied."""

    __slots__ = ("bound", "size", "by_denominator")

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.size = 0
        self.by_denominator: dict[int, dict[int, Fraction]] = {}

    def get(self, numerator: int, denominator: int) -> Fraction:
        """numerator/denominator, given in lowest terms with denominator > 1:
        the table's object for that value, admitted if there is room."""
        by_numerator = self.by_denominator.get(denominator)
        shared = None if by_numerator is None else by_numerator.get(numerator)
        if shared is None:
            shared = Fraction(numerator, denominator)
            if self.size < self.bound:
                self.by_denominator.setdefault(denominator, {})[shared.numerator] = shared
                self.size += 1
        return shared


# One object per fractional coefficient value that from_binomial_basis
# makes, for the first 16,384 distinct values, so answers kept by a
# caller share them.  Order polynomials of posets of one shape repeat their
# coefficients: 9,400 deep-recursion queries (seed 2511; Omega and the weak
# polynomial of 8-10 points) make 161,658 fractional coefficients with
# 24,980 values, and the table, full after 4,523 queries, leaves 27,245
# objects.  A value is looked up in lowest terms by denominator, then
# numerator, so a hit builds no tuple and no Fraction.  Full, the table
# holds about 2.3 MB; a bound of 65,536 shared no more on that stream.
_SHARED_FRACTIONS = _SharedFractions(16384)


class UniPoly:
    """A univariate polynomial with Fraction coefficients, immutable."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RationalLike] = ()) -> None:
        items = [_as_fraction(c) for c in coeffs]
        while items and items[-1] == 0:
            items.pop()
        object.__setattr__(self, "coeffs", tuple(items))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def constant(cls, value: RationalLike) -> UniPoly:
        return cls((value,))

    @classmethod
    def variable(cls) -> UniPoly:
        """The polynomial t."""
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: UniPoly | RationalLike) -> UniPoly:
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for k, c in enumerate(b):
            summed[k] += c
        return UniPoly(summed)

    __radd__ = __add__

    def __neg__(self) -> UniPoly:
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: UniPoly | RationalLike) -> UniPoly:
        return self + (-_coerce(other))

    def __rsub__(self, other: RationalLike) -> UniPoly:
        return _coerce(other) - self

    def __mul__(self, other: UniPoly | RationalLike) -> UniPoly:
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        prod = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        return UniPoly(prod)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> UniPoly:
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = UniPoly((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, point: RationalLike) -> Fraction:
        """Evaluate by Horner's rule."""
        x = _as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, offset: RationalLike) -> UniPoly:
        """The composed polynomial p(t + offset)."""
        step = UniPoly((_as_fraction(offset), Fraction(1)))
        acc = UniPoly()
        for c in reversed(self.coeffs):
            acc = acc * step + c
        return acc

    def reflect(self) -> UniPoly:
        """The composed polynomial p(-t)."""
        return UniPoly(tuple(-c if k % 2 else c for k, c in enumerate(self.coeffs)))

    def derivative(self) -> UniPoly:
        return UniPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def integral(self) -> UniPoly:
        """Antiderivative with zero constant term."""
        return UniPoly((Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(self.coeffs)))

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return self.render()

    def render(self, var: str = "t") -> str:
        """Human form, descending powers: '1/2·t^2 + 1/2·t'."""
        if not self.coeffs:
            return "0"
        parts: list[tuple[str, str]] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                power = var if k == 1 else f"{var}^{k}"
                body = power if mag == 1 else f"{mag}·{power}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def _coerce(value: UniPoly | RationalLike) -> UniPoly:
    if isinstance(value, UniPoly):
        return value
    return UniPoly((value,))


def binomial_poly(k: int) -> UniPoly:
    """The binomial coefficient polynomial C(t, k) = t(t-1)...(t-k+1)/k!."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    prod = UniPoly((1,))
    for j in range(k):
        prod = prod * UniPoly((-j, 1))
    return prod * Fraction(1, factorial(k))


def from_binomial_basis(coords: Sequence[int]) -> UniPoly:
    """The polynomial sum_k coords[k]·C(t,k) from integer coordinates.

    C(t,k) = t(t-1)...(t-k+1)/k!, so over the common denominator d! (d the
    last index) every numerator is an integer; Fractions appear only in the
    returned coefficients.
    """
    d = len(coords) - 1
    numerators = [0] * (d + 1)
    falling = [1]  # ascending coefficients of t(t-1)...(t-k+1)
    den = scale = factorial(max(d, 0))  # scale is d!/k!
    for k, c in enumerate(coords):
        if k:
            falling = [0, *falling]
            for j in range(k):
                falling[j] -= (k - 1) * falling[j + 1]
            scale //= k
        if c:
            for j, f in enumerate(falling):
                numerators[j] += c * scale * f
    coefficients: list[RationalLike] = []
    for x in numerators:
        g = gcd(x, den)
        # an integral coefficient goes in as an int, to share _SMALL_INTEGERS
        coefficients.append(x // den if g == den else _SHARED_FRACTIONS.get(x // g, den // g))
    return UniPoly(coefficients)


def delta(p: UniPoly) -> UniPoly:
    """Forward difference p(t+1) - p(t)."""
    return p.shift(1) - p


def delta_inverse(p: UniPoly) -> UniPoly:
    """The unique g with delta(g) = p and g(0) = 0.

    Works in the binomial basis: Newton's forward formula writes
    p = sum_k beta_k C(t,k) with beta_k the k-th forward difference of p
    at 0, and delta C(t,k+1) = C(t,k), so g = sum_k beta_k C(t,k+1).
    Every C(t,k+1) vanishes at 0, so the pinning is structural.
    """
    d = max(p.degree, 0)
    table = [p(j) for j in range(d + 1)]
    g = UniPoly()
    for k in range(d + 1):
        g = g + table[0] * binomial_poly(k + 1)
        table = [table[j + 1] - table[j] for j in range(len(table) - 1)]
    return g


def nabla(p: UniPoly) -> UniPoly:
    """Backward difference p(t) - p(t-1)."""
    return p - p.shift(-1)


def nabla_inverse(p: UniPoly) -> UniPoly:
    """The unique g with nabla(g) = p and g(0) = 0.

    Reduces to delta_inverse by reflection: if h solves
    (delta h)(u) = -p(-u) with h(0) = 0, then g(t) = h(-t).
    """
    return delta_inverse(-p.reflect()).reflect()


def lagrange_interpolate(points: Sequence[tuple[RationalLike, RationalLike]]) -> UniPoly:
    """The unique polynomial of degree < len(points) through the given points.

    Newton's divided differences, then Horner's rule on the Newton form
    c_0 + (t - x_0)(c_1 + (t - x_1)(c_2 + ...)): O(n^2) exact Fraction
    operations for n points.  It shares no code with from_binomial_basis,
    so the brute-force oracle that interpolates through it stays
    independent of the recursion it checks.
    """
    xs = [_as_fraction(x) for x, _ in points]
    coef = [_as_fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissa in interpolation points")
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly: list[Fraction] = []  # ascending coefficients
    for k in range(n - 1, -1, -1):
        # poly <- poly·(t - x_k) + c_k
        shifted = [coef[k], *poly]
        for i, c in enumerate(poly):
            shifted[i] -= xs[k] * c
        poly = shifted
    return UniPoly(poly)
