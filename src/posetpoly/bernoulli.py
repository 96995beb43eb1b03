"""Bernoulli numbers three ways, with strictly labeled shrubs in the middle.

The oracle is the generating-function recurrence
sum_{k=0}^{n} C(n+1, k) b_k = 0 (b_0 = 1), computed before anything else
is trusted; the Bernoulli polynomials follow as B_n = sum C(n,k) b_k t^(n-k).

The poset route: on the shrub S_n under a strict labeling, the invariant
phi collapses to b_n, and the order polynomial is the antiderivative of
B_n.  The combinatorial route evaluates the alternating multinomial sum
over compositions that the shrub's path counts expand into.  All three
must agree exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterator

from posetpoly import stats
from posetpoly.invariants import order_poly_recursive, phi
from posetpoly.omegagraph import build_omega_graph, count_paths
from posetpoly.polynomials import UniPoly
from posetpoly.posets import LabeledPoset, make_shrub, reversed_labeling

__all__ = [
    "BernoulliTable",
    "bernoulli_numbers_oracle",
    "bernoulli_from_shrub",
    "bernoulli_multinomial",
    "bernoulli_integer_numerator",
    "shrub_order_poly_check",
    "shrub_path_count_check",
    "composition_sum_check",
    "strict_shrub",
    "compositions",
]


class BernoulliTable:
    """b[n] and B[n] for n = 0..N, from the recurrence alone."""

    __slots__ = ("b", "B")

    def __init__(self, highest: int) -> None:
        if highest < 0:
            raise ValueError("highest index must be nonnegative")
        numbers = [Fraction(1)]
        for n in range(1, highest + 1):
            acc = sum(comb(n + 1, k) * numbers[k] for k in range(n))
            numbers.append(Fraction(-acc, n + 1))
        self.b = tuple(numbers)
        self.B = tuple(
            UniPoly([numbers[n - k] * comb(n, n - k) for k in range(n + 1)])
            for n in range(highest + 1)
        )


@lru_cache(maxsize=8)
def bernoulli_numbers_oracle(highest: int) -> BernoulliTable:
    """The table up to highest, kept for the last 8 values asked: the
    wide-lattice benchmark reads 4 sizes and `posetpoly check` one, so 8
    holds them all while bounding what other sizes can add."""
    return BernoulliTable(highest)


def strict_shrub(n: int) -> LabeledPoset:
    p = make_shrub(n)
    return LabeledPoset(p, reversed_labeling(p))


def bernoulli_from_shrub(n: int) -> Fraction:
    """phi of the strictly labeled shrub with n leaves."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return phi(strict_shrub(n))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write total as an ordered sum of parts positive integers."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial(parts: tuple[int, ...]) -> int:
    value = factorial(sum(parts))
    for part in parts:
        value //= factorial(part)
    return value


def bernoulli_multinomial(n: int) -> Fraction:
    """The alternating composition sum
    sum_k (-1)^k/(k+1) * sum over compositions of n into k parts of the
    multinomial coefficient.  It visits all 2^(n-1) compositions of n,
    charged to the compositions budget."""
    if n < 1:
        raise ValueError("n must be at least 1")
    stats.charge(
        "compositions",
        2 ** (n - 1),
        lambda b: f"b_{n} sums over 2^{n - 1} compositions, over the enumeration budget {b}^{b}",
    )
    total = Fraction(0)
    for k in range(1, n + 1):
        inner = sum(_multinomial(c) for c in compositions(n, k))
        total += Fraction((-1) ** k * inner, k + 1)
    return total


def bernoulli_integer_numerator(n: int) -> int:
    """(n+1)!·b_n, which the composition sum forces to be an integer."""
    scaled = bernoulli_multinomial(n) * factorial(n + 1)
    if scaled.denominator != 1:
        raise ArithmeticError(f"(n+1)!·b_{n} came out non-integral: {scaled}")
    return scaled.numerator


def shrub_order_poly_check(n: int) -> bool:
    """Order polynomial of the strict shrub equals the integral of B_n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    table = bernoulli_numbers_oracle(n)
    return order_poly_recursive(strict_shrub(n)) == table.B[n].integral()


def shrub_path_count_check(n: int) -> bool:
    """Strict-shrub path counts: c_1 = 0 and c_k sums multinomials over
    compositions of n into k-1 parts."""
    if n < 1:
        raise ValueError("n must be at least 1")
    counts = count_paths(build_omega_graph(strict_shrub(n))).c
    if counts[1] != 0:
        return False
    for k in range(2, n + 2):
        expected = sum(_multinomial(c) for c in compositions(n, k - 1))
        if counts[k] != expected:
            return False
    return True


def composition_sum_check(n: int) -> bool:
    """Both composition sums agree, and n! times the factorial-shifted one
    is the Bernoulli number."""
    if n < 1:
        raise ValueError("n must be at least 1")
    plain = Fraction(0)
    shifted = Fraction(0)
    for k in range(1, n + 1):
        for c in compositions(n, k):
            denom_plain = 1
            denom_shifted = 1
            for part in c:
                denom_plain *= factorial(part)
                denom_shifted *= factorial(part + 1)
            plain += Fraction((-1) ** k, (k + 1) * denom_plain)
            shifted += Fraction((-1) ** k, denom_shifted)
    oracle = bernoulli_numbers_oracle(n).b[n]
    return plain == shifted and factorial(n) * shifted == oracle
