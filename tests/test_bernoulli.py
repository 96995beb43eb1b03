from fractions import Fraction
from math import comb, factorial

import pytest

from posetpoly.bernoulli import (
    BernoulliTable,
    bernoulli_from_shrub,
    bernoulli_integer_numerator,
    bernoulli_multinomial,
    bernoulli_numbers_oracle,
    compositions,
    composition_sum_check,
    shrub_order_poly_check,
    shrub_path_count_check,
    strict_shrub,
)
from posetpoly.invariants import order_poly_recursive
from posetpoly.omegagraph import build_omega_graph, count_paths
from posetpoly.polynomials import UniPoly
from posetpoly.posets import ORACLE_BOUND_ENV

FIRST_NUMBERS = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
]


def test_oracle_numbers():
    table = bernoulli_numbers_oracle(8)
    assert list(table.b) == FIRST_NUMBERS


def test_oracle_polynomials():
    table = bernoulli_numbers_oracle(2)
    assert table.B[0] == UniPoly([1])
    assert table.B[1] == UniPoly([Fraction(-1, 2), 1])
    assert table.B[2] == UniPoly([Fraction(1, 6), -1, 1])


def test_polynomial_structure():
    table = bernoulli_numbers_oracle(12)
    for n in range(1, 13):
        poly = table.B[n]
        assert poly(0) == table.b[n]
        assert poly.derivative() == n * table.B[n - 1]
        # integral over [0, 1] vanishes from n = 1 on
        assert poly.integral()(1) == 0


def test_table_rejects_negative():
    with pytest.raises(ValueError):
        BernoulliTable(-1)


def test_shrub_invariant_is_bernoulli():
    table = bernoulli_numbers_oracle(8)
    for n in range(1, 9):
        assert bernoulli_from_shrub(n) == table.b[n]


def test_shrub_requires_positive_leaf_count():
    with pytest.raises(ValueError):
        bernoulli_from_shrub(0)


def test_multinomial_sum_matches_oracle():
    table = bernoulli_numbers_oracle(10)
    assert bernoulli_multinomial(1) == Fraction(-1, 2)
    assert bernoulli_multinomial(2) == Fraction(1, 6)
    assert bernoulli_multinomial(3) == 0
    for n in range(1, 11):
        assert bernoulli_multinomial(n) == table.b[n]


def test_multinomial_sum_refuses_compositions_over_the_budget(monkeypatch):
    # b_n sums over 2^(n-1) compositions; at B = 2 the budget is 2^2
    monkeypatch.setenv(ORACLE_BOUND_ENV, "2")
    assert bernoulli_multinomial(3) == 0
    with pytest.raises(ValueError, match=ORACLE_BOUND_ENV):
        bernoulli_multinomial(4)


def test_scaled_numbers_are_integers():
    table = bernoulli_numbers_oracle(12)
    for n in range(1, 13):
        scaled = bernoulli_integer_numerator(n)
        assert isinstance(scaled, int)
        assert scaled == table.b[n] * factorial(n + 1)


def test_shrub_order_poly_is_antiderivative():
    # one leaf: the strictly labeled two-chain, order polynomial t(t-1)/2
    assert order_poly_recursive(strict_shrub(1)) == UniPoly([0, Fraction(-1, 2), Fraction(1, 2)])
    for n in range(1, 7):
        assert shrub_order_poly_check(n)


def test_shrub_path_counts():
    assert count_paths(build_omega_graph(strict_shrub(2))).c == (0, 0, 1, 2)
    for n in range(1, 8):
        assert shrub_path_count_check(n)


def test_composition_sums_agree():
    for n in range(1, 11):
        assert composition_sum_check(n)


def test_compositions_enumeration():
    assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(1, 1)) == [(1,)]
    assert list(compositions(2, 3)) == []
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert sum(1 for _ in compositions(n, k)) == comb(n - 1, k - 1)
