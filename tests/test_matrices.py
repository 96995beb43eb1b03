import random
from fractions import Fraction as Fr
from math import factorial

import pytest

from posetpoly.catalog import labeled_catalog
from posetpoly.matrices import (
    PolyMatrix,
    RatMatrix,
    matrix_exp_row,
    matrix_exp_scaled,
    matrix_log_unipotent,
)
from posetpoly.omegagraph import build_omega_graph
from posetpoly.polynomials import UniPoly

T = UniPoly.variable()


def random_strict_upper(rng: random.Random, n: int) -> RatMatrix:
    rows = [{} for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                rows[i][j] = Fr(rng.randint(-3, 3), rng.randint(1, 3))
    return RatMatrix(n, rows)


def zero_matrix(n: int) -> RatMatrix:
    return RatMatrix.from_rows([[0] * n for _ in range(n)])


def scalar_matrix(n: int, c: Fr) -> RatMatrix:
    return RatMatrix(n, [{i: c} for i in range(n)])


# --- RatMatrix basics ---


def test_from_rows_and_entry():
    m = RatMatrix.from_rows([[0, 1], [0, 0]])
    assert m.entry(0, 1) == 1
    assert m.entry(1, 0) == 0
    assert [[m.entry(i, j) for j in range(2)] for i in range(2)] == [[0, 1], [0, 0]]


def test_from_rows_rejects_nonsquare():
    with pytest.raises(ValueError):
        RatMatrix.from_rows([[0, 1]])


def test_identity_and_multiplication():
    rng = random.Random(99)
    a = random_strict_upper(rng, 5)
    eye = RatMatrix.identity(5)
    assert a * eye == a
    assert eye * a == a
    negated = RatMatrix(5, [{j: -v for j, v in a.row(i).items()} for i in range(5)])
    assert a + negated == zero_matrix(5)


def test_strict_upper_triangular_predicate():
    assert RatMatrix.from_rows([[0, 1], [0, 0]]).is_strictly_upper_triangular()
    assert not RatMatrix.identity(2).is_strictly_upper_triangular()
    assert not RatMatrix.from_rows([[0, 0], [1, 0]]).is_strictly_upper_triangular()


def test_constructor_rejects_columns_outside_dimension():
    for column in (5, 2, -1):
        with pytest.raises(ValueError, match="outside 0..1"):
            RatMatrix(2, [{column: Fr(1)}, {}])
    assert RatMatrix(2, [{1: Fr(1)}, {}]).is_strictly_upper_triangular()


def test_multiplication_matches_dense_rule():
    rng = random.Random(1234)
    for _ in range(10):
        n = rng.randint(1, 4)
        a = random_strict_upper(rng, n) + scalar_matrix(n, Fr(rng.randint(-2, 2)))
        b = random_strict_upper(rng, n)
        prod = a * b
        for i in range(n):
            for j in range(n):
                expected = sum((a.entry(i, k) * b.entry(k, j) for k in range(n)), Fr(0))
                assert prod.entry(i, j) == expected


# --- unipotent logarithm ---


def test_log_of_zero_matrix():
    assert matrix_log_unipotent(zero_matrix(3)) == zero_matrix(3)


def test_log_two_by_two():
    a = RatMatrix.from_rows([[0, 1], [0, 0]])
    assert matrix_log_unipotent(a) == a  # A² = 0


def test_log_three_chain():
    a = RatMatrix.from_rows([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    phi = matrix_log_unipotent(a)
    assert phi.entry(0, 1) == 1
    assert phi.entry(1, 2) == 1
    assert phi.entry(0, 2) == Fr(1, 2)


def test_log_rejects_nontriangular():
    with pytest.raises(ValueError):
        matrix_log_unipotent(RatMatrix.identity(2))


def log_by_powers(a: RatMatrix) -> RatMatrix:
    """Σ_k (-1)^{k+1} A^k/k from full matrix powers."""
    n = a.dimension
    result, power, k = zero_matrix(n), a, 1
    while power != zero_matrix(n):
        result = result + power * scalar_matrix(n, Fr((-1) ** (k + 1), k))
        power, k = power * a, k + 1
    return result


def test_log_matches_full_matrix_powers():
    rng = random.Random(4242)
    for n in range(1, 10):
        for _ in range(3):
            a = random_strict_upper(rng, n)
            assert matrix_log_unipotent(a) == log_by_powers(a)
    for lp in labeled_catalog(5):
        a = build_omega_graph(lp).adjacency()
        assert matrix_log_unipotent(a) == log_by_powers(a)


# --- scaled exponential ---


def test_exp_of_zero_is_identity():
    identity = PolyMatrix(3, [{i: UniPoly([1])} for i in range(3)])
    assert matrix_exp_scaled(zero_matrix(3)) == identity


def test_exp_two_by_two():
    phi = RatMatrix.from_rows([[0, 1], [0, 0]])
    theta = matrix_exp_scaled(phi)
    assert theta.entry(0, 1) == T
    assert theta.entry(0, 0) == UniPoly([1])
    assert theta.entry(1, 1) == UniPoly([1])


def test_exp_rejects_nontriangular():
    with pytest.raises(ValueError):
        matrix_exp_scaled(RatMatrix.from_rows([[0, 0], [1, 0]]))
    with pytest.raises(ValueError):
        matrix_exp_row(RatMatrix.from_rows([[0, 0], [1, 0]]), 0)


def test_exp_row_rejects_row_outside_matrix():
    shift = RatMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert matrix_exp_row(shift, 1) == {1: UniPoly([1]), 2: T}
    for i in (-2, -1, 3):
        with pytest.raises(ValueError):
            matrix_exp_row(shift, i)


def exp_by_powers(phi: RatMatrix) -> list[list[UniPoly]]:
    """Σ_k Φ^k t^k/k! entry by entry, from full matrix powers."""
    n = phi.dimension
    coeffs = [[[] for _ in range(n)] for _ in range(n)]
    power, k = RatMatrix.identity(n), 0
    while power != zero_matrix(n):
        for i in range(n):
            for j in range(n):
                coeffs[i][j].append(power.entry(i, j) / factorial(k))
        power, k = power * phi, k + 1
    return [[UniPoly(c) for c in row] for row in coeffs]


def test_exp_row_is_a_row_of_the_exponential():
    rng = random.Random(31337)
    for _ in range(12):
        n = rng.randint(1, 9)
        phi = random_strict_upper(rng, n)
        theta = matrix_exp_scaled(phi)
        reference = exp_by_powers(phi)
        for i in range(n):
            row = matrix_exp_row(phi, i)
            assert all(row.values())  # only nonzero entries are kept
            for j in range(n):
                assert row.get(j, UniPoly()) == theta.entry(i, j) == reference[i][j]


def test_exp_log_round_trip_at_integer_powers():
    """exp(t·ln(I+A)) at t=m recovers (I+A)^m exactly."""
    rng = random.Random(20260815)
    for _ in range(8):
        n = rng.randint(1, 8)
        a = random_strict_upper(rng, n)
        theta = matrix_exp_scaled(matrix_log_unipotent(a))
        one_plus_a = RatMatrix.identity(n) + a
        assert theta.eval_at(1) == one_plus_a
        power = RatMatrix.identity(n)
        for m in range(6):
            assert theta.eval_at(m) == power
            power = power * one_plus_a
