"""Exact square matrices over Q and over Q[t], with unipotent log/exp.

Rows are kept as sparse column->value dicts because the adjacency matrices
of ideal graphs are mostly empty: arcs only join nested ideals.  Single
rows can still be dense (the empty ideal of a naturally labeled
n-antichain has an arc to each of the other 2^n - 1 ideals), and the
strict shrub with 12 leaves has 527,346 arcs on 4,097 ideals, about 129
per row.  Matrices never mutate after construction; every operation
allocates a fresh result.

matrix_log_unipotent and matrix_exp_scaled implement ln(I+A) and e^{tΦ}
for strictly upper triangular A: nilpotency truncates both series at the
dimension, so everything stays in exact rational arithmetic.  The module
serves that route (invariants.theta_matrix) and the check of Θ at integer
times against products of I + A (checks.check_theta_powers).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Sequence

from posetpoly.polynomials import RationalLike, UniPoly

__all__ = [
    "RatMatrix",
    "PolyMatrix",
    "matrix_log_unipotent",
    "matrix_exp_scaled",
]


def _clean_row(row: Mapping[int, RationalLike]) -> dict[int, Fraction]:
    return {j: Fraction(v) for j, v in row.items() if v != 0}


class RatMatrix:
    """A square matrix of Fractions, sparse inside, immutable by convention."""

    __slots__ = ("dimension", "_rows")

    def __init__(self, dimension: int, rows: Iterable[Mapping[int, Fraction]]) -> None:
        self.dimension = dimension
        self._rows = tuple(_clean_row(r) for r in rows)
        if len(self._rows) != dimension:
            raise ValueError("row count does not match dimension")

    @classmethod
    def zeros(cls, n: int) -> RatMatrix:
        return cls(n, [{} for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls(n, [{i: Fraction(1)} for i in range(n)])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> RatMatrix:
        n = len(rows)
        sparse = []
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            sparse.append({j: Fraction(v) for j, v in enumerate(row) if v != 0})
        return cls(n, sparse)

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i].get(j, Fraction(0))

    def row(self, i: int) -> Mapping[int, Fraction]:
        return self._rows[i]

    def is_zero(self) -> bool:
        return all(not r for r in self._rows)

    def is_strictly_upper_triangular(self) -> bool:
        return all(all(j > i for j in row) for i, row in enumerate(self._rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.dimension == other.dimension and self._rows == other._rows

    def __add__(self, other: RatMatrix) -> RatMatrix:
        self._check_same_shape(other)
        rows = []
        for a, b in zip(self._rows, other._rows):
            merged = dict(a)
            for j, v in b.items():
                merged[j] = merged.get(j, Fraction(0)) + v
            rows.append(merged)
        return RatMatrix(self.dimension, rows)

    def scaled(self, factor: RationalLike) -> RatMatrix:
        f = Fraction(factor)
        return RatMatrix(self.dimension, [{j: v * f for j, v in r.items()} for r in self._rows])

    def __mul__(self, other: RatMatrix) -> RatMatrix:
        self._check_same_shape(other)
        rows: list[dict[int, Fraction]] = []
        for a in self._rows:
            out: dict[int, Fraction] = {}
            for k, av in a.items():
                for j, bv in other._rows[k].items():
                    out[j] = out.get(j, Fraction(0)) + av * bv
            rows.append(out)
        return RatMatrix(self.dimension, rows)

    def _check_same_shape(self, other: RatMatrix) -> None:
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")

    def __repr__(self) -> str:
        return f"RatMatrix({self.dimension}, {list(self._rows)!r})"


class PolyMatrix:
    """A square matrix of UniPoly entries, sparse inside."""

    __slots__ = ("dimension", "_rows")

    def __init__(self, dimension: int, rows: Iterable[Mapping[int, UniPoly]]) -> None:
        self.dimension = dimension
        self._rows = tuple({j: p for j, p in r.items() if p} for r in rows)
        if len(self._rows) != dimension:
            raise ValueError("row count does not match dimension")

    def entry(self, i: int, j: int) -> UniPoly:
        return self._rows[i].get(j, UniPoly())

    def eval_at(self, point: RationalLike) -> RatMatrix:
        return RatMatrix(
            self.dimension,
            [{j: p(point) for j, p in r.items()} for r in self._rows],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.dimension == other.dimension and self._rows == other._rows

    def __repr__(self) -> str:
        return f"PolyMatrix({self.dimension}, {list(self._rows)!r})"


def matrix_log_unipotent(a: RatMatrix) -> RatMatrix:
    """Φ = ln(I + A) = Σ_{k≥1} (-1)^{k+1} A^k / k, truncated at nilpotency."""
    if not a.is_strictly_upper_triangular():
        raise ValueError("matrix must be strictly upper triangular")
    result = RatMatrix.zeros(a.dimension)
    power = a
    k = 1
    while not power.is_zero():
        result = result + power.scaled(Fraction((-1) ** (k + 1), k))
        power = power * a
        k += 1
    return result


def matrix_exp_scaled(phi: RatMatrix) -> PolyMatrix:
    """Θ(t) = e^{tΦ} = Σ_{k≥0} Φ^k t^k / k!, truncated at nilpotency."""
    if not phi.is_strictly_upper_triangular():
        raise ValueError("matrix must be strictly upper triangular")
    n = phi.dimension
    rows: list[dict[int, list[Fraction]]] = [{} for _ in range(n)]
    for i in range(n):
        rows[i][i] = [Fraction(1)]
    power = phi
    k = 1
    while not power.is_zero():
        inv_fact = Fraction(1, factorial(k))
        for i in range(n):
            for j, v in power.row(i).items():
                coeffs = rows[i].setdefault(j, [])
                while len(coeffs) < k + 1:
                    coeffs.append(Fraction(0))
                coeffs[k] += v * inv_fact
        power = power * phi
        k += 1
    return PolyMatrix(n, [{j: UniPoly(c) for j, c in r.items()} for r in rows])
