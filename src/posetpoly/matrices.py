"""Exact square matrices over Q and over Q[t], with unipotent log/exp.

Rows are kept as sparse column->value dicts because the adjacency matrices
of ideal graphs are mostly empty: arcs only join nested ideals.  Single
rows can still be dense (the empty ideal of a naturally labeled
n-antichain has an arc to each of the other 2^n - 1 ideals), and the
strict shrub with 12 leaves has 527,346 arcs on 4,097 ideals, about 129
per row.  Matrices never mutate after construction; every operation
allocates a fresh result.

matrix_log_unipotent and matrix_exp_row implement ln(I+A) and one row of
e^{tΦ} for strictly upper triangular A on one kernel, _row_powers, which
yields e_i·M, e_i·M², … by row-vector × M products until the row
vanishes: nilpotency truncates both series at the dimension, so
everything stays exact.  Row i of Φ is Σ_k (-1)^{k+1}(e_i·A^k)/k and row
i of Θ(t) is Σ_k (e_i·Φ^k)t^k/k!; the order-polynomial route
(invariants.order_poly_matrix) exponentiates only the source row.
matrix_exp_scaled stacks every row, for the full Θ of
invariants.theta_matrix and the check of Θ at integer times against the
powers of I + A that + and * compute (checks.check_theta_powers).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Iterator, Mapping, Sequence

from posetpoly.polynomials import RationalLike, UniPoly

__all__ = [
    "RatMatrix",
    "PolyMatrix",
    "matrix_log_unipotent",
    "matrix_exp_row",
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

    def is_strictly_upper_triangular(self) -> bool:
        return all(all(i < j < self.dimension for j in row) for i, row in enumerate(self._rows))

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
    """Φ = ln(I + A) = Σ_{k≥1} (-1)^{k+1} A^k / k, truncated at nilpotency,
    as the stack of its rows Σ_k (-1)^{k+1}(e_i·A^k)/k."""
    if not a.is_strictly_upper_triangular():
        raise ValueError("matrix must be strictly upper triangular")
    rows = []
    for i in range(a.dimension):
        row: dict[int, Fraction] = {}
        for k, power in enumerate(_row_powers(a, i), 1):
            coefficient = Fraction((-1) ** (k + 1), k)
            for j, v in power.items():
                row[j] = row.get(j, 0) + coefficient * v
        rows.append(row)
    return RatMatrix(a.dimension, rows)


def matrix_exp_row(phi: RatMatrix, i: int) -> dict[int, UniPoly]:
    """Row i of Θ(t) = e^{tΦ}, by column: Σ_k (e_i·Φ^k)_j t^k/k!, which
    takes at most as many row-vector × Φ products as the dimension since
    Φ is nilpotent.  Only nonzero entries are kept; i must index a row."""
    if not phi.is_strictly_upper_triangular():
        raise ValueError("matrix must be strictly upper triangular")
    if not 0 <= i < phi.dimension:
        raise ValueError(f"row {i} is outside 0..{phi.dimension - 1}")
    return _exp_row(phi, i)


def matrix_exp_scaled(phi: RatMatrix) -> PolyMatrix:
    """Θ(t) = e^{tΦ} = Σ_{k≥0} Φ^k t^k / k!, as the stack of its rows."""
    if not phi.is_strictly_upper_triangular():
        raise ValueError("matrix must be strictly upper triangular")
    return PolyMatrix(phi.dimension, [_exp_row(phi, i) for i in range(phi.dimension)])


def _row_powers(m: RatMatrix, i: int) -> Iterator[Mapping[int, Fraction]]:
    """Yield e_i·M, e_i·M², … for strictly upper triangular M, as sparse
    rows without zeros, until the row vanishes.  Callers only read them."""
    row = m._rows[i]
    while row:
        yield row
        product: dict[int, Fraction] = {}
        for c, v in row.items():
            for j, w in m._rows[c].items():
                product[j] = product.get(j, 0) + v * w
        row = {j: v for j, v in product.items() if v}


def _exp_row(phi: RatMatrix, i: int) -> dict[int, UniPoly]:
    coeffs: dict[int, list[Fraction]] = {i: [Fraction(1)]}
    for k, power in enumerate(_row_powers(phi, i), 1):
        for j, v in power.items():
            column = coeffs.setdefault(j, [])
            column.extend([Fraction(0)] * (k - len(column)))
            column.append(v / factorial(k))
    return {j: UniPoly(c) for j, c in coeffs.items()}
