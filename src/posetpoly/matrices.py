"""Exact square matrices over Q and over Q[t], with unipotent log/exp.

Rows are kept as sparse column->value dicts because the adjacency matrices
of ideal graphs are mostly empty: arcs only join nested ideals.  Single
rows can still be dense (the empty ideal of a naturally labeled
n-antichain has an arc to each of the other 2^n - 1 ideals), and the
strict shrub with 12 leaves has 527,346 arcs on 4,097 ideals, about 129
per row.  Matrices never mutate after construction; every operation
allocates a fresh result.

matrix_log_unipotent and matrix_exp_row implement ln(I+A) and one row of
e^{tΦ} for strictly upper triangular A: nilpotency truncates both series
at the dimension, so everything stays in exact rational arithmetic.  A
row of e^{tΦ} costs one row-vector × Φ product per power of Φ, so the
order-polynomial route (invariants.order_poly_matrix), which reads one
entry of Θ, exponentiates only the source row.  matrix_exp_scaled stacks
every row, for the full Θ of invariants.theta_matrix and the check of Θ
at integer times against products of I + A (checks.check_theta_powers).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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


def matrix_exp_row(phi: RatMatrix, i: int) -> dict[int, UniPoly]:
    """Row i of Θ(t) = e^{tΦ}, by column: Σ_k (e_i·Φ^k)_j t^k/k!, built
    by row-vector × Φ products until the row vanishes, which takes at
    most as many products as the dimension since Φ is nilpotent.  Only
    nonzero entries are kept."""
    if not phi.is_strictly_upper_triangular():
        raise ValueError("matrix must be strictly upper triangular")
    return _exp_row(phi, i)


def matrix_exp_scaled(phi: RatMatrix) -> PolyMatrix:
    """Θ(t) = e^{tΦ} = Σ_{k≥0} Φ^k t^k / k!, as the stack of its rows."""
    if not phi.is_strictly_upper_triangular():
        raise ValueError("matrix must be strictly upper triangular")
    return PolyMatrix(phi.dimension, [_exp_row(phi, i) for i in range(phi.dimension)])


def _exp_row(phi: RatMatrix, i: int) -> dict[int, UniPoly]:
    coeffs: dict[int, list[Fraction]] = {i: [Fraction(1)]}
    term: dict[int, Fraction] = {i: Fraction(1)}  # e_i·Φ^k/k!
    k = 0
    while term:
        k += 1
        product: dict[int, Fraction] = {}
        for c, v in term.items():
            for j, w in phi.row(c).items():
                product[j] = product.get(j, 0) + v * w
        term = {j: v / k for j, v in product.items() if v}
        for j, v in term.items():
            column = coeffs.setdefault(j, [])
            column.extend([Fraction(0)] * (k - len(column)))
            column.append(v)
    return {j: UniPoly(c) for j, c in coeffs.items()}
