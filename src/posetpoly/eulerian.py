"""Eulerian polynomials of labeled posets and their localized companions.

e(P, omega; lambda) is assembled from path counts c_k, the ideal-graph
paths of k arcs: e = sum_k c_k λ^k (1-λ)^(|P|-k).  Expanding the binomial
gives the coefficient of λ^m in closed form,
sum_{k<=m} (-1)^(m-k) C(|P|-k, m-k) c_k, computed in exact integers by
_eulerian_from_counts.  Its localized companion etilde = e/(1-λ)^(|P|+1)
generates the order polynomial values, sum_n Omega(n) λ^n.  That quotient
is already in canonical form: e(1) = c_|P| counts the linear extensions,
which is at least 1, so (1-λ) never divides e and no LocalizedRatio
arithmetic is needed.  eulerian_from_chains reads the c_k from the path
search of omegagraph.path_counts; the recursive pair reads them as the
binomial coordinates of the order polynomial's recursion in invariants,
so it expands no class once Omega of the poset has run.  The paper's own
recursions, e(P) = λ Σ (1-λ)^(|S|-1) e(P\\S) and etilde(P) = (λ/(1-λ))
Σ etilde(P\\S), run as framework's eulerian and etilde specs.

The antichain specializations recover the classical Eulerian polynomials
A_n, reachable here through four unrelated computations: poset path
counts, a binomial recursion, a derivative recursion, and the descent
statistic over permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb

from posetpoly.localized import LocalizedRatio
from posetpoly.invariants import (
    ClassRecord,
    binomial_step,
    class_coordinates,
    order_poly_recursive,
    public_value,
    top_record,
)
from posetpoly.omegagraph import build_omega_graph, chain_polynomial, path_counts
from posetpoly.polynomials import UniPoly
from posetpoly.posets import LabeledPoset

__all__ = [
    "EulerianPair",
    "eulerian_from_chains",
    "eulerian_recursive",
    "eulerian_tilde_recursive",
    "eulerian_series_check",
    "chain_identity_check",
    "antichain_eulerian_binomial",
    "antichain_eulerian_derivative",
    "eulerian_descent_oracle",
]

LAMBDA = UniPoly((0, 1))
ONE_MINUS_LAMBDA = UniPoly((1, -1))


@dataclass(frozen=True, slots=True)
class EulerianPair:
    """e and etilde = e/(1-λ)^(|P|+1), the latter in canonical form."""

    e: UniPoly
    etilde: LocalizedRatio


def _eulerian_from_counts(n: int, counts: tuple[int, ...]) -> UniPoly:
    """e = Σ_k c_k λ^k (1-λ)^(n-k) from the counts c_0..c_n, coefficient by
    coefficient in integers."""
    return UniPoly(
        sum((-1) ** (m - k) * comb(n - k, m - k) * counts[k] for k in range(m + 1))
        for m in range(n + 1)
    )


def eulerian_from_chains(lp: LabeledPoset) -> EulerianPair:
    """Assemble e and etilde from the path counts of the ideal graph."""
    n = lp.size
    e = _eulerian_from_counts(n, path_counts(lp).c)
    # e(1) = c_n >= 1, so (1-λ) does not divide e and this form is canonical
    return EulerianPair(e, LocalizedRatio(e, n + 1))


def _eulerian_value(lp: LabeledPoset) -> tuple[ClassRecord, UniPoly]:
    record, table = top_record(lp)
    coords = class_coordinates(record, "omega", binomial_step, table)
    e = public_value(record, "eulerian_value", lambda: _eulerian_from_counts(lp.size, coords))
    assert isinstance(e, UniPoly)
    return record, e


def eulerian_recursive(lp: LabeledPoset) -> UniPoly:
    """e from the order polynomial's recursion: its binomial coordinates are
    the path counts c_k, read into the closed form."""
    return _eulerian_value(lp)[1]


def eulerian_tilde_recursive(lp: LabeledPoset) -> LocalizedRatio:
    """etilde = e/(1-λ)^(|P|+1) over eulerian_recursive's e, which
    e(1) = c_|P| >= 1 keeps canonical."""
    record, e = _eulerian_value(lp)
    value = public_value(record, "etilde_value", lambda: LocalizedRatio(e, lp.size + 1))
    assert isinstance(value, LocalizedRatio)
    return value


def eulerian_series_check(lp: LabeledPoset, truncation: int) -> bool:
    """Σ_n Omega(n) λ^n agrees with e/(1-λ)^(|P|+1) through degree truncation."""
    n = lp.size
    if truncation < n + 2:
        raise ValueError("truncation order must be at least |P| + 2")
    omega = order_poly_recursive(lp)
    lhs = UniPoly([omega(m) for m in range(truncation + 1)])
    e = eulerian_from_chains(lp).e
    expansion = UniPoly([comb(m + n, n) for m in range(truncation + 1)])
    rhs = UniPoly((e * expansion).coeffs[: truncation + 1])
    return lhs == rhs


def chain_identity_check(lp: LabeledPoset) -> bool:
    """The interior chain polynomial at μ = λ/(1-λ) reproduces both e and
    etilde after the stated prefactors."""
    n = lp.size
    if n == 0:
        raise ValueError("chain identity needs a nonempty poset")
    mu = LocalizedRatio(LAMBDA, 1)
    chain_value = LocalizedRatio(UniPoly())
    for j, coeff in enumerate(chain_polynomial(build_omega_graph(lp)).coeffs):
        if coeff:
            chain_value = chain_value + coeff * mu**j
    pair = eulerian_from_chains(lp)
    etilde_claim = LocalizedRatio(LAMBDA, 2) * chain_value
    e_claim = LocalizedRatio(LAMBDA * ONE_MINUS_LAMBDA ** (n - 1)) * chain_value
    return etilde_claim == pair.etilde and e_claim == LocalizedRatio(pair.e)


def antichain_eulerian_binomial(n: int) -> UniPoly:
    """A_n by the binomial recursion over nonempty subsets of the antichain."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    table = [UniPoly([1])]
    for m in range(1, n + 1):
        total = UniPoly()
        for k in range(1, m + 1):
            total = total + comb(m, k) * table[m - k] * ONE_MINUS_LAMBDA ** (k - 1)
        table.append(LAMBDA * total)
    return table[n]


def antichain_eulerian_derivative(n: int) -> UniPoly:
    """A_n = λ(1-λ)A'_{n-1} + nλA_{n-1}, base A_0 = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    current = UniPoly([1])
    for m in range(1, n + 1):
        current = LAMBDA * ONE_MINUS_LAMBDA * current.derivative() + m * LAMBDA * current
    return current


def eulerian_descent_oracle(n: int) -> UniPoly:
    """Σ_σ λ^(1+des σ) over all permutations of n letters; n ≥ 1."""
    if n < 1:
        raise ValueError("the descent oracle needs n >= 1")
    coeffs = [0] * (n + 1)
    for sigma in permutations(range(n)):
        descents = sum(1 for i in range(n - 1) if sigma[i] > sigma[i + 1])
        coeffs[1 + descents] += 1
    return UniPoly(coeffs)
