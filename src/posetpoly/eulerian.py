"""Eulerian polynomials of labeled posets and their localized companions.

e(P, omega; lambda) is assembled from ideal-graph path counts:
e = sum_k c_k λ^k (1-λ)^(|P|-k).  Expanding the binomial gives the
coefficient of λ^m in closed form, sum_{k<=m} (-1)^(m-k) C(|P|-k, m-k) c_k,
which eulerian_from_chains computes in exact integers.  Its localized
companion etilde = e/(1-λ)^(|P|+1) generates the order polynomial values,
sum_n Omega(n) λ^n.  That quotient is already in canonical form: e(1) = c_|P|
counts the linear extensions, which is at least 1, so (1-λ) never divides
e and no LocalizedRatio arithmetic is needed.  Both satisfy a recursion
over complements of nonempty omega-natural ideals, implemented
independently of the path-count assembly so the two can confirm each other.
The localized one, etilde(P) = (λ/(1-λ)) Σ etilde(P\\S), is the plain one
divided through by (1-λ)^(|P|+1), so one recursion serves both: it keeps the
integer coefficients of e, e(P) = λ Σ (1-λ)^(|S|-1) e(P\\S), per poset class
(records of classes with at most 5 elements are kept across calls, see
invariants), and etilde is LocalizedRatio(e, |P|+1).

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
    class_coordinates,
    labeled_record,
    order_poly_recursive,
    public_value,
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


def eulerian_from_chains(lp: LabeledPoset) -> EulerianPair:
    """Assemble e and etilde from the path counts of the ideal graph."""
    n = lp.size
    counts = path_counts(lp).c
    coeffs = [
        sum((-1) ** (m - k) * comb(n - k, m - k) * counts[k] for k in range(m + 1))
        for m in range(n + 1)
    ]
    e = UniPoly(coeffs)
    # e(1) = c_n >= 1, so (1-λ) does not divide e and this form is canonical
    return EulerianPair(e, LocalizedRatio(e, n + 1))


def _eulerian_step(size: int, children: list[tuple[object, int, int]]) -> tuple[int, ...]:
    """Integer coefficients of e(P) = λ Σ (1-λ)^(|S|-1) e(P\\S): the children
    are summed per removed size s, then Horner's rule in (1-λ) runs from the
    largest s down, so multiplying by (1-λ) is one subtraction per entry."""
    if size == 0:
        return (1,)
    by_removed: dict[int, list[int]] = {}
    for coords, removed, mult in children:
        total = by_removed.setdefault(removed, [0] * size)
        for k, c in enumerate(coords):
            total[k] += mult * c
    acc = [0] * size  # the sum has degree below |P|
    for removed in range(size, 0, -1):
        total = by_removed.get(removed)
        previous = 0
        for k in range(size):
            current = acc[k]
            acc[k] = current - previous + (total[k] if total else 0)
            previous = current
    return (0, *acc)


def _eulerian_value(lp: LabeledPoset) -> tuple[ClassRecord, UniPoly]:
    table: dict[tuple, ClassRecord] = {}
    record = labeled_record(lp, table)
    coords = class_coordinates(record, "eulerian", _eulerian_step, table)
    e = public_value(record, "eulerian_value", lambda: UniPoly(coords))
    assert isinstance(e, UniPoly)
    return record, e


def eulerian_recursive(lp: LabeledPoset) -> UniPoly:
    """e by the recursion e(P) = λ Σ (1-λ)^(|S|-1) e(P\\S), S a nonempty
    omega-natural ideal; base e(∅) = 1."""
    return _eulerian_value(lp)[1]


def eulerian_tilde_recursive(lp: LabeledPoset) -> LocalizedRatio:
    """etilde = e/(1-λ)^(|P|+1) from the same recursion: the localized
    recursion etilde(P) = (λ/(1-λ)) Σ etilde(P\\S) with etilde(∅) = 1/(1-λ)
    is that one divided through, and e(1) = c_|P| >= 1 keeps it canonical."""
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
