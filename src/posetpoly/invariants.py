"""Order polynomials by three independent routes, and what ties them together.

The three routes:

1. brute force: count the admissible maps P -> [n] for n up to |P| and
   interpolate (with the structural zero at t = 0);
2. matrix: the (empty, full) entry of Theta(t) = exp(t·ln(I + A)) over the
   ideal-graph adjacency A;
3. recursion: apply the inverse forward difference to the sum of order
   polynomials of complements of nonempty omega-natural ideals.

Route 1 is the semantic definition and deliberately dumb; its size bound
(default 7, override with the POSET_ORACLE_MAX environment variable) keeps
the n^|P| enumeration honest.  Routes 2 and 3 scale further and must agree
with it exactly.

phi is the t-coefficient of the order polynomial, computed here from
alternating path counts; the flag sums rebuild the whole polynomial from
phi values of difference subposets.  phi keeps no memo of its own: it
reads omegagraph.path_counts, whose one slot already holds the counts
after the Eulerian pair of the same poset, and sums at most |P| terms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm
from typing import Callable

from posetpoly.matrices import PolyMatrix, matrix_exp_scaled, matrix_log_unipotent
from posetpoly.omegagraph import OmegaGraph, build_omega_graph, path_counts
from posetpoly.polynomials import UniPoly, delta_inverse, lagrange_interpolate
from posetpoly.posets import (
    LabeledPoset,
    canonical_key,
    enumerate_ideals,
    induced_subposet,
    iter_bits,
    omega_natural_ideals,
)

__all__ = [
    "ORACLE_BOUND_ENV",
    "order_poly_bruteforce",
    "order_poly_matrix",
    "order_poly_recursive",
    "ThetaMatrix",
    "theta_matrix",
    "theta_subposet_check",
    "phi",
    "convolution_check",
    "phi_recursion_check",
    "omega_from_phi",
    "derivative_identity_check",
]

ORACLE_BOUND_ENV = "POSET_ORACLE_MAX"
_DEFAULT_ORACLE_BOUND = 7


def _oracle_bound() -> int:
    raw = os.environ.get(ORACLE_BOUND_ENV)
    if raw is None:
        return _DEFAULT_ORACLE_BOUND
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ORACLE_BOUND_ENV} must be an integer, got {raw!r}") from None


def order_poly_bruteforce(lp: LabeledPoset) -> UniPoly:
    """Count admissible maps into [n] directly and interpolate.

    A map f is admissible when it is order-preserving and strictly
    increases across any covering pair whose labels decrease.
    """
    n = lp.size
    bound = _oracle_bound()
    if n > bound:
        raise ValueError(
            f"poset size {n} exceeds the brute-force bound {bound}; "
            f"set {ORACLE_BOUND_ENV} to raise it"
        )
    if n == 0:
        return UniPoly([1])
    constraints = []
    for x in range(n):
        for y in iter_bits(lp.poset.above[x]):
            constraints.append((x, y, lp.omega[x] > lp.omega[y]))
    points: list[tuple[int, int]] = [(0, 0)]
    for top in range(1, n + 1):
        count = 0
        for f in product(range(top), repeat=n):
            ok = True
            for x, y, strict in constraints:
                if f[x] > f[y] or (strict and f[x] == f[y]):
                    ok = False
                    break
            if ok:
                count += 1
        points.append((top, count))
    return lagrange_interpolate(points)


@dataclass(frozen=True)
class ThetaMatrix:
    """exp(t·Phi) over the ideal lattice; entry (I, J) is the order
    polynomial of the difference subposet J \\ I whenever I ⊆ J."""

    graph: OmegaGraph
    entries: PolyMatrix

    def entry(self, i: int, j: int) -> UniPoly:
        return self.entries.entry(i, j)


def theta_matrix(lp: LabeledPoset) -> ThetaMatrix:
    graph = build_omega_graph(lp)
    phi_matrix = matrix_log_unipotent(graph.adjacency())
    return ThetaMatrix(graph, matrix_exp_scaled(phi_matrix))


def order_poly_matrix(lp: LabeledPoset) -> UniPoly:
    theta = theta_matrix(lp)
    return theta.entry(theta.graph.source, theta.graph.sink)


def theta_subposet_check(lp: LabeledPoset) -> bool:
    """Every Theta entry is the order polynomial of its difference subposet."""
    theta = theta_matrix(lp)
    ideals = theta.graph.ideals
    for i, small in enumerate(ideals):
        for j, big in enumerate(ideals):
            value = theta.entry(i, j)
            if small & big != small:
                if value:
                    return False
            elif value != order_poly_recursive(induced_subposet(lp, big & ~small)):
                return False
    return True


_RECURSION_MEMO: dict[tuple, UniPoly] = {}


def order_poly_recursive(lp: LabeledPoset) -> UniPoly:
    """Inverse-difference recursion over complements of omega-natural ideals."""
    key = canonical_key(lp)
    cached = _RECURSION_MEMO.get(key)
    if cached is not None:
        return cached
    if lp.size == 0:
        result = UniPoly([1])
    else:
        full = lp.poset.full_mask
        total = UniPoly()
        for ideal in omega_natural_ideals(lp):
            if ideal:
                total = total + order_poly_recursive(induced_subposet(lp, full & ~ideal))
        result = delta_inverse(total)
    _RECURSION_MEMO[key] = result
    return result


def phi(lp: LabeledPoset) -> Fraction:
    """The t-coefficient of the order polynomial, from path counts:
    sum over k of (-1)^(k-1) c_k / k, over the common denominator lcm(1..|P|)."""
    n = lp.size
    if n == 0:
        return Fraction(0)
    counts = path_counts(lp).c
    denominator = lcm(*range(1, n + 1))
    numerator = sum((-1) ** (k - 1) * counts[k] * (denominator // k) for k in range(1, n + 1))
    return Fraction(numerator, denominator)


def convolution_check(lp: LabeledPoset) -> bool:
    """Omega(s+t) = sum over all ideals S of Omega(S;s)·Omega(P\\S;t),
    compared as genuine bivariate polynomials."""
    full = lp.poset.full_mask
    lhs: dict[tuple[int, int], Fraction] = {}
    for k, c in enumerate(order_poly_recursive(lp).coeffs):
        for i in range(k + 1):
            key = (i, k - i)
            lhs[key] = lhs.get(key, Fraction(0)) + c * comb(k, i)
    rhs: dict[tuple[int, int], Fraction] = {}
    graph = build_omega_graph(lp)
    for ideal in graph.ideals:
        left = order_poly_recursive(induced_subposet(lp, ideal))
        right = order_poly_recursive(induced_subposet(lp, full & ~ideal))
        for i, a in enumerate(left.coeffs):
            for j, b in enumerate(right.coeffs):
                rhs[(i, j)] = rhs.get((i, j), Fraction(0)) + a * b
    return _strip_zeros(lhs) == _strip_zeros(rhs)


def _strip_zeros(table: dict[tuple[int, int], Fraction]) -> dict[tuple[int, int], Fraction]:
    return {k: v for k, v in table.items() if v != 0}


def _phi_per_class(lp: LabeledPoset) -> Callable[[int], Fraction]:
    """phi of the subposet on a subset of lp.  The identities below ask for
    the same labeled-poset class many times over, so the returned function
    builds one graph per class; its table lives only as long as the caller."""
    seen: dict[tuple, Fraction] = {}

    def phi_of(subset: int) -> Fraction:
        sub = induced_subposet(lp, subset)
        key = canonical_key(sub)
        if key not in seen:
            seen[key] = phi(sub)
        return seen[key]

    return phi_of


def _flag_products(lp: LabeledPoset) -> list[Fraction]:
    """totals[r] = sum over ideal flags 0 ⊊ I_1 ⊊ ... ⊊ I_r = P of the
    product of phi over successive differences."""
    n = lp.size
    ideals = enumerate_ideals(lp.poset)
    phi_of = _phi_per_class(lp)
    phis: dict[tuple[int, int], Fraction] = {}
    for a, small in enumerate(ideals):
        for b in range(a + 1, len(ideals)):
            big = ideals[b]
            if small & big == small:
                phis[(a, b)] = phi_of(big & ~small)
    table: list[dict[int, Fraction]] = [dict() for _ in ideals]
    table[0][0] = Fraction(1)
    for b in range(1, len(ideals)):
        acc = table[b]
        for a in range(b):
            weight = phis.get((a, b))
            if weight is None or weight == 0:
                continue
            for r, val in table[a].items():
                acc[r + 1] = acc.get(r + 1, Fraction(0)) + val * weight
    top = table[len(ideals) - 1]
    return [top.get(r, Fraction(0)) for r in range(n + 1)]


def phi_recursion_check(lp: LabeledPoset) -> bool:
    """The 1/r!-weighted flag sums collapse to 1 for omega-natural posets
    and to 0 otherwise."""
    totals = _flag_products(lp)
    value = sum(totals[r] / factorial(r) for r in range(1, len(totals)))
    expected = 1 if lp.is_omega_natural(lp.poset.full_mask) else 0
    return value == expected


def omega_from_phi(lp: LabeledPoset) -> UniPoly:
    """Rebuild the order polynomial with flag sums as t^r coefficients."""
    totals = _flag_products(lp)
    return UniPoly([Fraction(0)] + [totals[r] / factorial(r) for r in range(1, len(totals))])


def derivative_identity_check(lp: LabeledPoset) -> bool:
    """dOmega/dt equals the phi-weighted convolutions, in both mirror forms."""
    full = lp.poset.full_mask
    target = order_poly_recursive(lp).derivative()
    graph = build_omega_graph(lp)
    phi_of = _phi_per_class(lp)
    front = UniPoly()
    back = UniPoly()
    for ideal in graph.ideals:
        rest = full & ~ideal
        if ideal:
            front = front + phi_of(ideal) * order_poly_recursive(induced_subposet(lp, rest))
        if ideal != full:
            back = back + phi_of(rest) * order_poly_recursive(induced_subposet(lp, ideal))
    return front == target and back == target
