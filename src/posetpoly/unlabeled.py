"""Order polynomials of bare posets, as order polynomials of labelings.

The two classical polynomials of a bare poset are Omega(P, omega) for two
kinds of labeling.  Under a natural labeling (order-preserving) every
ideal is omega-natural, so the recursion sums over all nonempty ideals and
gives the weak order polynomial, the count of order-preserving maps into
the t-chain.  Under a strict labeling (order-reversing) the omega-natural
ideals are exactly the nonempty subsets of the minimal elements, so the
same recursion gives the strict one while visiting far fewer subproblems;
a counter makes that claim checkable.  So the weak polynomial runs the
strict recursion and reflects it, weak(t) = (-1)^|P| strict(-t) (Stanley's
reciprocity), in integer binomial coordinates
(invariants.reflected_coordinates): its value is built once, with no
Fraction arithmetic before it.

A third route computes the sign-twisted weak polynomial from the
minimal-subsets recursion with a backward-difference inverse, run by
framework.run_invariant on the strict labeling.  The reflection identity
is checked against the recursion on a natural labeling, which lists every
ideal and shares no reflection with the weak route.
"""

from __future__ import annotations

from typing import Callable, Literal

from posetpoly import stats
from posetpoly.framework import InvariantSpec, run_invariant
from posetpoly.invariants import (
    ClassRecord,
    binomial_step,
    class_coordinates,
    labeled_children,
    order_poly_recursive,
    reflected_coordinates,
    top_record,
)
from posetpoly.polynomials import UniPoly, from_binomial_basis, nabla_inverse
from posetpoly.posets import LabeledPoset, Poset, canonical_key, natural_labeling, reversed_labeling

__all__ = [
    "count_subcalls",
    "order_poly_unlabeled",
    "strict_order_poly",
    "signed_order_poly_nabla",
    "reciprocity_check",
    "strict_value_at_one_check",
]

Flavor = Literal["ideals", "minimal"]

_LABELINGS: dict[str, Callable[[Poset], tuple[int, ...]]] = {
    "ideals": natural_labeling,
    "minimal": reversed_labeling,
}

_SIGNED_SPEC = InvariantSpec(
    name="signed",
    carrier=UniPoly,
    base=UniPoly([1]),
    operator=lambda total: -nabla_inverse(total),
)


def order_poly_unlabeled(p: Poset) -> UniPoly:
    """Count of order-preserving maps into the t-chain, as a polynomial:
    Omega under a natural labeling, read as (-1)^|P| strict(-t) from the
    strict recursion's integer coordinates."""
    record, table = top_record(LabeledPoset(p, reversed_labeling(p)))
    strict = class_coordinates(record, "omega", binomial_step, table)
    return from_binomial_basis(reflected_coordinates(strict))


def strict_order_poly(p: Poset) -> UniPoly:
    """Count of strictly order-preserving maps into the t-chain: Omega
    under a strict labeling."""
    return order_poly_recursive(LabeledPoset(p, reversed_labeling(p)))


def signed_order_poly_nabla(p: Poset) -> UniPoly:
    """(-1)^|P| times the weak polynomial, straight from the recursion."""
    value = run_invariant(_SIGNED_SPEC, LabeledPoset(p, reversed_labeling(p)))
    assert isinstance(value, UniPoly)
    return value


def count_subcalls(p: Poset, flavor: Flavor) -> int:
    """Child requests made by a fresh run of the recursion under a natural
    labeling ("ideals") or a strict one ("minimal"): one per nonempty
    omega-natural ideal of every labeled class the run reaches."""
    if flavor not in _LABELINGS:
        raise ValueError(f"unknown recursion flavor {flavor!r}")
    table: dict[tuple, ClassRecord] = {}
    start = canonical_key(LabeledPoset(p, _LABELINGS[flavor](p)))[1]
    seen = {start}
    pending = [start]
    requests = 0
    budget = stats.limit()
    while pending:
        for child, _, mult in labeled_children(pending.pop(), table, budget):
            requests += mult
            if child.key not in seen:
                seen.add(child.key)
                pending.append(child.key)
    return requests


def _natural_weak(p: Poset) -> UniPoly:
    """The weak polynomial by the recursion on a natural labeling, which
    shares no reflection with order_poly_unlabeled."""
    return order_poly_recursive(LabeledPoset(p, natural_labeling(p)))


def reciprocity_check(p: Poset) -> bool:
    """weak(t) equals (-1)^|P| strict(-t), exactly, the weak side from the
    recursion on a natural labeling."""
    if p.size == 0:
        raise ValueError("needs at least one element")
    sign = -1 if p.size % 2 else 1
    return _natural_weak(p) == sign * strict_order_poly(p).reflect()


def strict_value_at_one_check(p: Poset) -> bool:
    """strict(1) is 1 exactly on antichains, else 0; weak(-1) matches
    through the reflection identity, read from the recursion on a natural
    labeling."""
    if p.size == 0:
        raise ValueError("needs at least one element")
    anti = p.is_antichain_set(p.full_mask)
    strict_at_one = strict_order_poly(p)(1)
    weak_at_minus_one = _natural_weak(p)(-1)
    sign = -1 if p.size % 2 else 1
    if anti:
        return strict_at_one == 1 and weak_at_minus_one == sign
    return strict_at_one == 0 and weak_at_minus_one == 0
