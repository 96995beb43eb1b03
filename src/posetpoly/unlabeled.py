"""Order polynomials of bare posets, no labeling required.

Two recursion flavors compute the two classical polynomials.  Summing
over all nonempty ideals gives the weak order polynomial (the count of
order-preserving maps into a chain); summing over nonempty subsets of
the minimal elements gives the strict one.  The second flavor visits far
fewer subproblems, and a counter makes that claim checkable.

A third route computes the sign-twisted weak polynomial from the
minimal-subsets recursion with a backward-difference inverse; together
with the reflection identity between the weak and strict polynomials it
gives an end-to-end consistency check.

run_unlabeled evaluates any spec in Fractions, with one memo per spec.
order_poly_unlabeled runs the ideals recursion in integers instead: in the
binomial basis Delta^-1 is an index shift, so each isomorphism class keeps
c_0 = 0 (nonempty) and c_(k+1)(P) = sum over the nonempty ideals S of
c_k(P \\ S), and classes of at most 5 elements keep their record across
calls (see invariants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

from posetpoly.invariants import (
    SMALL_CLASS_MAX,
    ClassRecord,
    binomial_step,
    class_coordinates,
    class_record,
    public_value,
)
from posetpoly.polynomials import UniPoly, delta_inverse, from_binomial_basis, nabla_inverse
from posetpoly.posets import (
    Poset,
    enumerate_ideals,
    induced_poset,
    induced_relation,
    unlabeled_canonical_key,
)

__all__ = [
    "UnlabeledInvariantSpec",
    "run_unlabeled",
    "count_subcalls",
    "order_poly_unlabeled",
    "strict_order_poly",
    "signed_order_poly_nabla",
    "reciprocity_check",
    "strict_value_at_one_check",
]

Flavor = Literal["ideals", "minimal"]


@dataclass(frozen=True)
class UnlabeledInvariantSpec:
    """Base value, operator applied to the subproblem sum, and which
    family of subsets drives the recursion."""

    name: str
    base: UniPoly
    operator: Callable[[UniPoly], UniPoly]
    flavor: Flavor

    def __post_init__(self) -> None:
        if self.flavor not in ("ideals", "minimal"):
            raise ValueError(f"unknown recursion flavor {self.flavor!r}")


def _subset_masks(p: Poset, flavor: Flavor) -> list[int]:
    if flavor == "ideals":
        return [ideal for ideal in enumerate_ideals(p) if ideal]
    minimal = p.minimum_elements()
    subsets = []
    sub = minimal
    while sub:
        subsets.append(sub)
        sub = (sub - 1) & minimal
    return subsets


def run_unlabeled(
    spec: UnlabeledInvariantSpec,
    p: Poset,
    memo: dict[object, UniPoly] | None = None,
    counter: list[int] | None = None,
) -> UniPoly:
    """Evaluate the recursion; pass a fresh memo to isolate a run."""
    if memo is None:
        memo = _SHARED_MEMOS.setdefault(spec, {})
    key = unlabeled_canonical_key(p)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if p.size == 0:
        value = spec.base
    else:
        total = UniPoly(())
        for subset in _subset_masks(p, spec.flavor):
            if counter is not None:
                counter[0] += 1
            total = total + run_unlabeled(spec, induced_poset(p, p.full_mask ^ subset), memo, counter)
        value = spec.operator(total)
    memo[key] = value
    return value


_SHARED_MEMOS: dict[UnlabeledInvariantSpec, dict[object, UniPoly]] = {}

_WEAK_SPEC = UnlabeledInvariantSpec(
    name="weak",
    base=UniPoly([1]),
    operator=delta_inverse,
    flavor="ideals",
)

_STRICT_SPEC = UnlabeledInvariantSpec(
    name="strict",
    base=UniPoly([1]),
    operator=delta_inverse,
    flavor="minimal",
)

_SIGNED_SPEC = UnlabeledInvariantSpec(
    name="signed",
    base=UniPoly([1]),
    operator=lambda total: -nabla_inverse(total),
    flavor="minimal",
)


_SMALL_UNLABELED: dict[tuple, ClassRecord] = {}


def _weak_record(relation: tuple[int, ...], table: dict[tuple, ClassRecord]) -> ClassRecord:
    """The record of the poset with these above masks.  The masks themselves
    are kept as a second key, so the canonical key is computed once per
    distinct relation (without it deep-recursion queries take twice as
    long); small relations are labeled posets on at most SMALL_CLASS_MAX
    points, so that table stays bounded too.

    Raw relations and canonical keys share one table.  That is sound only
    because the canonical form is idempotent: a relation that equals some
    canonical key is that key's own canonical form, so both meanings of
    the entry name the same class."""
    memo = _SMALL_UNLABELED if len(relation) <= SMALL_CLASS_MAX else table
    record = memo.get(relation)
    if record is None:
        key = unlabeled_canonical_key(Poset(relation))[1]
        record = memo[relation] = class_record(key, _SMALL_UNLABELED, table)
    return record


def _weak_children(
    key: tuple, table: dict[tuple, ClassRecord]
) -> list[tuple[ClassRecord, int, int]]:
    """The isomorphism classes P \\ S for the nonempty ideals S."""
    rep = Poset(key)
    full = rep.full_mask
    counts: dict[tuple[ClassRecord, int], int] = {}
    for ideal in enumerate_ideals(rep):
        if ideal:
            child = (_weak_record(induced_relation(rep, full ^ ideal), table), ideal.bit_count())
            counts[child] = counts.get(child, 0) + 1
    return [(child, removed, mult) for (child, removed), mult in counts.items()]


def order_poly_unlabeled(p: Poset) -> UniPoly:
    """Count of order-preserving maps into the t-chain, as a polynomial:
    the ideals recursion in integer binomial coordinates."""
    table: dict[tuple, ClassRecord] = {}
    record = _weak_record(p.above, table)
    coords = class_coordinates(record, "omega", binomial_step, _weak_children, table)
    value = public_value(record, "omega_value", lambda: from_binomial_basis(coords))
    assert isinstance(value, UniPoly)
    return value


def strict_order_poly(p: Poset) -> UniPoly:
    """Count of strictly order-preserving maps into the t-chain."""
    return run_unlabeled(_STRICT_SPEC, p)


def signed_order_poly_nabla(p: Poset) -> UniPoly:
    """(-1)^|P| times the weak polynomial, straight from the recursion."""
    return run_unlabeled(_SIGNED_SPEC, p)


def count_subcalls(p: Poset, flavor: Flavor) -> int:
    """Child requests made by a fresh run of the given flavor."""
    spec = _WEAK_SPEC if flavor == "ideals" else _STRICT_SPEC
    counter = [0]
    run_unlabeled(spec, p, memo={}, counter=counter)
    return counter[0]


def reciprocity_check(p: Poset) -> bool:
    """weak(t) equals (-1)^|P| strict(-t), exactly."""
    if p.size == 0:
        raise ValueError("needs at least one element")
    sign = -1 if p.size % 2 else 1
    return order_poly_unlabeled(p) == sign * strict_order_poly(p).reflect()


def strict_value_at_one_check(p: Poset) -> bool:
    """strict(1) is 1 exactly on antichains, else 0; weak(-1) matches
    through the reflection identity."""
    if p.size == 0:
        raise ValueError("needs at least one element")
    anti = p.is_antichain_set(p.full_mask)
    strict_at_one = strict_order_poly(p)(1)
    weak_at_minus_one = order_poly_unlabeled(p)(-1)
    sign = -1 if p.size % 2 else 1
    if anti:
        return strict_at_one == 1 and weak_at_minus_one == sign
    return strict_at_one == 0 and weak_at_minus_one == 0
