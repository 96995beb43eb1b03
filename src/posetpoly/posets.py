"""Finite posets on 0..n-1 and injective labelings, all bitmask-backed.

The strict order is stored as per-element masks: above[i] is the set of
elements strictly greater than i, transitively closed.  Subsets of the
ground set, ideals included, travel as plain int bitmasks throughout the
package.  A Poset stores only its above masks and a LabeledPoset only its
poset and labels, since callers may keep many parsed posets: the below
masks are derived from above on each read of Poset.below, which every
reader binds once per call.

Every order built from covers (make_poset, the poset-file parser, the
catalog) is closed by one routine, add_cover.  It adds one cover
low < high to an order that is already closed: every element at or below
low gains everything at or above high in one mask OR, and the below masks
are updated the same way, so a cover costs one OR per element of that
down-set and of that up-set.  A cover whose high end already precedes its
low end would close a cycle and is refused.

A labeling is an injective map to positive integers.  A subset S is
omega-natural when the labeling restricted to S is order-preserving;
is_omega_natural compares the labels of each related pair inside S, and
omega_natural_ideals collects the elements with a larger-labeled element
below them in one pass over the above masks.

Ideals grow along a linear extension: each element in turn joins every
ideal grown so far that holds its lower set, one list comprehension per
element, so every ideal comes after its parent, the ideal without the
element it gained last.  enumerate_ideals grows along lower-set size and
sorts the list once at the end.  The omega-natural ideals grow the same
way over only the elements with no larger-labeled element below them, so
they are never filtered out of all ideals.  enumerate_ideals and
omega_natural_ideals both grow through _grow_ideals.  The class recursion
grows its own, in label order from a canonical_key, together with each
complement's key (invariants.complement_keys), so it shares no growth
with run_invariant.  All are metered as the ideals kind of
posetpoly.stats, whose budget they stop at.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, Sequence

from posetpoly import stats
from posetpoly.stats import ORACLE_BOUND_ENV  # noqa: F401  (re-exported)

__all__ = [
    "Poset",
    "LabeledPoset",
    "make_poset",
    "make_antichain",
    "make_chain",
    "make_shrub",
    "natural_labeling",
    "reversed_labeling",
    "enumerate_ideals",
    "omega_natural_ideals",
    "induced_relation",
    "induced_poset",
    "induced_subposet",
    "canonicalize",
    "canonical_key",
    "unlabeled_canonical_key",
    "iter_bits",
]


def iter_bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """A finite poset; above[i] masks the elements strictly greater than i.

    Only the above masks are stored; below is derived from them on each
    read, so a caller binds it once."""

    __slots__ = ("size", "above")

    def __init__(self, above: Sequence[int]) -> None:
        self.size = len(above)
        self.above = tuple(above)
        for i, mask in enumerate(self.above):
            if mask >> self.size:
                raise ValueError("relation references elements outside the ground set")
            if (mask >> i) & 1:
                raise ValueError("not a partial order: cycle through element %d" % i)
            for j in iter_bits(mask):
                if self.above[j] & ~mask & ~(1 << j):
                    raise ValueError("relation is not transitively closed")

    @property
    def below(self) -> tuple[int, ...]:
        """below[j] masks the elements strictly less than j."""
        below = [0] * self.size
        for i, mask in enumerate(self.above):
            bit = 1 << i
            for j in iter_bits(mask):
                below[j] |= bit
        return tuple(below)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def less(self, i: int, j: int) -> bool:
        return bool((self.above[i] >> j) & 1)

    def minimum_elements(self) -> int:
        below = self.below
        return sum(1 << i for i in range(self.size) if not below[i])

    def is_antichain_set(self, subset: int) -> bool:
        """True when no two members of subset are comparable."""
        return all(not (self.above[i] & subset) for i in iter_bits(subset))

    def cover_pairs(self) -> list[tuple[int, int]]:
        below = self.below
        pairs = []
        for i in range(self.size):
            for j in iter_bits(self.above[i]):
                if not (self.above[i] & below[j]):
                    pairs.append((i, j))
        return pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.above == other.above

    def __hash__(self) -> int:
        return hash(self.above)

    def __repr__(self) -> str:
        return f"Poset({list(self.above)!r})"


def add_cover(above: list[int], below: list[int], low: int, high: int) -> bool:
    """Add the cover low < high, low != high, to the closed strict order
    (above, below) in place, keeping it closed.  Returns False, leaving the
    order as it was, when high already precedes low (a cycle)."""
    if (above[high] >> low) & 1:
        return False
    up = above[high] | (1 << high)
    down = below[low] | (1 << low)
    for x in iter_bits(down):
        above[x] |= up
    for y in iter_bits(up):
        below[y] |= down
    return True


def make_poset(n: int, covers: Iterable[tuple[int, int]]) -> Poset:
    """Build the poset generated by cover relations low < high; rejects cycles."""
    above, below = [0] * n, [0] * n
    acyclic = True
    for low, high in covers:
        if not (0 <= low < n and 0 <= high < n):
            raise ValueError(f"cover ({low}, {high}) references elements outside 0..{n - 1}")
        if low == high:
            raise ValueError(f"cover ({low}, {high}) relates an element to itself")
        acyclic = add_cover(above, below, low, high) and acyclic
    if not acyclic:
        raise ValueError("not a partial order: cover relation contains a cycle")
    return Poset(above)


def make_antichain(n: int) -> Poset:
    return Poset([0] * n)


def make_chain(n: int) -> Poset:
    return make_poset(n, [(i, i + 1) for i in range(n - 1)])


def make_shrub(n: int) -> Poset:
    """Root 0 below n pairwise-incomparable leaves; n = 0 gives the singleton."""
    return make_poset(n + 1, [(0, leaf) for leaf in range(1, n + 1)])


def linear_extension(p: Poset) -> list[int]:
    """A linear extension, smallest available index first (deterministic).

    Kahn's algorithm over the closed order: an element becomes available
    once every element below it is placed, and a heap hands out the
    smallest available index."""
    waiting = [mask.bit_count() for mask in p.below]
    ready = [i for i in range(p.size) if not waiting[i]]
    order = []
    while ready:
        x = heapq.heappop(ready)
        order.append(x)
        for y in iter_bits(p.above[x]):
            waiting[y] -= 1
            if not waiting[y]:
                heapq.heappush(ready, y)
    return order


def natural_labeling(p: Poset) -> tuple[int, ...]:
    """An order-preserving labeling derived from a linear extension."""
    omega = [0] * p.size
    for rank, element in enumerate(linear_extension(p), start=1):
        omega[element] = rank
    return tuple(omega)


def reversed_labeling(p: Poset) -> tuple[int, ...]:
    """An order-reversing (strict) labeling derived from a linear extension."""
    omega = [0] * p.size
    for rank, element in enumerate(linear_extension(p)):
        omega[element] = p.size - rank
    return tuple(omega)


class LabeledPoset:
    """A poset with an injective positive labeling omega."""

    __slots__ = ("poset", "omega")

    def __init__(self, poset: Poset, omega: Sequence[int]) -> None:
        omega = tuple(omega)
        if len(omega) != poset.size:
            raise ValueError("labeling must assign every element exactly one label")
        if any(not isinstance(v, int) or v < 1 for v in omega):
            raise ValueError("labels must be positive integers")
        if len(set(omega)) != len(omega):
            raise ValueError("labels must be injective")
        self.poset = poset
        self.omega = omega

    @property
    def size(self) -> int:
        return self.poset.size

    def is_omega_natural(self, subset: int) -> bool:
        """True when no x < y in subset has omega[x] > omega[y]."""
        above, omega = self.poset.above, self.omega
        return all(
            omega[x] < omega[y] for x in iter_bits(subset) for y in iter_bits(above[x] & subset)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledPoset):
            return NotImplemented
        return self.poset == other.poset and self.omega == other.omega

    def __hash__(self) -> int:
        return hash((self.poset, self.omega))

    def __repr__(self) -> str:
        return f"LabeledPoset({self.poset!r}, {self.omega!r})"


def _grow_ideals(below: Sequence[int], order: Sequence[int]) -> list[int]:
    """The ideals of the order with these below masks whose elements all
    lie in order, a linear extension of the elements it lists; no Poset
    needed, so a class key can be grown.

    Each x of order in turn joins every ideal grown so far that holds its
    lower set, so after each step the list holds exactly the ideals among
    the elements taken, and every ideal comes after its parent, the ideal
    without the element of it taken last.  The list at most doubles per
    step and is refused as soon as it passes the budget.
    """
    budget = stats.limit()
    ideals = [0]
    for x in order:
        need = below[x]
        bit = 1 << x
        ideals += [ideal | bit for ideal in ideals if ideal & need == need]
        if len(ideals) > budget:
            break
    stats.charge("ideals", len(ideals), _too_many_ideals, budget)
    return ideals


def _ideals_by_size(below: Sequence[int], admitted: int) -> list[int]:
    """The ideals inside admitted, by (cardinality, mask), grown along the
    admitted elements by lower-set size, a linear extension because x < y
    makes below[x] a proper subset of below[y]."""
    ideals = _grow_ideals(below, sorted(iter_bits(admitted), key=lambda e: below[e].bit_count()))
    ideals.sort()
    ideals.sort(key=int.bit_count)  # stable: (cardinality, mask)
    return ideals


def _too_many_ideals(bound: int) -> str:
    return f"more than {bound}^{bound} ideals exceed the enumeration budget"


def enumerate_ideals(p: Poset) -> list[int]:
    """All down-closed subsets as masks, sorted by (cardinality, mask).

    Grown along a linear extension, every element admitted.  The
    (cardinality, mask) order puts the empty set first, the whole set
    last, and containment always means a smaller index.  Raises
    stats.BudgetError past the ideal budget.
    """
    return _ideals_by_size(p.below, p.full_mask)


def omega_natural_ideals(lp: LabeledPoset) -> list[int]:
    """The ideals on which omega is order-preserving, in enumerate_ideals'
    order.  An ideal holds all of a member's lower set, so these are exactly
    the ideals that avoid every element with a larger-labeled element below
    it; they are grown along a linear extension with only the other elements
    admitted.  Raises stats.BudgetError past the same budget."""
    omega = lp.omega
    violated = 0
    for x, above in enumerate(lp.poset.above):
        for y in iter_bits(above & ~violated):
            if omega[y] < omega[x]:
                violated |= 1 << y
    return _ideals_by_size(lp.poset.below, lp.poset.full_mask & ~violated)


def induced_relation(above: Sequence[int], subset: int) -> tuple[int, ...]:
    """The above (or below) masks of the sub-order on subset of the order
    with these above (or below) masks, elements reindexed in mask order.
    Each mask is compressed by closing the gap of every removed element,
    highest first."""
    gaps = [(1 << r) - 1 for r in range(len(above) - 1, -1, -1) if not (subset >> r) & 1]
    masks = []
    for e, up in enumerate(above):
        if (subset >> e) & 1:
            mask = up & subset
            for low in gaps:
                if mask > low:
                    mask = (mask & low) | ((mask >> 1) & ~low)
            masks.append(mask)
    return tuple(masks)


def induced_poset(p: Poset, subset: int) -> Poset:
    """The bare sub-poset on subset, elements reindexed in mask order."""
    return Poset(induced_relation(p.above, subset))


def induced_subposet(lp: LabeledPoset, subset: int) -> LabeledPoset:
    """The labeled sub-poset on subset, labels collapsed to ranks 1..|S|."""
    labels = [lp.omega[e] for e in iter_bits(subset)]
    ranks = {label: r for r, label in enumerate(sorted(labels), 1)}
    return LabeledPoset(induced_poset(lp.poset, subset), tuple(ranks[label] for label in labels))


def canonicalize(lp: LabeledPoset) -> LabeledPoset:
    """Collapse labels to their ranks so the image is exactly 1..n."""
    ranks = {label: r for r, label in enumerate(sorted(lp.omega), 1)}
    return LabeledPoset(lp.poset, tuple(ranks[v] for v in lp.omega))


def canonical_key(lp: LabeledPoset) -> tuple[int, tuple[int, ...]]:
    """A complete invariant of the labeled-poset equivalence class: each
    element's below mask, elements and bits in label-rank order.

    Sorting elements by label rank is forced on any equivalence (the
    isomorphism must preserve relative labels), so the relation masks in
    rank order pin the class exactly.  Below masks let the class recursion
    read each element's lower set straight off the key
    (invariants.complement_keys).  One pass over the above masks sets
    them, with no below masks derived first.
    """
    rank = [0] * lp.size
    for k, e in enumerate(sorted(range(lp.size), key=lp.omega.__getitem__)):
        rank[e] = k
    masks = [0] * lp.size
    for e, up in enumerate(lp.poset.above):
        bit = 1 << rank[e]
        for y in iter_bits(up):
            masks[rank[y]] |= bit
    return (lp.size, tuple(masks))


def _refine_colors(p: Poset) -> list[int]:
    below = p.below
    colors = [0] * p.size
    while True:
        signatures = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in iter_bits(p.above[i]))),
                tuple(sorted(colors[j] for j in iter_bits(below[i]))),
            )
            for i in range(p.size)
        ]
        ranking = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        refined = [ranking[sig] for sig in signatures]
        if refined == colors:
            return colors
        colors = refined


def unlabeled_canonical_key(p: Poset) -> tuple[int, tuple[int, ...]]:
    """A complete isomorphism invariant of the bare poset.

    Color refinement first (comparability multisets), then lex-min of the
    relation masks over all orderings that sort by color and permute only
    within color classes.  Class sizes stay small after refinement at the
    sizes this package works with; the fully symmetric case is the
    antichain, whose empty relation makes every ordering tie immediately.
    """
    colors = _refine_colors(p)
    blocks: dict[int, list[int]] = {}
    for i, c in enumerate(colors):
        blocks.setdefault(c, []).append(i)
    ordered_blocks = [blocks[c] for c in sorted(blocks)]
    if all(len(b) == 1 for b in ordered_blocks) or not any(p.above):
        order = [i for b in ordered_blocks for i in b]
        return (p.size, _relation_under_order(p, order))
    best: tuple[int, ...] | None = None
    for perms in itertools.product(*(itertools.permutations(b) for b in ordered_blocks)):
        order = [i for block in perms for i in block]
        candidate = _relation_under_order(p, order)
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return (p.size, best)


def _relation_under_order(p: Poset, order: Sequence[int]) -> tuple[int, ...]:
    position = {e: k for k, e in enumerate(order)}
    masks = []
    for e in order:
        mask = 0
        for y in iter_bits(p.above[e]):
            mask |= 1 << position[y]
        masks.append(mask)
    return tuple(masks)
