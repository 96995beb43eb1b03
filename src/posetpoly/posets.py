"""Finite posets on 0..n-1 and injective labelings, all bitmask-backed.

The strict order is stored as per-element masks: above[i] is the set of
elements strictly greater than i (transitively closed at construction).
Subsets of the ground set, ideals included, travel as plain int bitmasks
throughout the package.

A labeling is an injective map to positive integers.  A subset S is
omega-natural when the labeling restricted to S is order-preserving;
the check runs off precomputed per-element violator masks, so testing a
subset costs one mask intersection per member.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

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
    """A finite poset; above[i] masks the elements strictly greater than i."""

    __slots__ = ("size", "above", "below")

    def __init__(self, above: Sequence[int]) -> None:
        self.size = len(above)
        self.above = tuple(above)
        below = [0] * self.size
        for i, mask in enumerate(self.above):
            if mask >> self.size:
                raise ValueError("relation references elements outside the ground set")
            if (mask >> i) & 1:
                raise ValueError("not a partial order: cycle through element %d" % i)
            for j in iter_bits(mask):
                if self.above[j] & ~mask & ~(1 << j):
                    raise ValueError("relation is not transitively closed")
                below[j] |= 1 << i
        self.below = tuple(below)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def less(self, i: int, j: int) -> bool:
        return bool((self.above[i] >> j) & 1)

    def minimum_elements(self) -> int:
        return sum(1 << i for i in range(self.size) if not self.below[i])

    def is_antichain_set(self, subset: int) -> bool:
        """True when no two members of subset are comparable."""
        return all(not (self.above[i] & subset) for i in iter_bits(subset))

    def cover_pairs(self) -> list[tuple[int, int]]:
        pairs = []
        for i in range(self.size):
            for j in iter_bits(self.above[i]):
                if not (self.above[i] & self.below[j]):
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


def make_poset(n: int, covers: Iterable[tuple[int, int]]) -> Poset:
    """Build the poset generated by cover relations low < high; rejects cycles."""
    direct = [0] * n
    for low, high in covers:
        if not (0 <= low < n and 0 <= high < n):
            raise ValueError(f"cover ({low}, {high}) references elements outside 0..{n - 1}")
        if low == high:
            raise ValueError(f"cover ({low}, {high}) relates an element to itself")
        direct[low] |= 1 << high
    # transitive closure by fixed point; a cycle shows up as i above itself
    above = list(direct)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            reach = above[i]
            for j in iter_bits(above[i]):
                reach |= above[j]
            if reach != above[i]:
                above[i] = reach
                changed = True
    for i in range(n):
        if (above[i] >> i) & 1:
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
    """A linear extension, smallest available index first (deterministic)."""
    placed = 0
    order = []
    for _ in range(p.size):
        for i in range(p.size):
            if not ((placed >> i) & 1) and p.below[i] & ~placed == 0:
                order.append(i)
                placed |= 1 << i
                break
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

    __slots__ = ("poset", "omega", "_violators")

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
        # violators[x] = elements above x that carry a smaller label
        self._violators = tuple(
            sum(1 << y for y in iter_bits(poset.above[x]) if omega[y] < omega[x])
            for x in range(poset.size)
        )

    @property
    def size(self) -> int:
        return self.poset.size

    def is_omega_natural(self, subset: int) -> bool:
        return all(not (self._violators[x] & subset) for x in iter_bits(subset))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledPoset):
            return NotImplemented
        return self.poset == other.poset and self.omega == other.omega

    def __hash__(self) -> int:
        return hash((self.poset, self.omega))

    def __repr__(self) -> str:
        return f"LabeledPoset({self.poset!r}, {self.omega!r})"


def enumerate_ideals(p: Poset) -> list[int]:
    """All down-closed subsets as masks, sorted by (cardinality, mask).

    Grown breadth-first: an ideal extends by any minimal element of its
    complement.  The (cardinality, mask) order puts the empty set first,
    the whole set last, and containment always means a smaller index.
    """
    seen = {0}
    frontier = [0]
    while frontier:
        ideal = frontier.pop()
        for x in range(p.size):
            if not ((ideal >> x) & 1) and p.below[x] & ~ideal == 0:
                bigger = ideal | (1 << x)
                if bigger not in seen:
                    seen.add(bigger)
                    frontier.append(bigger)
    return sorted(seen, key=lambda m: (m.bit_count(), m))


def omega_natural_ideals(lp: LabeledPoset) -> list[int]:
    """The ideals on which omega is order-preserving.  An ideal holds all of
    a member's lower set, so these are exactly the ideals that avoid every
    element with a larger-labeled element below it."""
    violated = 0
    for mask in lp._violators:
        violated |= mask
    return [ideal for ideal in enumerate_ideals(lp.poset) if not ideal & violated]


def induced_relation(p: Poset, subset: int) -> tuple[int, ...]:
    """The above masks of the sub-poset on subset, elements reindexed in
    mask order.  Each mask is compressed by closing the gap of every
    removed element, highest first, so the cost grows with what is removed."""
    gaps = [(1 << r) - 1 for r in range(p.size - 1, -1, -1) if not (subset >> r) & 1]
    masks = []
    for e, above in enumerate(p.above):
        if (subset >> e) & 1:
            mask = above & subset
            for low in gaps:
                if mask > low:
                    mask = (mask & low) | ((mask >> 1) & ~low)
            masks.append(mask)
    return tuple(masks)


def induced_poset(p: Poset, subset: int) -> Poset:
    """The bare sub-poset on subset, elements reindexed in mask order."""
    return Poset(induced_relation(p, subset))


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
    """A complete invariant of the labeled-poset equivalence class.

    Sorting elements by label rank is forced on any equivalence (the
    isomorphism must preserve relative labels), so the relation masks in
    rank order pin the class exactly.
    """
    order = sorted(range(lp.size), key=lambda e: lp.omega[e])
    position = {e: k for k, e in enumerate(order)}
    above = []
    for e in order:
        mask = 0
        for y in iter_bits(lp.poset.above[e]):
            mask |= 1 << position[y]
        above.append(mask)
    return (lp.size, tuple(above))


def _refine_colors(p: Poset) -> list[int]:
    colors = [0] * p.size
    while True:
        signatures = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in iter_bits(p.above[i]))),
                tuple(sorted(colors[j] for j in iter_bits(p.below[i]))),
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
