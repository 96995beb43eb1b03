"""Seeded input generation for the benchmark streams.

Every input is poset text in the `posetfile` format (elements, labels,
covers) plus a record of its size, ideal count and count of ideal pairs
I ⊆ J, so two commits can confirm that they saw identical inputs.  This module uses only the
standard library: the generator never calls the package it measures.

Random streams are stratified.  Element count and target pair count come
from one golden-ratio (low-discrepancy) sequence instead of independent
draws: every prefix of it covers the size range almost evenly.  The seed
picks the sequence's offset and every random choice of relations and
labels, so different seeds give different posets, but any run of N
queries sees nearly the same mix of sizes whatever the seed.  Query cost
grows steeply with both sizes, so independent draws would let one seed's
run hold many more expensive inputs than another's.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Iterator

GOLDEN = 0.6180339887498949
ATTEMPTS = 1000  # a chain of n elements already has (n+1)(n+2)/2 ideal pairs


@dataclass(frozen=True)
class PosetInput:
    """One query's input: its text and what the generator knows about it."""

    index: int
    kind: str  # "labeled" or "shrub"
    text: str
    size: int
    ideals: int
    pairs: int

    def record(self) -> dict:
        digest = hashlib.sha256(self.text.encode()).hexdigest()[:16]
        return {
            "index": self.index,
            "kind": self.kind,
            "size": self.size,
            "ideals": self.ideals,
            "pairs": self.pairs,
            "sha256": digest,
        }


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class IdealCounter:
    """Counts over the ideals of sub-posets of one poset, by splitting on
    whether the lowest remaining element is in the ideal."""

    def __init__(self, above: list[int], below: list[int]) -> None:
        self.above, self.below = above, below
        self._counts: dict[int, int] = {0: 1}

    def count(self, rest: int) -> int:
        """Ideals of the sub-poset on rest."""
        hit = self._counts.get(rest)
        if hit is None:
            bit = rest & -rest
            x = bit.bit_length() - 1
            hit = self.count(rest & ~(self.above[x] | bit)) + self.count(rest & ~(self.below[x] | bit))
            self._counts[rest] = hit
        return hit

    def ideals(self) -> list[int]:
        n = len(self.above)
        found, seen = [0], {0}
        for ideal in found:
            for x in iter_bits(((1 << n) - 1) & ~ideal):
                bigger = ideal | (1 << x)
                if not self.below[x] & ~ideal and bigger not in seen:
                    seen.add(bigger)
                    found.append(bigger)
        return found

    def pairs(self) -> int:
        """Pairs of ideals I ⊆ J: the entries of the Theta matrix, and the
        (sub-poset, ideal) steps an ideal recursion without memo hits takes."""
        return sum(self.count(ideal) for ideal in self.ideals())


def render(above: list[int], below: list[int], labels: list[int]) -> str:
    lines = [f"elements: {len(above)}"]
    if labels:
        lines.append("labels: " + " ".join(map(str, labels)))
    for low, mask in enumerate(above):
        for high in iter_bits(mask):
            if not above[low] & below[high]:
                lines.append(f"{low} < {high}")
    return "\n".join(lines) + "\n"


def _pair_targeted_order(rng: random.Random, n: int, target: int, tolerance: float) -> tuple[list[int], list[int], int, int]:
    """A random order on n elements with about target pairs of ideals I ⊆ J.

    The pair count predicts query cost better than the ideal count does:
    it is the number of (sub-poset, ideal) steps of an ideal recursion and
    of nonzero Theta entries.  Relations are added in random order along a
    hidden linear extension; each one can only lower the count, so the walk
    stops at the first count under the band and starts over when it has
    overshot below it.  Pairs run about ideals^1.6 or more, which lets the walk
    skip counting pairs while the cheap ideal count is still large.
    """
    high, low = target * (1 + tolerance), target * (1 - tolerance)
    for _ in range(ATTEMPTS):
        rank = list(range(n))
        rng.shuffle(rank)
        pairs = [(rank[a], rank[b]) for a in range(n) for b in range(a + 1, n)]
        rng.shuffle(pairs)
        above, below = [0] * n, [0] * n
        ideals, measure = 1 << n, 3**n
        for x, y in pairs:
            if measure <= high:
                break
            if (above[x] >> y) & 1:
                continue
            downs = below[x] | (1 << x)
            ups = above[y] | (1 << y)
            for u in iter_bits(downs):
                above[u] |= ups
            for v in iter_bits(ups):
                below[v] |= downs
            counter = IdealCounter(above, below)
            ideals = counter.count((1 << n) - 1)
            if ideals**1.5 <= high:
                measure = counter.pairs()
        if low <= measure <= high:
            return above, below, ideals, measure
    raise ValueError(f"no order on {n} elements found with about {target} ideal pairs")


def random_posets(
    seed: int,
    tag: str,
    sizes: tuple[int, ...],
    pairs: tuple[int, int],
    shrub_every: int = 0,
    shrub_leaves: tuple[int, ...] = (),
    tolerance: float = 0.05,
) -> Iterator[PosetInput]:
    """Endless stream of random labeled posets, with strictly labeled
    shrubs (leaf counts taken in turn) as every shrub_every-th input.

    Input i takes u = frac(offset + i·φ); u picks the element count and,
    within it, the target count of ideal pairs I ⊆ J, log-uniform over the
    range.  Labels are a random permutation.
    """
    rng = random.Random(f"{tag}:{seed}")
    offset = rng.random()
    low, high = pairs
    shrubs = 0
    for index in itertools.count():
        if shrub_every and index % shrub_every == shrub_every - 1:
            yield _shrub(rng, index, shrub_leaves[shrubs % len(shrub_leaves)])
            shrubs += 1
            continue
        position = (offset + index * GOLDEN) % 1.0 * len(sizes)
        n = sizes[int(position)]
        target = round(low * (high / low) ** (position % 1.0))
        above, below, count, measure = _pair_targeted_order(rng, n, target, tolerance)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        yield PosetInput(index, "labeled", render(above, below, labels), n, count, measure)


def _shrub(rng: random.Random, index: int, leaves: int) -> PosetInput:
    """Root below every leaf, labeled strictly: the root carries the top label."""
    n = leaves + 1
    root = rng.randrange(n)
    above, below = [0] * n, [0] * n
    for leaf in range(n):
        if leaf != root:
            above[root] |= 1 << leaf
            below[leaf] |= 1 << root
    leaf_labels = list(range(1, n))
    rng.shuffle(leaf_labels)
    labels = [n if e == root else leaf_labels.pop() for e in range(n)]
    counter = IdealCounter(above, below)
    return PosetInput(index, "shrub", render(above, below, labels), n, counter.count((1 << n) - 1), counter.pairs())


def catalog_posets(entries: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> Iterator[PosetInput]:
    """Endless sweeps over (relation masks, labels) pairs in the given order."""
    texts = []
    for above, labels in entries:
        n = len(above)
        below = [0] * n
        for low, mask in enumerate(above):
            for high in iter_bits(mask):
                below[high] |= 1 << low
        counter = IdealCounter(list(above), below)
        texts.append((render(list(above), below, list(labels)), n, counter.count((1 << n) - 1), counter.pairs()))
    index = 0
    while True:
        for text, n, count, pairs in texts:
            yield PosetInput(index, "labeled", text, n, count, pairs)
            index += 1
