"""Exhaustive small-poset catalogs and deterministic labeling batteries.

Posets on n elements are generated up to isomorphism by enumerating every
subset of the upward pairs (i, j), i < j, as a candidate cover relation,
closing transitively with posets.add_cover (one mask OR per element of each
cover's down-set and up-set), and deduplicating by canonical form.  Every
isomorphism class contains a representative whose order respects the index
order (take any linear extension), so this enumeration is exhaustive.

Labelings per poset: one natural, one reversed, plus a seeded batch of
pseudo-random injections, so suites exercise mixed labelings reproducibly.
labeled_classes lists every labeled class instead: each catalog poset under
every permutation of 1..n, deduplicated by canonical_key.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from posetpoly.posets import (
    LabeledPoset,
    Poset,
    add_cover,
    canonical_key,
    natural_labeling,
    reversed_labeling,
    unlabeled_canonical_key,
)

__all__ = [
    "all_posets",
    "posets_up_to",
    "standard_labelings",
    "labeled_catalog",
    "labeled_classes",
]

_LABEL_SEED = 20260815


@lru_cache(maxsize=7)
def all_posets(n: int) -> tuple[Poset, ...]:
    """All posets with n elements, one representative per isomorphism class.

    The last 7 sizes asked are kept: check --max-size 6 cycles through the
    sizes 0..6 once per check, and a smaller memo would miss every time."""
    if n == 0:
        return (Poset([]),)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen_relations: set[tuple[int, ...]] = set()
    by_key: dict[tuple, Poset] = {}
    for picks in itertools.product((False, True), repeat=len(pairs)):
        above, below = [0] * n, [0] * n
        for low, high in itertools.compress(pairs, picks):
            add_cover(above, below, low, high)
        relation = tuple(above)
        if relation in seen_relations:
            continue
        seen_relations.add(relation)
        poset = Poset(above)
        key = unlabeled_canonical_key(poset)
        if key not in by_key:
            by_key[key] = poset
    return tuple(by_key[key] for key in sorted(by_key))


def posets_up_to(max_size: int) -> list[Poset]:
    return [p for n in range(max_size + 1) for p in all_posets(n)]


def standard_labelings(p: Poset, random_count: int = 3, seed: int = _LABEL_SEED) -> list[tuple[int, ...]]:
    """Natural, reversed, then random_count seeded random labelings."""
    batch = [natural_labeling(p), reversed_labeling(p)]
    rng = random.Random(f"{seed}:{p.above}")
    for _ in range(random_count):
        labels = list(range(1, p.size + 1))
        rng.shuffle(labels)
        batch.append(tuple(labels))
    return batch


def labeled_catalog(max_size: int) -> list[LabeledPoset]:
    """Every catalog poset of size <= max_size under the standard labelings,
    three of them random."""
    out = []
    for p in posets_up_to(max_size):
        for omega in standard_labelings(p):
            out.append(LabeledPoset(p, omega))
    return out


def labeled_classes(n: int) -> list[LabeledPoset]:
    """One labeled poset per labeled class on n points (1, 1, 3, 19, 219 and
    4,231 for n = 0..5): every catalog poset under every labeling by 1..n,
    the first of each class kept.  Isomorphic posets fall in the same
    classes, so one representative per isomorphism class reaches them all."""
    by_key: dict[tuple, LabeledPoset] = {}
    for p in all_posets(n):
        for omega in itertools.permutations(range(1, n + 1)):
            lp = LabeledPoset(p, omega)
            by_key.setdefault(canonical_key(lp), lp)
    return list(by_key.values())
