"""Identities checked above the oracle bound, where no brute-force count can
run: on seeded disjoint unions P ⊔ Q of 11 to 16 points with random labels,
the recursion's order polynomial must match the path counts of the ideal
graph, and must factor as Ω(P ⊔ Q) = Ω(P)·Ω(Q).  Two faults planted in the
recursion, each firing only at 11 or more points, must be reported.
"""

import random

import pytest

from posetpoly import invariants, omegagraph
from posetpoly.invariants import order_poly_recursive
from posetpoly.omegagraph import path_counts
from posetpoly.posets import LabeledPoset, induced_subposet, make_poset

PARTS = [(5, 6), (6, 7), (7, 8), (8, 8)]
FAULTY_FROM = 11  # the planted faults fire on posets of at least this many points


def random_union(rng: random.Random, a: int, b: int) -> LabeledPoset:
    """A random poset on 0..a-1 beside one on a..a+b-1, randomly labeled."""
    n = a + b
    covers = [
        (i, j)
        for low, high in ((0, a), (a, n))
        for i in range(low, high)
        for j in range(i + 1, high)
        if rng.random() < 0.4
    ]
    return LabeledPoset(make_poset(n, covers), rng.sample(range(1, n + 1), n))


def union_faults(seed: int) -> list[str]:
    """The identities each seeded union breaks, as 'size: identity'."""
    rng = random.Random(seed)
    faults = []
    for a, b in PARTS:
        lp = random_union(rng, a, b)
        omega = order_poly_recursive(lp)
        counts = path_counts(lp)
        if any(omega(m) != counts.multipath(m) for m in range(lp.size + 2)):
            faults.append(f"{lp.size}: recursion against path counts")
        left = (1 << a) - 1
        parts = [induced_subposet(lp, mask) for mask in (left, lp.poset.full_mask ^ left)]
        if omega != order_poly_recursive(parts[0]) * order_poly_recursive(parts[1]):
            faults.append(f"{lp.size}: product over the parts")
    return faults


def drop_a_pair_ideal(monkeypatch):
    grow = invariants.complement_keys

    def dropping(key, budget):
        children = grow(key, budget)
        pairs = [child for child in children if len(child) == len(key) - 2]
        if len(key) >= FAULTY_FROM and pairs:
            children[pairs[0]] -= 1
            if not children[pairs[0]]:
                del children[pairs[0]]
        return children

    monkeypatch.setattr(invariants, "complement_keys", dropping)


def blank_a_key_mask(monkeypatch):
    key_of = invariants.canonical_key

    def blanking(lp):
        size, masks = key_of(lp)
        if size >= FAULTY_FROM:
            k = next(k for k, mask in enumerate(masks) if mask)
            masks = masks[:k] + (0,) + masks[k + 1 :]
        return size, masks

    monkeypatch.setattr(invariants, "canonical_key", blanking)


@pytest.mark.parametrize("plant", [None, drop_a_pair_ideal, blank_a_key_mask])
def test_unions_above_the_oracle_bound(monkeypatch, plant):
    # empty slots, so no case reads a table or counts another case left behind
    monkeypatch.setattr(invariants, "_LAST_LARGE", None)
    monkeypatch.setattr(omegagraph, "_LAST_PATHS", None)
    if plant is None:
        assert union_faults(2024) == []
        return
    plant(monkeypatch)
    reported = union_faults(2024)
    for a, b in PARTS:
        assert f"{a + b}: recursion against path counts" in reported
        assert f"{a + b}: product over the parts" in reported
