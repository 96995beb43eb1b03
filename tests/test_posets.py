import random

import pytest

from posetpoly.catalog import posets_up_to, standard_labelings
from posetpoly.posets import (
    ORACLE_BOUND_ENV,
    LabeledPoset,
    Poset,
    canonical_key,
    canonicalize,
    enumerate_ideals,
    induced_subposet,
    iter_bits,
    linear_extension,
    make_antichain,
    make_chain,
    make_poset,
    make_shrub,
    natural_labeling,
    omega_natural_ideals,
    reversed_labeling,
    unlabeled_canonical_key,
)


def random_poset(rng: random.Random, n: int) -> Poset:
    covers = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return make_poset(n, covers)


def all_subsets(n: int):
    return range(1 << n)


# --- construction ---


def test_iter_bits():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []


def test_make_chain():
    p = make_chain(3)
    assert p.less(0, 1) and p.less(1, 2) and p.less(0, 2)
    assert not p.less(1, 0)


def test_make_antichain():
    p = make_antichain(2)
    assert not p.less(0, 1) and not p.less(1, 0)
    assert make_antichain(0).size == 0


def test_make_poset_closes_transitively():
    p = make_poset(4, [(0, 1), (1, 2), (2, 3)])
    assert p.less(0, 3)


def test_make_poset_rejects_cycle():
    with pytest.raises(ValueError):
        make_poset(3, [(0, 1), (1, 2), (2, 0)])


def test_make_poset_rejects_bad_indices():
    with pytest.raises(ValueError):
        make_poset(2, [(0, 2)])
    with pytest.raises(ValueError):
        make_poset(2, [(1, 1)])


def test_poset_constructor_requires_closed_relation():
    with pytest.raises(ValueError):
        Poset([0b010, 0b100, 0])  # 0<1, 1<2 without 0<2


def test_shrub_shape():
    assert make_shrub(0).size == 1
    s2 = make_shrub(2)
    assert s2.less(0, 1) and s2.less(0, 2)
    assert not s2.less(1, 2) and not s2.less(2, 1)


def test_cover_pairs():
    assert make_chain(3).cover_pairs() == [(0, 1), (1, 2)]
    assert set(make_shrub(2).cover_pairs()) == {(0, 1), (0, 2)}


# --- labelings ---


def test_labelings_on_chain():
    p = make_chain(3)
    assert natural_labeling(p) == (1, 2, 3)
    assert reversed_labeling(p) == (3, 2, 1)


def test_labelings_on_shrub():
    p = make_shrub(2)
    assert natural_labeling(p)[0] == 1
    assert reversed_labeling(p)[0] == 3


def test_linear_extension_respects_order():
    rng = random.Random(31337)
    for _ in range(20):
        p = random_poset(rng, rng.randint(1, 7))
        order = linear_extension(p)
        pos = {e: k for k, e in enumerate(order)}
        for i in range(p.size):
            for j in iter_bits(p.above[i]):
                assert pos[i] < pos[j]


def reference_linear_extension(p: Poset) -> list[int]:
    """At each step the smallest unplaced index whose lower set is placed."""
    placed = 0
    order = []
    for _ in range(p.size):
        for i in range(p.size):
            if not ((placed >> i) & 1) and p.below[i] & ~placed == 0:
                order.append(i)
                placed |= 1 << i
                break
    return order


def relabeled(p: Poset, perm: list[int]) -> Poset:
    """p with element i renamed perm[i]."""
    above = [0] * p.size
    for i in range(p.size):
        above[perm[i]] = sum(1 << perm[j] for j in iter_bits(p.above[i]))
    return Poset(above)


def test_linear_extension_matches_the_smallest_index_first_reference():
    rng = random.Random(4242)
    posets = []
    for p in posets_up_to(6):
        perm = list(range(p.size))
        rng.shuffle(perm)
        posets += [p, relabeled(p, perm)]
    for _ in range(200):
        n = rng.randint(1, 12)
        perm = list(range(n))
        rng.shuffle(perm)
        posets.append(relabeled(random_poset(rng, n), perm))
    for p in posets:
        assert linear_extension(p) == reference_linear_extension(p)


def test_labeling_validation():
    p = make_chain(2)
    with pytest.raises(ValueError):
        LabeledPoset(p, (1, 1))
    with pytest.raises(ValueError):
        LabeledPoset(p, (0, 1))
    with pytest.raises(ValueError):
        LabeledPoset(p, (1,))


# --- omega-natural subsets ---


def test_natural_labeling_makes_everything_natural():
    rng = random.Random(777)
    for _ in range(15):
        p = random_poset(rng, rng.randint(0, 6))
        lp = LabeledPoset(p, natural_labeling(p))
        assert all(lp.is_omega_natural(s) for s in all_subsets(p.size))


def test_strict_labeling_natural_iff_antichain():
    rng = random.Random(888)
    for _ in range(15):
        p = random_poset(rng, rng.randint(0, 5))
        lp = LabeledPoset(p, reversed_labeling(p))
        for s in all_subsets(p.size):
            assert lp.is_omega_natural(s) == p.is_antichain_set(s)


def test_inverted_two_chain_not_natural():
    lp = LabeledPoset(make_chain(2), (2, 1))
    assert not lp.is_omega_natural(0b11)
    assert lp.is_omega_natural(0b01)
    assert lp.is_omega_natural(0)


# --- ideals ---


def test_ideals_of_chain():
    assert enumerate_ideals(make_chain(3)) == [0b000, 0b001, 0b011, 0b111]


def test_ideals_of_antichain():
    assert enumerate_ideals(make_antichain(2)) == [0b00, 0b01, 0b10, 0b11]


def test_ideals_of_shrub():
    assert enumerate_ideals(make_shrub(2)) == [0b000, 0b001, 0b011, 0b101, 0b111]


def test_ideal_counts_of_families():
    for n in range(11):
        assert len(enumerate_ideals(make_chain(n))) == n + 1
        assert len(enumerate_ideals(make_antichain(n))) == 2**n
        assert len(enumerate_ideals(make_shrub(n))) == 2**n + 1


def test_ideals_match_bruteforce_downclosed_filter():
    # every catalog poset up to 6 points; the omega-natural ideals under each
    # standard labeling are the down-closed subsets is_omega_natural accepts
    for p in posets_up_to(6):
        brute = [
            s
            for s in all_subsets(p.size)
            if all(p.below[x] & ~s == 0 for x in iter_bits(s))
        ]
        brute.sort(key=lambda m: (m.bit_count(), m))
        assert enumerate_ideals(p) == brute
        for omega in standard_labelings(p):
            lp = LabeledPoset(p, omega)
            assert omega_natural_ideals(lp) == [s for s in brute if lp.is_omega_natural(s)]


def test_ideal_order_respects_containment():
    rng = random.Random(55)
    for _ in range(10):
        p = random_poset(rng, 5)
        ideals = enumerate_ideals(p)
        pos = {m: k for k, m in enumerate(ideals)}
        for a in ideals:
            for b in ideals:
                if a != b and a & b == a:
                    assert pos[a] < pos[b]


def test_omega_natural_ideals():
    p = make_shrub(3)
    # root 0 below leaves 1..3: every ideal holds the root, and under a
    # natural labeling every one is omega-natural
    natural = LabeledPoset(p, natural_labeling(p))
    assert omega_natural_ideals(natural) == [
        0b0000, 0b0001, 0b0011, 0b0101, 0b1001, 0b0111, 0b1011, 0b1101, 0b1111
    ]
    # leaves 1 and 3 carry labels below the root's 3, so only leaf 2 is admitted
    mixed = LabeledPoset(p, (3, 2, 4, 1))
    assert omega_natural_ideals(mixed) == [0, 0b0001, 0b0101]
    strict = LabeledPoset(p, reversed_labeling(p))
    assert omega_natural_ideals(strict) == [0, 0b0001]


def test_ideal_budget(monkeypatch):
    # with bound B at most B^B ideals: 3^3 = 27 admits the 16 of a
    # 4-antichain and refuses the 32 of a 5-antichain
    monkeypatch.setenv(ORACLE_BOUND_ENV, "3")
    four, five = make_antichain(4), make_antichain(5)
    assert len(enumerate_ideals(four)) == 16
    assert len(omega_natural_ideals(LabeledPoset(four, natural_labeling(four)))) == 16
    with pytest.raises(ValueError, match=ORACLE_BOUND_ENV):
        enumerate_ideals(five)
    with pytest.raises(ValueError, match=ORACLE_BOUND_ENV):
        omega_natural_ideals(LabeledPoset(five, natural_labeling(five)))
    # the budget counts the ideals grown: the 6-point shrub has 33 ideals,
    # and under a strict labeling only the root is admitted
    shrub = make_shrub(5)
    with pytest.raises(ValueError, match=ORACLE_BOUND_ENV):
        enumerate_ideals(shrub)
    assert omega_natural_ideals(LabeledPoset(shrub, reversed_labeling(shrub))) == [0, 1]


# --- minimum elements and induced subposets ---


def test_minimum_elements():
    assert make_chain(4).minimum_elements() == 0b0001
    assert make_antichain(3).minimum_elements() == 0b111
    assert make_shrub(2).minimum_elements() == 0b001


def test_induced_subposet_drops_root():
    lp = LabeledPoset(make_shrub(2), (1, 2, 3))
    sub = induced_subposet(lp, 0b110)
    assert sub.poset == make_antichain(2)
    assert sub.omega == (1, 2)


def test_induced_subposet_collapses_labels():
    lp = LabeledPoset(make_chain(3), (2, 5, 1))
    sub = induced_subposet(lp, 0b101)
    assert sub.poset == make_chain(2)
    assert sub.omega == (2, 1)


# --- canonicalization ---


def test_canonicalize_collapses_labels():
    p = make_chain(2)
    assert canonicalize(LabeledPoset(p, (3, 7))).omega == (1, 2)
    assert canonicalize(LabeledPoset(p, (7, 3))).omega == (2, 1)


def test_canonicalize_idempotent():
    rng = random.Random(99)
    for _ in range(10):
        p = random_poset(rng, 4)
        labels = rng.sample(range(1, 50), 4)
        once = canonicalize(LabeledPoset(p, tuple(labels)))
        assert canonicalize(once) == once


def test_canonical_key_identifies_equivalent_labelings():
    chain_up = LabeledPoset(make_poset(2, [(0, 1)]), (3, 9))
    chain_up_canonical = LabeledPoset(make_poset(2, [(0, 1)]), (1, 2))
    chain_flipped = LabeledPoset(make_poset(2, [(1, 0)]), (2, 1))
    assert canonical_key(chain_up) == canonical_key(chain_up_canonical)
    assert canonical_key(chain_up) == canonical_key(chain_flipped)
    strict = LabeledPoset(make_poset(2, [(0, 1)]), (2, 1))
    assert canonical_key(strict) != canonical_key(chain_up)


def test_canonical_key_invariant_under_relabeling_elements():
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.randint(1, 6)
        p = random_poset(rng, n)
        labels = tuple(rng.sample(range(1, 30), n))
        lp = LabeledPoset(p, labels)
        perm = list(range(n))
        rng.shuffle(perm)
        above = [0] * n
        for i in range(n):
            for j in iter_bits(p.above[i]):
                above[perm[i]] |= 1 << perm[j]
        relabeled = LabeledPoset(
            Poset(above), tuple(labels[perm.index(k)] for k in range(n))
        )
        assert canonical_key(lp) == canonical_key(relabeled)


def test_unlabeled_canonical_key_separates_shapes():
    vee = make_poset(3, [(0, 1), (0, 2)])
    wedge = make_poset(3, [(1, 0), (2, 0)])
    chain = make_chain(3)
    keys = {unlabeled_canonical_key(x) for x in (vee, wedge, chain, make_antichain(3))}
    assert len(keys) == 4


def test_unlabeled_canonical_key_invariant_under_permutation():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 6)
        p = random_poset(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        above = [0] * n
        for i in range(n):
            for j in iter_bits(p.above[i]):
                above[perm[i]] |= 1 << perm[j]
        assert unlabeled_canonical_key(p) == unlabeled_canonical_key(Poset(above))


def test_unlabeled_canonical_relation_is_its_own_canonical_form():
    # the weak-polynomial recursion keys raw relations and canonical
    # relations in one table, which is sound only under this idempotence
    rng = random.Random(12)
    for _ in range(40):
        p = random_poset(rng, rng.randint(0, 8))
        relation = unlabeled_canonical_key(p)[1]
        assert unlabeled_canonical_key(Poset(relation))[1] == relation
