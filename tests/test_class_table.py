"""The one-slot table of large classes that Omega, e/etilde and qsym share.

Classes of more than SMALL_CLASS_MAX points keep their children and integer
coordinates in the slot of the most recent top class.  Every value read
through the slot is compared with a route that shares no class recursion
with it (ideal-graph path counts, the chain assembly of e, direct map
enumeration for qsym) or with the same call made in a fresh interpreter.
"""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from posetpoly import invariants, stats
from posetpoly.bernoulli import bernoulli_numbers_oracle
from posetpoly.catalog import all_posets, labeled_catalog, labeled_classes, posets_up_to
from posetpoly.eulerian import eulerian_from_chains, eulerian_recursive, eulerian_tilde_recursive
from posetpoly.framework import qsym_direct, qsym_recursive
from posetpoly.invariants import (
    SMALL_CLASS_MAX,
    complement_keys,
    labeled_children,
    order_poly_recursive,
    phi,
)
from posetpoly.localized import LocalizedRatio
from posetpoly.omegagraph import build_omega_graph, count_paths
from posetpoly.posets import (
    LabeledPoset,
    Poset,
    canonical_key,
    induced_relation,
    induced_subposet,
    iter_bits,
    make_antichain,
    make_chain,
    make_poset,
    natural_labeling,
    omega_natural_ideals,
)
from posetpoly.unlabeled import order_poly_unlabeled

SRC = Path(__file__).resolve().parent.parent / "src"

A = LabeledPoset(make_poset(7, [(0, 3), (1, 3), (1, 4), (2, 5), (4, 6)]), (4, 7, 1, 6, 2, 5, 3))
B = LabeledPoset(make_poset(6, [(0, 2), (1, 2), (2, 3), (0, 4)]), (2, 6, 1, 5, 3, 4))


def check_against_references(lp):
    """Omega, e, etilde and qsym of lp through the slot, each against a
    route that shares no class recursion with it."""
    n = lp.size
    paths = count_paths(build_omega_graph(lp))
    omega = order_poly_recursive(lp)
    assert [omega(m) for m in range(n + 2)] == [paths.multipath(m) for m in range(n + 2)]
    e = eulerian_from_chains(lp).e
    assert eulerian_recursive(lp) == e
    assert eulerian_tilde_recursive(lp) == LocalizedRatio(e, n + 1)
    assert qsym_recursive(lp, 3) == qsym_direct(lp, 3)


def fresh_values(lp):
    """Omega, e and etilde of lp as computed by a new interpreter."""
    script = (
        "import json, sys\n"
        "from posetpoly.eulerian import eulerian_recursive, eulerian_tilde_recursive\n"
        "from posetpoly.invariants import order_poly_recursive\n"
        "from posetpoly.posets import LabeledPoset, Poset\n"
        "above, omega = json.loads(sys.argv[1])\n"
        "lp = LabeledPoset(Poset(above), omega)\n"
        "print(json.dumps([repr(order_poly_recursive(lp)), repr(eulerian_recursive(lp)),\n"
        "                  repr(eulerian_tilde_recursive(lp))]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    arg = json.dumps([list(lp.poset.above), list(lp.omega)])
    out = subprocess.run(
        [sys.executable, "-c", script, arg], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_the_test_posets_are_large():
    assert A.size > SMALL_CLASS_MAX and B.size > SMALL_CLASS_MAX
    assert canonical_key(A) != canonical_key(B)


def test_alternating_two_classes_keeps_each_ones_values():
    expected = {id(A): fresh_values(A), id(B): fresh_values(B)}
    for lp in (A, B, A):
        check_against_references(lp)
        got = [
            repr(order_poly_recursive(lp)),
            repr(eulerian_recursive(lp)),
            repr(eulerian_tilde_recursive(lp)),
        ]
        assert got == expected[id(lp)]


def test_a_labeling_interleaved_with_its_natural_labeling():
    natural = LabeledPoset(A.poset, natural_labeling(A.poset))
    assert canonical_key(natural) != canonical_key(A)
    weak_paths = count_paths(build_omega_graph(natural))
    for _ in range(2):
        check_against_references(A)
        weak = order_poly_unlabeled(A.poset)
        assert [weak(m) for m in range(A.size + 2)] == [
            weak_paths.multipath(m) for m in range(A.size + 2)
        ]
        check_against_references(natural)


@pytest.mark.parametrize("sequence", [(3, 1, 3), (2, 3), (1, 2, 1)])
def test_qsym_coordinates_follow_a_change_of_nvars(sequence):
    for lp in (A, B):
        order_poly_recursive(lp)  # the slot now holds lp's table
        for nvars in sequence:
            assert qsym_recursive(lp, nvars) == qsym_direct(lp, nvars)


def large_classes_below(lp):
    """The distinct classes of more than SMALL_CLASS_MAX points that the
    recursion reaches from lp, by a walk over labeled_children."""
    start = canonical_key(lp)[1]
    seen = {start}
    pending = [start]
    table = {}
    while pending:
        for child, _, _ in labeled_children(pending.pop(), table, stats.limit()):
            if len(child.key) > SMALL_CLASS_MAX and child.key not in seen:
                seen.add(child.key)
                pending.append(child.key)
    return len(seen)


def test_one_query_expands_each_large_class_once():
    p = make_poset(8, [(0, 4), (1, 4), (2, 5), (3, 6), (5, 7)])
    lp = LabeledPoset(p, (3, 8, 1, 6, 2, 7, 5, 4))
    order_poly_recursive(B)  # the slot holds another class
    stats.reset()
    order_poly_recursive(lp)
    eulerian_recursive(lp)
    eulerian_tilde_recursive(lp)
    qsym_recursive(lp, 3)
    counts = stats.snapshot()
    expected = large_classes_below(lp)
    assert counts["large_class_expansions"] == expected > 1
    assert counts["class_slot_misses"] == 1
    assert counts["class_slot_hits"] == 3
    # the slot holds lp's classes and nothing of the class asked before
    assert invariants._LAST_LARGE.top == canonical_key(lp)[1]
    assert len(invariants._LAST_LARGE.table) == expected


def test_small_top_classes_leave_the_slot_alone():
    small = LabeledPoset(make_poset(4, [(0, 1), (2, 3)]), (2, 1, 4, 3))
    order_poly_recursive(A)
    stats.reset()
    order_poly_recursive(small)
    qsym_recursive(small, 2)
    order_poly_recursive(A)
    counts = stats.snapshot()
    assert counts["class_slot_misses"] == 0
    assert counts["class_slot_hits"] == 1
    assert counts["large_class_expansions"] == 0


def test_path_count_slot_counts_its_hits_and_misses():
    eulerian_from_chains(B)
    stats.reset()
    eulerian_from_chains(A)
    phi(A)
    eulerian_from_chains(B)
    counts = stats.snapshot()
    assert counts["path_slot_misses"] == 2
    assert counts["path_slot_hits"] == 1


def test_reset_zeroes_every_counter_and_snapshot_is_a_copy():
    order_poly_recursive(A)
    stats.reset()
    counts = stats.snapshot()
    assert counts and set(counts.values()) == {0}
    counts["class_slot_hits"] = 99
    assert stats.snapshot()["class_slot_hits"] == 0


def test_bernoulli_oracle_memo_is_bounded():
    maxsize = bernoulli_numbers_oracle.cache_parameters()["maxsize"]
    assert maxsize is not None and maxsize >= 4
    for highest in range(maxsize + 3):
        bernoulli_numbers_oracle(highest)
    assert bernoulli_numbers_oracle.cache_info().currsize <= maxsize


def test_catalog_memo_is_bounded_and_holds_sizes_0_to_6():
    maxsize = all_posets.cache_parameters()["maxsize"]
    assert maxsize is not None and maxsize >= 7
    posets_up_to(6)
    posets_up_to(6)
    info = all_posets.cache_info()
    assert info.currsize <= maxsize
    assert info.hits >= 7  # the second pass reads every size 0..6 from the memo


def seeded_labeled_posets(count, seed, smallest=8, largest=12):
    """count posets of smallest to largest points, covers drawn at random,
    randomly labeled."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(smallest, largest)
        density = rng.choice((0.15, 0.3, 0.5))
        covers = [(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < density]
        labels = list(range(1, size + 1))
        rng.shuffle(labels)
        yield LabeledPoset(make_poset(size, covers), labels)


def representative(key):
    """The class representative labeled 1..n by index, its above masks
    transposed from the key's below masks."""
    above = [0] * len(key)
    for y, below in enumerate(key):
        for x in iter_bits(below):
            above[x] |= 1 << y
    return LabeledPoset(Poset(above), range(1, len(key) + 1))


def reference_children(key):
    """(child key, removed, multiplicity) over every nonempty subset S of the
    class representative that is down-closed and omega-natural, S in
    increasing mask order (the order label-order growth lists them in),
    each child where it first occurs."""
    rep = representative(key)
    full = rep.poset.full_mask
    below = rep.poset.below
    counts = {}
    for subset in range(1, full + 1):
        down_closed = all(below[x] & ~subset == 0 for x in iter_bits(subset))
        if down_closed and rep.is_omega_natural(subset):
            child = (canonical_key(induced_subposet(rep, full ^ subset))[1], subset.bit_count())
            counts[child] = counts.get(child, 0) + 1
    return [(child, removed, mult) for (child, removed), mult in counts.items()]


def test_labeled_children_match_a_subset_reference():
    inputs = [
        *labeled_catalog(5),
        *seeded_labeled_posets(120, 1984, smallest=6, largest=9),
        *seeded_labeled_posets(200, 1972),
    ]
    for lp in inputs:
        key = canonical_key(lp)[1]
        children = labeled_children(key, {}, stats.limit())
        listed = [(child.key, removed, mult) for child, removed, mult in children]
        assert listed == reference_children(key), lp


def test_labeled_children_match_the_subset_reference_on_every_class_up_to_5_points():
    for n in range(6):
        for lp in labeled_classes(n):
            key = canonical_key(lp)[1]
            children = labeled_children(key, {}, stats.limit())
            listed = [(child.key, removed, mult) for child, removed, mult in children]
            assert listed == reference_children(key), lp


def test_squeezed_complement_keys_match_induced_relation_and_the_subset_reference():
    # the labeled catalog up to 5 points, seeded 6-9-point classes and the
    # natural 40-chain, each through its representative labeled 1..n by index
    chain = make_chain(40)
    inputs = [
        *labeled_catalog(5),
        *seeded_labeled_posets(120, 1984, smallest=6, largest=9),
        LabeledPoset(chain, natural_labeling(chain)),
    ]
    for lp in inputs:
        key = canonical_key(lp)[1]
        rep = representative(key)
        assert rep.poset.below == key
        full = rep.poset.full_mask
        # label order grows the ideals in increasing mask order, so each
        # child is counted where it first occurs in that order
        expected = {}
        for ideal in sorted(omega_natural_ideals(rep))[1:]:
            child = induced_relation(key, full ^ ideal)
            assert child == canonical_key(induced_subposet(rep, full ^ ideal))[1]
            expected[child] = expected.get(child, 0) + 1
        assert list(complement_keys(key, stats.limit()).items()) == list(expected.items()), key


def test_the_walk_holds_one_key_per_distinct_child(monkeypatch):
    """The natural 14-antichain has 2^14 ideals and 14 distinct children:
    the walk's traced peak stays under 64 bytes per ideal, where a key
    tuple per ideal took about 130."""
    monkeypatch.setattr(invariants, "_LAST_LARGE", None)
    p = make_antichain(14)
    lp = LabeledPoset(p, natural_labeling(p))
    tracemalloc.start()
    try:
        order_poly_recursive(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**14


def test_one_recursion_reads_the_pinned_counts(monkeypatch):
    """The work of one recursion from empty memos, pinned: listing the
    children from key masks grows the same ideals and expands the same
    classes as listing them from a Poset and a LabeledPoset per class."""
    monkeypatch.setattr(invariants, "_SMALL_LABELED", {})
    monkeypatch.setattr(invariants, "_LAST_LARGE", None)
    lp = list(seeded_labeled_posets(5, 1972))[4]
    assert lp.size == 10
    stats.reset()
    order_poly_recursive(lp)
    counts = stats.snapshot()
    assert counts["ideals"] == 1708
    assert counts["small_class_expansions"] == 35
    assert counts["large_class_expansions"] == 54


def test_the_weak_polynomial_reads_the_pinned_strict_counts(monkeypatch):
    """The weak polynomial from empty memos runs the strict recursion, which
    grows only subsets of minimal elements: 1,685 ideals, where the
    recursion on a natural labeling grows 4,507."""
    monkeypatch.setattr(invariants, "_SMALL_LABELED", {})
    monkeypatch.setattr(invariants, "_LAST_LARGE", None)
    lp = list(seeded_labeled_posets(5, 1972))[4]
    assert lp.size == 10
    stats.reset()
    order_poly_unlabeled(lp.poset)
    assert stats.snapshot()["ideals"] == 1685
