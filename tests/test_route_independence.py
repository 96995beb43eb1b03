"""Route independence, in small: the class walk grows its own ideals
(invariants.complement_keys), and run_invariant lists its own through
posets.omega_natural_ideals, so neither route runs the other's growth.

With posets._grow_ideals made to raise, the integer class recursions must
still return, from empty memos, the values computed before by routes that
do not recurse over classes.  With invariants.labeled_children made to
raise, run_invariant must still agree with the recursion.
"""

import random

import pytest

from posetpoly import invariants, omegagraph, posets
from posetpoly.eulerian import eulerian_from_chains, eulerian_tilde_recursive
from posetpoly.framework import etilde_spec, qsym_direct, qsym_recursive, run_invariant
from posetpoly.invariants import order_poly_recursive
from posetpoly.omegagraph import path_counts
from posetpoly.posets import LabeledPoset, make_poset, natural_labeling
from posetpoly.unlabeled import order_poly_unlabeled


def seeded_posets():
    rng = random.Random(1212)
    for size in (6, 7, 8, 9):
        covers = [(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.3]
        yield LabeledPoset(make_poset(size, covers), rng.sample(range(1, size + 1), size))


INPUTS = list(seeded_posets())


def refuse(*_):
    raise AssertionError("this route ran another route's growth")


def empty_memos(monkeypatch):
    monkeypatch.setattr(invariants, "_SMALL_LABELED", {})
    monkeypatch.setattr(invariants, "_LAST_LARGE", None)
    monkeypatch.setattr(omegagraph, "_LAST_PATHS", None)


def values(lp, poly):
    return [poly(m) for m in range(lp.size + 2)]


def multipaths(lp):
    counts = path_counts(lp)
    return [counts.multipath(m) for m in range(lp.size + 2)]


@pytest.mark.parametrize("lp", INPUTS, ids=lambda lp: f"{lp.size} points")
def test_the_class_recursions_grow_no_ideals_through_posets(monkeypatch, lp):
    natural = LabeledPoset(lp.poset, natural_labeling(lp.poset))
    expected = (
        multipaths(lp),
        eulerian_from_chains(lp).etilde,
        qsym_direct(lp, 3),
        multipaths(natural),
    )
    monkeypatch.setattr(posets, "_grow_ideals", refuse)
    empty_memos(monkeypatch)
    recursive = (
        values(lp, order_poly_recursive(lp)),
        eulerian_tilde_recursive(lp),
        qsym_recursive(lp, 3),
        values(lp, order_poly_unlabeled(lp.poset)),
    )
    assert recursive == expected


@pytest.mark.parametrize("lp", INPUTS, ids=lambda lp: f"{lp.size} points")
def test_run_invariant_walks_no_class_children(monkeypatch, lp):
    expected = eulerian_tilde_recursive(lp)
    monkeypatch.setattr(invariants, "labeled_children", refuse)
    empty_memos(monkeypatch)
    assert run_invariant(etilde_spec(), lp) == expected
