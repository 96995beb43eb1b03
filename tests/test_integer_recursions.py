"""The integer recursions on every labeled class up to 4 points and above
the size of the cross-call class memo.

Every public recursion is compared with a route that shares none of its
code: ideal-graph path counts for the order polynomial, the localized
Eulerian series and the weak order polynomial, the paper's e and etilde
recursions in run_invariant, and direct map enumeration for the
quasi-symmetric value.
"""

import random
import sys
from fractions import Fraction
from math import comb

import pytest

from posetpoly import invariants, omegagraph, stats
from posetpoly.catalog import labeled_classes
from posetpoly.eulerian import eulerian_from_chains, eulerian_recursive, eulerian_tilde_recursive
from posetpoly.framework import (
    etilde_spec,
    eulerian_spec,
    qsym_direct,
    qsym_recursive,
    run_invariant,
)
from posetpoly.invariants import SMALL_CLASS_MAX, order_poly_recursive
from posetpoly.omegagraph import build_omega_graph, count_paths, path_counts
from posetpoly.posets import LabeledPoset, make_chain, make_poset, natural_labeling
from posetpoly.unlabeled import order_poly_unlabeled


def seeded_posets():
    rng = random.Random(20240611)
    posets = []
    for size in (6, 6, 7, 7, 8, 8, 9, 9):
        covers = [(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.3]
        labels = list(range(1, size + 1))
        rng.shuffle(labels)
        posets.append(LabeledPoset(make_poset(size, covers), labels))
    return posets


LARGE = seeded_posets()


def multipaths(lp):
    return count_paths(build_omega_graph(lp))


def series_coefficient(numerator, pole, m):
    return sum(
        c * comb(m - j + pole - 1, pole - 1) for j, c in enumerate(numerator.coeffs) if j <= m
    )


def all_fractions(coeffs):
    return all(type(c) is Fraction for c in coeffs)


@pytest.mark.parametrize("lp", LARGE, ids=lambda lp: f"n{lp.size}")
def test_order_polynomial_matches_multipath_counts(lp):
    paths = multipaths(lp)
    omega = order_poly_recursive(lp)
    assert all_fractions(omega.coeffs)
    for m in range(lp.size + 2):
        assert omega(m) == paths.multipath(m)


@pytest.mark.parametrize("lp", LARGE, ids=lambda lp: f"n{lp.size}")
def test_eulerian_pair_matches_chain_route_and_series(lp):
    n = lp.size
    e = eulerian_recursive(lp)
    assert e == eulerian_from_chains(lp).e
    assert e == run_invariant(eulerian_spec(), lp)
    assert all_fractions(e.coeffs)
    etilde = eulerian_tilde_recursive(lp)
    assert etilde == run_invariant(etilde_spec(), lp)
    assert etilde.pole_order == n + 1
    assert all_fractions(etilde.numerator.coeffs)
    paths = multipaths(lp)
    for m in range(n + 2):
        assert series_coefficient(etilde.numerator, etilde.pole_order, m) == paths.multipath(m)


@pytest.mark.parametrize("lp", LARGE, ids=lambda lp: f"n{lp.size}")
def test_qsym_matches_direct_enumeration(lp):
    for nvars in (1, 2, 3):
        value = qsym_recursive(lp, nvars)
        assert value == qsym_direct(lp, nvars)
        assert all(type(c) is Fraction for _, c in value.terms())


@pytest.mark.parametrize("lp", LARGE, ids=lambda lp: f"n{lp.size}")
def test_weak_polynomial_matches_natural_path_counts(lp):
    paths = multipaths(LabeledPoset(lp.poset, natural_labeling(lp.poset)))
    weak = order_poly_unlabeled(lp.poset)
    assert all_fractions(weak.coeffs)
    for m in range(lp.size + 2):
        assert weak(m) == paths.multipath(m)


def test_every_class_up_to_4_points_matches_path_counts_and_direct_qsym(monkeypatch):
    # empty memos, so the recursion expands every class here itself
    monkeypatch.setattr(invariants, "_SMALL_LABELED", {})
    monkeypatch.setattr(invariants, "_LAST_LARGE", None)
    monkeypatch.setattr(omegagraph, "_LAST_PATHS", None)
    classes = [lp for n in range(5) for lp in labeled_classes(n)]
    assert len(classes) == 243
    for lp in classes:
        n = lp.size
        counts = path_counts(lp)
        values = [counts.multipath(m) for m in range(n + 2)]
        omega = order_poly_recursive(lp)
        assert [omega(m) for m in range(n + 2)] == values, lp
        e = eulerian_recursive(lp)
        assert [series_coefficient(e, n + 1, m) for m in range(n + 2)] == values, lp
        etilde = eulerian_tilde_recursive(lp)
        assert etilde.numerator == e and etilde.pole_order == n + 1, lp
        for nvars in (1, 2, 3):
            assert qsym_recursive(lp, nvars) == qsym_direct(lp, nvars), lp


def test_eulerian_pair_reads_the_order_polynomials_coordinates(monkeypatch):
    monkeypatch.setattr(invariants, "_SMALL_LABELED", {})
    monkeypatch.setattr(invariants, "_LAST_LARGE", None)
    for lp in LARGE:
        order_poly_recursive(lp)
        stats.reset()
        eulerian_recursive(lp)
        eulerian_tilde_recursive(lp)
        counts = stats.snapshot()
        assert counts["small_class_expansions"] == 0
        assert counts["large_class_expansions"] == 0
        assert counts["ideals"] == 0


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_a_long_chain_needs_no_deep_call_stack():
    chain = make_chain(120)
    lp = LabeledPoset(chain, natural_labeling(chain))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)
    try:
        omega = order_poly_recursive(lp)
    finally:
        sys.setrecursionlimit(limit)
    assert [omega(m) for m in range(6)] == [comb(m + 119, 120) for m in range(6)]


def test_cross_call_memos_hold_only_small_classes():
    for lp in LARGE:
        order_poly_recursive(lp)
        eulerian_recursive(lp)
        eulerian_tilde_recursive(lp)
        qsym_recursive(lp, 3)
        order_poly_unlabeled(lp.poset)
    assert invariants._SMALL_LABELED
    for key, record in invariants._SMALL_LABELED.items():
        assert len(key) <= SMALL_CLASS_MAX
        assert len(record.key) <= SMALL_CLASS_MAX


def test_small_classes_keep_their_value_and_large_ones_do_not():
    small = LabeledPoset(make_poset(3, [(0, 2)]), (3, 1, 2))
    assert order_poly_recursive(small) is order_poly_recursive(small)
    assert eulerian_tilde_recursive(small).numerator is eulerian_recursive(small)
    assert qsym_recursive(small, 3) is qsym_recursive(small, 3)
    large = LARGE[0]
    first, again = order_poly_recursive(large), order_poly_recursive(large)
    assert first == again and first is not again
