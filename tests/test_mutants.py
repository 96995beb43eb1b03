"""A standing mutant battery: named faults planted by monkeypatch, and a
kill matrix that pins which named checks each one fails.

Every check compares a recursion with another route, on every labeled
class up to 4 points and a few seeded classes of 6 to 9 points, from empty
memos, so a planted fault cannot hide behind a value computed before it
was planted.  Where the two sides of a check share code, a mutant of that
code survives it, and the kill matrix says so.  A mutant that raises in a
check counts as failing that check.

The class walk's growth and squeeze (invariants.complement_keys), the
order in which class_coordinates computes its records, and
LabeledPoset.is_omega_natural are mutated in their own source, so a mutant
is the code as it stands with one fault planted, and an edit that no longer
matches fails loudly.  Only the flag sums of phi read is_omega_natural.

Two mutants are left out because they are equivalent, so no check can kill
them:

- dropping the skip of an element whose lower set holds a later element:
  growth in label order never admits such an element anyway, since no
  ideal grown so far holds that later element;
- squeezing every mask, without the shortcut for a mask at or below low:
  the squeeze leaves such a mask as it is.
"""

import inspect
import random
import textwrap

import pytest

from posetpoly import eulerian, framework, invariants, omegagraph, unlabeled
from posetpoly.catalog import labeled_classes
from posetpoly.eulerian import (
    eulerian_from_chains,
    eulerian_recursive,
    eulerian_series_check,
    eulerian_tilde_recursive,
)
from posetpoly.framework import etilde_spec, run_invariant
from posetpoly.invariants import order_poly_recursive, phi_recursion_check
from posetpoly.omegagraph import path_counts
from posetpoly.posets import LabeledPoset, make_poset, natural_labeling
from posetpoly.unlabeled import order_poly_unlabeled


def seeded_classes():
    rng = random.Random(1616)
    for size in (6, 7, 8, 9):
        covers = [(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.3]
        yield LabeledPoset(make_poset(size, covers), rng.sample(range(1, size + 1), size))


INPUTS = [lp for n in range(5) for lp in labeled_classes(n)] + list(seeded_classes())


def values(lp, poly):
    return [poly(m) for m in range(lp.size + 2)]


def multipaths(lp):
    counts = path_counts(lp)
    return [counts.multipath(m) for m in range(lp.size + 2)]


CHECKS = {
    "recursion against path counts": lambda lp: (
        values(lp, order_poly_recursive(lp)) == multipaths(lp)
    ),
    "weak polynomial against natural path counts": lambda lp: (
        values(lp, order_poly_unlabeled(lp.poset))
        == multipaths(LabeledPoset(lp.poset, natural_labeling(lp.poset)))
    ),
    # shares the closed form of e from the counts with the recursive route
    "e against chains": lambda lp: eulerian_recursive(lp) == eulerian_from_chains(lp).e,
    "eulerian series": lambda lp: eulerian_series_check(lp, lp.size + 2),
    "etilde against its spec": lambda lp: (
        eulerian_tilde_recursive(lp) == run_invariant(etilde_spec(), lp)
    ),
    # the flag sums of phi collapse to 1 exactly when the labeling is
    # omega-natural, the one check that reads is_omega_natural
    "flag sums": lambda lp: lp.size == 0 or phi_recursion_check(lp),
}


def passes(check):
    try:
        return all(map(check, INPUTS))
    except Exception:  # a mutant that raises fails the check it raises in
        return False


def failed_checks(monkeypatch):
    monkeypatch.setattr(invariants, "_SMALL_LABELED", {})
    monkeypatch.setattr(invariants, "_LAST_LARGE", None)
    monkeypatch.setattr(omegagraph, "_LAST_PATHS", None)
    return {name for name, check in CHECKS.items() if not passes(check)}


def mutate(monkeypatch, owner, name, *edits):
    """Replace owner.name, a module's function or a class's method, by its
    own source with each (old, new) edit made, each old occurring in it
    exactly once; the copy reads the globals of the module that defines it."""
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in edits:
        assert source.count(old) == 1, f"{old!r} does not occur once in {name}"
        source = source.replace(old, new)
    defined: dict = {}
    exec(source, function.__globals__, defined)
    monkeypatch.setattr(owner, name, defined[name])
    return defined[name]


# x sits at position x - |I ∩ {0..x-1}| of the complement of I, which is
# x - |I| only when I lies below x, as in label order
GENERAL_GAP = ("gap = x - ideal.bit_count()", "gap = x - (ideal & (bit - 1)).bit_count()")


def grow_in_reverse_label_order(monkeypatch):
    mutate(
        monkeypatch,
        invariants,
        "complement_keys",
        ("in enumerate(key):", "in reversed(list(enumerate(key))):"),
        GENERAL_GAP,
    )


def admit_on_any_of_the_lower_set(monkeypatch):
    mutate(
        monkeypatch,
        invariants,
        "complement_keys",
        ("if ideal & need == need:", "if not need or ideal & need:"),
    )


def squeeze_gap_off_by_one(monkeypatch):
    # counts x + 1 too, where there is one
    mutate(
        monkeypatch,
        invariants,
        "complement_keys",
        ("gap = x - ideal.bit_count()", "gap = x - ideal.bit_count() + (x + 1 < len(key))"),
    )


def compute_in_reverse_pop_order(monkeypatch):
    # a record can then be computed before a child it reaches by another path
    mutant = mutate(
        monkeypatch,
        invariants,
        "class_coordinates",
        ("in sorted(pending, key=lambda r: len(r.key)):", "in reversed(pending):"),
    )
    for module in (eulerian, framework, unlabeled):
        monkeypatch.setattr(module, "class_coordinates", mutant)


def skip_a_related_pair(monkeypatch):
    # each x's lowest related y in the subset goes unchecked
    mutate(
        monkeypatch,
        LabeledPoset,
        "is_omega_natural",
        (
            "iter_bits(above[x] & subset)",
            "iter_bits(above[x] & subset & ((above[x] & subset) - 1))",
        ),
    )


def reflect_with_the_sign_flipped(monkeypatch):
    reflect = unlabeled.reflected_coordinates
    monkeypatch.setattr(unlabeled, "reflected_coordinates", lambda c: tuple(-w for w in reflect(c)))


def shift_the_eulerian_counts(monkeypatch):
    closed_form = eulerian._eulerian_from_counts
    monkeypatch.setattr(
        eulerian, "_eulerian_from_counts", lambda n, counts: closed_form(n, (0, *counts[:-1]))
    )


ALL = set(CHECKS)
# the checks that run a class recursion
RECURSION = ALL - {"flag sums"}
# the strict recursion behind the weak polynomial admits only minimal
# elements, which every growth order admits on an empty lower set
GROWTH = RECURSION - {"weak polynomial against natural path counts"}

# mutant -> the checks it fails
KILLS = {
    grow_in_reverse_label_order: GROWTH,
    admit_on_any_of_the_lower_set: GROWTH,
    squeeze_gap_off_by_one: RECURSION,
    # raises where a record's coordinates are read before they are computed
    compute_in_reverse_pop_order: RECURSION,
    skip_a_related_pair: {"flag sums"},
    reflect_with_the_sign_flipped: {"weak polynomial against natural path counts"},
    # the shift survives "e against chains", whose sides share the closed form
    shift_the_eulerian_counts: {"eulerian series", "etilde against its spec"},
}


def test_the_unmutated_code_passes_every_check(monkeypatch):
    assert failed_checks(monkeypatch) == set()


@pytest.mark.parametrize("mutant", KILLS, ids=lambda mutant: mutant.__name__)
def test_each_mutant_fails_its_named_checks(monkeypatch, mutant):
    mutant(monkeypatch)
    failed = failed_checks(monkeypatch)
    assert failed, f"{mutant.__name__} survived every check"
    assert failed == KILLS[mutant]
