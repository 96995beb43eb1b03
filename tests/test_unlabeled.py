from fractions import Fraction

import pytest

from posetpoly import unlabeled
from posetpoly.catalog import labeled_catalog, posets_up_to
from posetpoly.invariants import (
    binomial_step,
    class_coordinates,
    order_poly_bruteforce,
    reflected_coordinates,
    top_record,
)
from posetpoly.polynomials import UniPoly
from posetpoly.posets import (
    LabeledPoset,
    iter_bits,
    make_antichain,
    make_chain,
    make_poset,
    make_shrub,
    natural_labeling,
    reversed_labeling,
)
from posetpoly.unlabeled import (
    count_subcalls,
    order_poly_unlabeled,
    reciprocity_check,
    signed_order_poly_nabla,
    strict_order_poly,
    strict_value_at_one_check,
)

HALF = Fraction(1, 2)


def extension_labeling(p, from_top=False):
    """A linear-extension labeling, breaking ties low or high."""
    below = p.below
    remaining = p.full_mask
    order = []
    while remaining:
        mins = [
            e
            for e in iter_bits(remaining)
            if not (below[e] & remaining & ~(1 << e))
        ]
        pick = max(mins) if from_top else min(mins)
        order.append(pick)
        remaining ^= 1 << pick
    omega = [0] * p.size
    for rank, e in enumerate(order, 1):
        omega[e] = rank
    return tuple(omega)


def flipped(omega, n):
    return tuple(n + 1 - v for v in omega)


def test_weak_pinned_values():
    assert order_poly_unlabeled(make_antichain(0)) == UniPoly([1])
    assert order_poly_unlabeled(make_chain(1)) == UniPoly([0, 1])
    assert order_poly_unlabeled(make_chain(2)) == UniPoly([0, HALF, HALF])
    for n in range(1, 5):
        assert order_poly_unlabeled(make_antichain(n)) == UniPoly.variable() ** n


def test_strict_pinned_values():
    assert strict_order_poly(make_antichain(0)) == UniPoly([1])
    assert strict_order_poly(make_chain(2)) == UniPoly([0, -HALF, HALF])
    for n in range(1, 5):
        assert strict_order_poly(make_antichain(n)) == UniPoly.variable() ** n
    # sum of squares below t for the two-leaf shrub
    assert strict_order_poly(make_shrub(2)) == UniPoly(
        [0, Fraction(1, 6), -HALF, Fraction(1, 3)]
    )


def test_signed_pinned_values():
    assert signed_order_poly_nabla(make_antichain(0)) == UniPoly([1])
    assert signed_order_poly_nabla(make_chain(1)) == UniPoly([0, -1])
    assert signed_order_poly_nabla(make_antichain(2)) == UniPoly([0, 0, 1])


def test_signed_route_is_signed_weak():
    for p in posets_up_to(5):
        sign = -1 if p.size % 2 else 1
        assert signed_order_poly_nabla(p) == sign * order_poly_unlabeled(p)


def test_reciprocity():
    for p in posets_up_to(5):
        if p.size == 0:
            continue
        assert reciprocity_check(p)
    with pytest.raises(ValueError):
        reciprocity_check(make_antichain(0))


def test_value_pins_at_one_and_minus_one():
    assert strict_order_poly(make_antichain(3))(1) == 1
    assert order_poly_unlabeled(make_antichain(3))(-1) == -1
    assert strict_order_poly(make_chain(2))(1) == 0
    for p in posets_up_to(5):
        if p.size == 0:
            continue
        assert strict_value_at_one_check(p)
    with pytest.raises(ValueError):
        strict_value_at_one_check(make_antichain(0))


def test_agreement_with_labeled_routes():
    for p in posets_up_to(4):
        weak = order_poly_unlabeled(p)
        strict = strict_order_poly(p)
        for from_top in (False, True):
            omega = extension_labeling(p, from_top)
            assert weak == order_poly_bruteforce(LabeledPoset(p, omega))
            assert strict == order_poly_bruteforce(
                LabeledPoset(p, flipped(omega, p.size))
            )


def test_builtin_labelings_are_extension_labelings():
    for p in posets_up_to(4):
        assert natural_labeling(p) == extension_labeling(p)
        assert reversed_labeling(p) == flipped(extension_labeling(p), p.size)


def test_the_reflection_checks_do_not_read_the_weak_route(monkeypatch):
    """Both checks take their weak side from the recursion on a natural
    labeling: a fault planted in the weak route's reflection breaks the
    route and leaves the checks true."""
    monkeypatch.setattr(unlabeled, "reflected_coordinates", lambda coords: coords)
    assert order_poly_unlabeled(make_chain(2)) != UniPoly([0, HALF, HALF])
    for p in posets_up_to(4):
        if p.size:
            assert reciprocity_check(p) and strict_value_at_one_check(p)


def test_minimal_flavor_needs_fewer_subcalls():
    for p in posets_up_to(5):
        assert count_subcalls(p, "minimal") <= count_subcalls(p, "ideals")
    assert count_subcalls(make_chain(3), "minimal") < count_subcalls(
        make_chain(3), "ideals"
    )


def test_subcall_counts_of_the_demo_posets():
    diamond = make_poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    for p, ideals, minimal in ((make_chain(4), 10, 4), (make_shrub(2), 8, 5), (diamond, 12, 6)):
        assert count_subcalls(p, "ideals") == ideals
        assert count_subcalls(p, "minimal") == minimal


def test_count_subcalls_rejects_unknown_flavor():
    with pytest.raises(ValueError, match="nope"):
        count_subcalls(make_chain(2), "nope")


def omega_coordinates(lp):
    record, table = top_record(lp)
    return class_coordinates(record, "omega", binomial_step, table)


def test_reflected_coordinates_are_the_complementary_labelings():
    """Omega(P, complementary labeling; t) = (-1)^|P| Omega(P, omega; -t) on
    every labeled catalog poset, in integer binomial coordinates: the
    reflection of one recursion's coordinates against another recursion."""
    cases = 0
    for lp in labeled_catalog(5):
        if lp.size == 0:
            continue
        top = max(lp.omega) + 1
        complementary = LabeledPoset(lp.poset, tuple(top - w for w in lp.omega))
        assert reflected_coordinates(omega_coordinates(lp)) == omega_coordinates(complementary)
        cases += 1
    assert cases == 435
