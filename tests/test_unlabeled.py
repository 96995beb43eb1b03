from fractions import Fraction

import pytest

from posetpoly.catalog import posets_up_to
from posetpoly.invariants import order_poly_recursive
from posetpoly.polynomials import UniPoly, delta_inverse
from posetpoly.posets import (
    LabeledPoset,
    iter_bits,
    make_antichain,
    make_chain,
    make_shrub,
    natural_labeling,
    reversed_labeling,
)
from posetpoly.unlabeled import (
    UnlabeledInvariantSpec,
    count_subcalls,
    order_poly_unlabeled,
    reciprocity_check,
    run_unlabeled,
    signed_order_poly_nabla,
    strict_order_poly,
    strict_value_at_one_check,
)

HALF = Fraction(1, 2)


def extension_labeling(p, from_top=False):
    """A linear-extension labeling, breaking ties low or high."""
    remaining = p.full_mask
    order = []
    while remaining:
        mins = [
            e
            for e in iter_bits(remaining)
            if not (p.below[e] & remaining & ~(1 << e))
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
            assert weak == order_poly_recursive(LabeledPoset(p, omega))
            assert strict == order_poly_recursive(
                LabeledPoset(p, flipped(omega, p.size))
            )


def test_builtin_labelings_are_extension_labelings():
    for p in posets_up_to(4):
        assert natural_labeling(p) == extension_labeling(p)
        assert reversed_labeling(p) == flipped(extension_labeling(p), p.size)


def test_minimal_flavor_needs_fewer_subcalls():
    for p in posets_up_to(5):
        assert count_subcalls(p, "minimal") <= count_subcalls(p, "ideals")
    assert count_subcalls(make_chain(3), "minimal") < count_subcalls(
        make_chain(3), "ideals"
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        UnlabeledInvariantSpec(
            name="bad", base=UniPoly([1]), operator=lambda v: v, flavor="nope"
        )


def test_specs_sharing_a_name_do_not_share_values():
    chain = make_chain(2)
    weak = UnlabeledInvariantSpec(
        name="weak", base=UniPoly([1]), operator=delta_inverse, flavor="ideals"
    )
    doubled = UnlabeledInvariantSpec(
        name="weak", base=UniPoly([1]), operator=lambda v: 2 * delta_inverse(v), flavor="ideals"
    )
    assert order_poly_unlabeled(chain) == UniPoly([0, HALF, HALF])
    assert run_unlabeled(weak, chain) == UniPoly([0, HALF, HALF])
    assert run_unlabeled(doubled, chain) == UniPoly([0, 0, 2])
    assert run_unlabeled(weak, chain) == UniPoly([0, HALF, HALF])
