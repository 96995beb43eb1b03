from fractions import Fraction

import pytest

from posetpoly.bernoulli import strict_shrub
from posetpoly.catalog import labeled_catalog
from posetpoly.eulerian import (
    LAMBDA,
    ONE_MINUS_LAMBDA,
    antichain_eulerian_binomial,
    antichain_eulerian_derivative,
    chain_identity_check,
    eulerian_descent_oracle,
    eulerian_from_chains,
    eulerian_recursive,
    eulerian_series_check,
    eulerian_tilde_recursive,
)
from posetpoly.localized import LocalizedRatio
from posetpoly.omegagraph import build_omega_graph, count_paths
from posetpoly.polynomials import UniPoly
from posetpoly.posets import (
    LabeledPoset,
    make_antichain,
    make_chain,
    make_poset,
    natural_labeling,
    reversed_labeling,
)


def natural(p):
    return LabeledPoset(p, natural_labeling(p))


def strict(p):
    return LabeledPoset(p, reversed_labeling(p))


def test_empty_poset_pair():
    pair = eulerian_from_chains(natural(make_antichain(0)))
    assert pair.e == UniPoly([1])
    assert pair.etilde == LocalizedRatio(UniPoly([1]), 1)


def test_pinned_values_from_chain_route():
    assert eulerian_from_chains(natural(make_chain(1))).e == LAMBDA
    # doubleton antichain: one saturated pair of paths plus the long jump
    assert eulerian_from_chains(natural(make_antichain(2))).e == UniPoly([0, 1, 1])
    assert eulerian_from_chains(strict(make_chain(2))).e == UniPoly([0, 0, 1])


def test_labeling_changes_the_polynomial():
    p = make_chain(2)
    assert eulerian_from_chains(natural(p)).e == LAMBDA
    assert eulerian_from_chains(strict(p)).e == LAMBDA * LAMBDA


def test_tilde_pinned_values():
    pair = eulerian_from_chains(natural(make_chain(1)))
    assert pair.etilde == LocalizedRatio(LAMBDA, 2)
    pair = eulerian_from_chains(strict(make_chain(2)))
    assert pair.etilde == LocalizedRatio(LAMBDA * LAMBDA, 3)


def test_recursive_route_matches_chain_route():
    for lp in labeled_catalog(4):
        assert eulerian_recursive(lp) == eulerian_from_chains(lp).e


def test_tilde_recursive_matches_chain_route():
    for lp in labeled_catalog(4):
        assert eulerian_tilde_recursive(lp) == eulerian_from_chains(lp).etilde


def _pair_inputs():
    yield from labeled_catalog(4)
    for leaves in range(1, 7):
        yield strict_shrub(leaves)


def test_tilde_is_e_with_maximal_pole():
    # e(1) = c_|P| >= 1, so e/(1-λ)^(|P|+1) is already canonical
    for lp in _pair_inputs():
        pair = eulerian_from_chains(lp)
        lifted = LocalizedRatio(ONE_MINUS_LAMBDA ** (lp.size + 1), 0) * pair.etilde
        assert lifted == LocalizedRatio(pair.e, 0)
        assert pair.etilde.pole_order == lp.size + 1
        assert pair.etilde.numerator == pair.e


def test_closed_form_matches_binomial_sum():
    for lp in _pair_inputs():
        c = count_paths(build_omega_graph(lp)).c
        n = lp.size
        expected = UniPoly()
        for k, ck in enumerate(c):
            expected = expected + ck * LAMBDA**k * ONE_MINUS_LAMBDA ** (n - k)
        e = eulerian_from_chains(lp).e
        assert e == expected
        assert all(type(coeff) is Fraction for coeff in e.coeffs)


def test_series_expansion_singleton():
    # order polynomial t, so the series starts lambda + 2 lambda^2 + ...
    lp = natural(make_chain(1))
    assert eulerian_series_check(lp, 4)


def test_series_expansion_small_catalog():
    for lp in labeled_catalog(3):
        assert eulerian_series_check(lp, 2 * lp.size + 2)


def test_series_check_rejects_short_truncation():
    lp = natural(make_antichain(2))
    with pytest.raises(ValueError):
        eulerian_series_check(lp, lp.size + 1)


def test_interior_chain_identity_on_catalog():
    for lp in labeled_catalog(4):
        if lp.size == 0:
            continue
        assert chain_identity_check(lp)


def test_chain_identity_rejects_empty():
    with pytest.raises(ValueError):
        chain_identity_check(natural(make_antichain(0)))


def test_vee_poset_pair():
    # two minimal elements under a common top
    p = make_poset(3, [(0, 2), (1, 2)])
    pair = eulerian_from_chains(natural(p))
    assert pair.e == eulerian_recursive(natural(p))
    assert pair.e(1) == count_paths(build_omega_graph(natural(p))).c[3]


def test_e_coefficients_are_nonnegative_integers():
    for lp in labeled_catalog(4):
        for c in eulerian_from_chains(lp).e.coeffs:
            assert c.denominator == 1
            assert c >= 0


def test_e_at_one_counts_saturated_paths():
    for lp in labeled_catalog(4):
        counts = count_paths(build_omega_graph(lp))
        assert eulerian_from_chains(lp).e(1) == counts.c[lp.size]


def test_antichain_binomial_recursion_pinned():
    assert antichain_eulerian_binomial(1) == LAMBDA
    assert antichain_eulerian_binomial(2) == UniPoly([0, 1, 1])
    assert antichain_eulerian_binomial(3) == UniPoly([0, 1, 4, 1])


def test_antichain_routes_agree():
    for n in range(1, 9):
        binomial = antichain_eulerian_binomial(n)
        assert binomial == antichain_eulerian_derivative(n)
        if n <= 6:
            lp = natural(make_antichain(n))
            assert binomial == eulerian_from_chains(lp).e


def test_descent_oracle_matches():
    assert eulerian_descent_oracle(3) == UniPoly([0, 1, 4, 1])
    for n in range(1, 8):
        assert eulerian_descent_oracle(n) == antichain_eulerian_binomial(n)


def test_antichain_value_at_one_is_factorial():
    fact = 1
    for n in range(1, 9):
        fact *= n
        assert antichain_eulerian_binomial(n)(1) == fact


def test_tilde_of_antichain_pair_is_not_a_product():
    # the tilde invariant of a disjoint union is not the product of the parts
    one = eulerian_tilde_recursive(natural(make_chain(1)))
    two = eulerian_tilde_recursive(natural(make_antichain(2)))
    assert two != one * one
    assert two == LocalizedRatio(UniPoly([0, 1, 1]), 3)
    assert one * one == LocalizedRatio(UniPoly([0, 0, 1]), 4)
