import random
from fractions import Fraction as Fr

import pytest

from posetpoly.catalog import labeled_catalog, standard_labelings
from posetpoly.checks import theta_subposet_check
from posetpoly.invariants import (
    ORACLE_BOUND_ENV,
    ThetaMatrix,
    convolution_check,
    derivative_identity_check,
    omega_from_phi,
    order_poly_bruteforce,
    order_poly_matrix,
    order_poly_recursive,
    phi,
    phi_recursion_check,
    theta_matrix,
)
from posetpoly.matrices import RatMatrix, matrix_log_unipotent
from posetpoly.omegagraph import build_omega_graph
from posetpoly.polynomials import UniPoly
from posetpoly.posets import (
    LabeledPoset,
    make_antichain,
    make_chain,
    make_poset,
    make_shrub,
    natural_labeling,
    reversed_labeling,
)

T = UniPoly.variable()
TRIANGLE_UP = UniPoly([0, Fr(1, 2), Fr(1, 2)])  # t(t+1)/2
TRIANGLE_DOWN = UniPoly([0, Fr(-1, 2), Fr(1, 2)])  # t(t-1)/2
SQUARE_PYRAMIDAL = UniPoly([0, Fr(1, 6), Fr(-1, 2), Fr(1, 3)])  # t(t-1)(2t-1)/6


def natural(p):
    return LabeledPoset(p, natural_labeling(p))


def strict(p):
    return LabeledPoset(p, reversed_labeling(p))


def empty():
    return natural(make_antichain(0))


# --- the three routes on pinned cases ---


def test_routes_on_empty_poset():
    assert order_poly_bruteforce(empty()) == UniPoly([1])
    assert order_poly_matrix(empty()) == UniPoly([1])
    assert order_poly_recursive(empty()) == UniPoly([1])


def test_routes_on_singleton():
    lp = natural(make_chain(1))
    for route in (order_poly_bruteforce, order_poly_matrix, order_poly_recursive):
        assert route(lp) == T


def test_antichains_give_monomials():
    for n in range(5):
        p = make_antichain(n)
        for omega in standard_labelings(p, random_count=2):
            assert order_poly_bruteforce(LabeledPoset(p, omega)) == T**n


def test_two_chain_both_labelings():
    assert order_poly_bruteforce(natural(make_chain(2))) == TRIANGLE_UP
    assert order_poly_bruteforce(strict(make_chain(2))) == TRIANGLE_DOWN
    assert order_poly_recursive(natural(make_chain(2))) == TRIANGLE_UP
    assert order_poly_recursive(strict(make_chain(2))) == TRIANGLE_DOWN


def test_strict_shrub_two_matrix_route():
    assert order_poly_matrix(strict(make_shrub(2))) == SQUARE_PYRAMIDAL


def test_triple_route_agreement_small_catalog():
    for lp in labeled_catalog(4):
        brute = order_poly_bruteforce(lp)
        assert order_poly_matrix(lp) == brute
        assert order_poly_recursive(lp) == brute


def _dense_labeled_poset(rng, n):
    """A random order on n elements with about 2 in 5 pairs related, drawn
    along a shuffled linear extension, under a random labeling."""
    rank = list(range(n))
    rng.shuffle(rank)
    covers = [(rank[a], rank[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
    omega = list(range(1, n + 1))
    rng.shuffle(omega)
    return LabeledPoset(make_poset(n, covers), omega)


def test_matrix_route_reads_the_source_row_of_theta():
    """order_poly_matrix exponentiates only Θ's source row; the full Θ and
    the recursion must give the same polynomial."""
    rng = random.Random(5150)
    inputs = labeled_catalog(5) + [_dense_labeled_poset(rng, 8 + k % 3) for k in range(20)]
    for lp in inputs:
        theta = theta_matrix(lp)
        expected = theta.entry(theta.graph.source, theta.graph.sink)
        assert order_poly_matrix(lp) == expected == order_poly_recursive(lp), lp


def test_oracle_bound_env_override(monkeypatch):
    lp = natural(make_chain(4))
    monkeypatch.setenv(ORACLE_BOUND_ENV, "3")
    with pytest.raises(ValueError):
        order_poly_bruteforce(lp)
    monkeypatch.setenv(ORACLE_BOUND_ENV, "4")
    assert order_poly_bruteforce(lp) == order_poly_recursive(lp)
    monkeypatch.setenv(ORACLE_BOUND_ENV, "eight")
    with pytest.raises(ValueError):
        order_poly_bruteforce(lp)


def test_order_poly_values_at_zero_and_one():
    for lp in labeled_catalog(4):
        if lp.size == 0:
            continue
        poly = order_poly_recursive(lp)
        assert poly(0) == 0
        expected = 1 if lp.is_omega_natural(lp.poset.full_mask) else 0
        assert poly(1) == expected


def test_degree_and_leading_coefficient():
    for lp in labeled_catalog(4):
        poly = order_poly_recursive(lp)
        if lp.size == 0:
            continue
        assert poly.degree == lp.size
        scaled = poly.coeffs[-1] * _factorial(lp.size)
        assert scaled.denominator == 1 and scaled > 0


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# --- Theta matrix coherence ---


def test_theta_diagonal_and_support():
    lp = strict(make_shrub(2))
    theta = theta_matrix(lp)
    ideals = theta.graph.ideals
    for i, small in enumerate(ideals):
        assert theta.entry(i, i) == UniPoly([1])
        for j, big in enumerate(ideals):
            if small & big != small:
                assert not theta.entry(i, j)


def test_theta_subposet_coherence_samples():
    rng = random.Random(8080)
    sample = labeled_catalog(4)
    rng.shuffle(sample)
    for lp in sample[:20]:
        assert theta_subposet_check(theta_matrix(lp))
    # both chains have three ideals, but the natural one's order polynomial is not the strict one's
    natural_entries = theta_matrix(natural(make_chain(2))).entries
    strict_theta = theta_matrix(strict(make_chain(2)))
    assert not theta_subposet_check(ThetaMatrix(strict_theta.graph, natural_entries))


def test_theta_integer_powers():
    for lp in (natural(make_shrub(2)), strict(make_chain(3)), natural(make_antichain(3))):
        theta = theta_matrix(lp)
        base = theta.entries.eval_at(1)
        power = RatMatrix.identity(base.dimension)
        for n in range(6):
            assert theta.entries.eval_at(n) == power
            power = power * base


# --- phi ---


def test_phi_base_values():
    assert phi(empty()) == 0
    assert phi(natural(make_chain(1))) == 1


def test_phi_strict_two_chain():
    assert phi(strict(make_chain(2))) == Fr(-1, 2)


def test_phi_natural_antichain_two():
    assert phi(natural(make_antichain(2))) == 0


def test_phi_is_t_coefficient_and_log_entry():
    for lp in labeled_catalog(3):
        if lp.size == 0:
            continue
        value = phi(lp)
        poly = order_poly_recursive(lp)
        assert value == (poly.coeffs[1] if poly.degree >= 1 else 0)
        graph = build_omega_graph(lp)
        log = matrix_log_unipotent(graph.adjacency())
        assert value == log.entry(0, len(graph.ideals) - 1)


# --- structural identities ---


def test_convolution_singleton_and_antichain():
    assert convolution_check(natural(make_chain(1)))
    assert convolution_check(natural(make_antichain(2)))


def test_convolution_on_catalog():
    for lp in labeled_catalog(3):
        assert convolution_check(lp)


def test_phi_recursion_singleton():
    assert phi_recursion_check(natural(make_chain(1)))


def test_phi_recursion_strict_two_chain():
    # phi(P) + (1/2)·phi(•)² = -1/2 + 1/2 = 0 and P is not omega-natural
    assert phi_recursion_check(strict(make_chain(2)))


def test_phi_recursion_on_catalog():
    for lp in labeled_catalog(3):
        if lp.size == 0:
            continue
        assert phi_recursion_check(lp)


def test_omega_from_phi_pinned_cases():
    assert omega_from_phi(natural(make_chain(1))) == T
    assert omega_from_phi(natural(make_antichain(2))) == T * T


def test_omega_from_phi_matches_recursive():
    for lp in labeled_catalog(3):
        if lp.size == 0:
            continue
        assert omega_from_phi(lp) == order_poly_recursive(lp)


def test_derivative_identity_singleton():
    assert derivative_identity_check(natural(make_chain(1)))


def test_derivative_identity_natural_antichain():
    assert derivative_identity_check(natural(make_antichain(2)))


def test_derivative_identity_on_catalog():
    for lp in labeled_catalog(3):
        if lp.size == 0:
            continue
        assert derivative_identity_check(lp)
