import random
from math import factorial

import pytest

from posetpoly import omegagraph
from posetpoly.bernoulli import strict_shrub
from posetpoly.catalog import labeled_catalog, posets_up_to, standard_labelings
from posetpoly.eulerian import eulerian_from_chains
from posetpoly.invariants import order_poly_recursive, phi
from posetpoly.matrices import RatMatrix
from posetpoly.omegagraph import (
    build_omega_graph,
    chain_polynomial,
    count_paths,
    path_counts,
    to_dot,
)
from posetpoly.polynomials import UniPoly
from posetpoly.posets import (
    ORACLE_BOUND_ENV,
    LabeledPoset,
    enumerate_ideals,
    make_antichain,
    make_chain,
    make_poset,
    make_shrub,
    natural_labeling,
    reversed_labeling,
)


def natural(p):
    return LabeledPoset(p, natural_labeling(p))


def strict(p):
    return LabeledPoset(p, reversed_labeling(p))


# --- graph construction ---


def test_singleton_graph():
    g = build_omega_graph(natural(make_chain(1)))
    assert g.ideals == (0b0, 0b1)
    assert g.arc_count() == 1
    assert g.has_arc(0, 1)


def test_natural_antichain_two():
    g = build_omega_graph(natural(make_antichain(2)))
    arcs = {(i, j) for i, succ in enumerate(g.successors) for j in succ}
    # ideals in order: {}, {0}, {1}, {0,1}
    assert arcs == {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}


def test_strict_two_chain_graph():
    g = build_omega_graph(strict(make_chain(2)))
    arcs = {(i, j) for i, succ in enumerate(g.successors) for j in succ}
    assert arcs == {(0, 1), (1, 2)}


def test_adjacency_strictly_upper_triangular():
    for lp in labeled_catalog(4):
        assert build_omega_graph(lp).adjacency().is_strictly_upper_triangular()


def _graph_by_definition(lp):
    """Ideals and sorted successors straight from the definition: an arc
    I -> J exactly when I is a proper subset of J and J \\ I is omega-natural."""
    ideals = enumerate_ideals(lp.poset)
    successors = tuple(
        tuple(
            j
            for j, big in enumerate(ideals)
            if small != big and small & big == small and lp.is_omega_natural(big & ~small)
        )
        for small in ideals
    )
    return tuple(ideals), successors


def _sparse_poset(rng, n):
    """A random sparse order on n elements, relations drawn along a shuffled
    linear extension so that element indices are not in order."""
    rank = list(range(n))
    rng.shuffle(rank)
    covers = [(rank[a], rank[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 1.5 / n]
    return make_poset(n, covers)


def _small_inputs():
    for p in posets_up_to(5):
        for omega in standard_labelings(p):
            yield LabeledPoset(p, omega)
    for leaves in range(1, 9):
        yield strict_shrub(leaves)


def _seeded_labeled_posets(seed, sizes):
    """Sparse posets of the given sizes under random labelings."""
    rng = random.Random(seed)
    for n in sizes:
        p = _sparse_poset(rng, n)
        omega = list(range(1, n + 1))
        rng.shuffle(omega)
        yield LabeledPoset(p, omega)


def _equivalence_inputs():
    yield from _small_inputs()
    yield from _seeded_labeled_posets(2003, (10, 10, 11, 11, 12, 12))


def test_graph_matches_definition():
    for lp in _equivalence_inputs():
        g = build_omega_graph(lp)
        assert (g.ideals, g.successors) == _graph_by_definition(lp), lp


def test_empty_poset_graph():
    g = build_omega_graph(natural(make_antichain(0)))
    assert g.ideals == (0,)
    assert g.arc_count() == 0


# --- path counts ---


@pytest.fixture
def empty_slot(monkeypatch):
    """path_counts with no cached class, so every call runs its search."""
    monkeypatch.setattr(omegagraph, "_LAST_PATHS", None)


def test_path_counts_natural_antichain():
    counts = count_paths(build_omega_graph(natural(make_antichain(2))))
    assert counts.c == (0, 1, 2)


def test_path_counts_strict_two_chain():
    counts = count_paths(build_omega_graph(strict(make_chain(2))))
    assert counts.c == (0, 0, 1)


def test_path_counts_singleton_and_empty():
    assert count_paths(build_omega_graph(natural(make_chain(1)))).c == (0, 1)
    assert count_paths(build_omega_graph(natural(make_antichain(0)))).c == (1,)


def _stirling2(n):
    """Row n of the Stirling numbers of the second kind, by S(m, k) =
    k·S(m-1, k) + S(m-1, k-1)."""
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, m)] + [1]
    return row


def test_packed_counts_natural_antichain(empty_slot):
    # every subset of a naturally labeled antichain is omega-natural, so paths
    # of length k are ordered set partitions into k blocks: the widest digits
    for n in range(13):
        stirling = _stirling2(n)
        expected = tuple(factorial(k) * stirling[k] for k in range(n + 1))
        lp = natural(make_antichain(n))
        assert count_paths(build_omega_graph(lp)).c == expected
        assert path_counts(lp).c == expected


def _paths_by_matrix_powers(graph):
    """c_k as the (source, sink) entry of A^k."""
    adjacency = graph.adjacency()
    power = RatMatrix.identity(len(graph.ideals))
    counts = []
    for _ in range(graph.labeled_poset.size + 1):
        counts.append(power.entry(graph.source, graph.sink))
        power = power * adjacency
    return tuple(counts)


def test_packed_counts_match_adjacency_powers():
    for lp in _small_inputs():
        g = build_omega_graph(lp)
        assert count_paths(g).c == _paths_by_matrix_powers(g), lp


def test_multipath_routes_agree():
    rng = random.Random(606)
    sample = labeled_catalog(3)
    rng.shuffle(sample)
    for lp in sample[:12]:
        g = build_omega_graph(lp)
        counts = count_paths(g)
        step = RatMatrix.identity(len(g.ideals)) + g.adjacency()
        power = RatMatrix.identity(len(g.ideals))
        for n in range(11):
            assert counts.multipath(n) == power.entry(g.source, g.sink)
            power = power * step


@pytest.fixture
def counted_searches(monkeypatch, empty_slot):
    """Count runs of path_counts' search, starting from an empty slot."""
    searches = []
    original = omegagraph._search_path_counts

    def counting(lp):
        searches.append(lp)
        return original(lp)

    monkeypatch.setattr(omegagraph, "_search_path_counts", counting)
    return searches


def test_eulerian_then_phi_search_once(counted_searches):
    lp = LabeledPoset(make_shrub(3), (2, 4, 1, 3))
    eulerian_from_chains(lp)
    phi(lp)
    assert len(counted_searches) == 1


def test_path_counts_slot_keyed_by_class(counted_searches):
    a = LabeledPoset(make_shrub(2), (3, 1, 2))
    a_again = LabeledPoset(make_poset(3, [(2, 0), (2, 1)]), (10, 20, 30))  # a, renumbered and relabeled
    b = strict(make_chain(3))
    expected_a = count_paths(build_omega_graph(a))
    expected_b = count_paths(build_omega_graph(b))
    assert expected_a != expected_b
    assert path_counts(a) == expected_a
    assert path_counts(a_again) == expected_a
    assert len(counted_searches) == 1
    assert path_counts(b) == expected_b
    assert path_counts(a) == expected_a
    assert path_counts(b) == expected_b
    assert len(counted_searches) == 4


# --- path_counts' own search against the explicit graph ---


def test_path_counts_match_explicit_graph(empty_slot):
    inputs = [
        *_equivalence_inputs(),
        strict_shrub(9),
        strict_shrub(10),
        *_seeded_labeled_posets(4004, [11, 12, 13] * 6 + [11, 12]),
    ]
    for lp in inputs:
        omegagraph._LAST_PATHS = None
        assert path_counts(lp).c == count_paths(build_omega_graph(lp)).c, lp


def test_path_counts_share_no_code_with_the_reference(empty_slot, monkeypatch):
    lp = LabeledPoset(make_poset(5, [(0, 2), (1, 2), (1, 3), (3, 4)]), (4, 1, 5, 3, 2))
    expected = count_paths(build_omega_graph(lp))

    def refuse(*args):
        raise AssertionError("path_counts must not use the explicit graph's code")

    monkeypatch.setattr(omegagraph, "build_omega_graph", refuse)
    monkeypatch.setattr(omegagraph, "enumerate_ideals", refuse)
    assert path_counts(lp) == expected


def test_path_counts_ideal_budget(empty_slot, monkeypatch):
    # the search grows its own ideal list under the same B^B budget
    monkeypatch.setenv(ORACLE_BOUND_ENV, "3")
    assert path_counts(natural(make_antichain(4))).c == (0, 1, 14, 36, 24)
    with pytest.raises(ValueError, match=ORACLE_BOUND_ENV):
        path_counts(natural(make_antichain(5)))


def test_path_counts_multipaths_are_order_polynomial_values(empty_slot):
    # the ideal recursion shares neither search nor ideal list with path_counts
    for lp in _seeded_labeled_posets(5005, [8, 9, 10] * 3 + [10]):
        omegagraph._LAST_PATHS = None
        counts = path_counts(lp)
        omega = order_poly_recursive(lp)
        for m in range(lp.size + 2):
            assert counts.multipath(m) == omega(m), (lp, m)


# --- chain polynomial of the interior graph ---


def test_chain_polynomial_singleton():
    g = build_omega_graph(natural(make_chain(1)))
    assert chain_polynomial(g) == UniPoly([1])


def test_chain_polynomial_small_cases():
    assert chain_polynomial(build_omega_graph(natural(make_antichain(2)))) == UniPoly([1, 2])
    assert chain_polynomial(build_omega_graph(natural(make_chain(2)))) == UniPoly([1, 1])
    assert chain_polynomial(build_omega_graph(strict(make_chain(2)))) == UniPoly([0, 1])
    assert chain_polynomial(build_omega_graph(strict(make_chain(3)))) == UniPoly([0, 0, 1])


def test_chain_polynomial_counts_shifted_paths():
    """Coefficient j counts the interior chains with j vertices, walked one by one."""
    for lp in labeled_catalog(4):
        if lp.size == 0:
            continue
        g = build_omega_graph(lp)
        chains = [0] * lp.size
        stack = [(g.source, 0)]  # (last vertex, interior vertices so far)
        while stack:
            v, length = stack.pop()
            for w in g.successors[v]:
                if w == g.sink:
                    chains[length] += 1
                else:
                    stack.append((w, length + 1))
        poly = chain_polynomial(g)
        assert list(poly.coeffs) + [0] * (lp.size - len(poly.coeffs)) == chains, lp


def test_chain_polynomial_strict_shrub():
    # strict shrub arcs: {} -> {root} -> any {root}+leaves, leaf sets nested
    g = build_omega_graph(strict(make_shrub(2)))
    # paths: len2 {}-{r}-P (1); len3 {}-{r}-{r,a}-P twice; len4 none (diff sizes)
    assert count_paths(g).c == (0, 0, 1, 2)
    assert chain_polynomial(g) == UniPoly([0, 1, 2])


def test_dot_output():
    text = to_dot(build_omega_graph(natural(make_chain(2))))
    assert text.startswith("digraph")
    assert 'v0 [label="{}"];' in text
    assert 'v2 [label="{0,1}"];' in text
    assert "v0 -> v1;" in text
    assert text.count("->") == 3
