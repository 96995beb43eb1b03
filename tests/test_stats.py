"""The work meter: every enumeration budget refuses with stats.BudgetError
and its own message, and every admitted enumeration is counted under its
kind."""

import pytest

from posetpoly import invariants, omegagraph, stats
from posetpoly.bernoulli import bernoulli_multinomial
from posetpoly.cli import main
from posetpoly.framework import qsym_direct, qsym_recursive, qsym_spec, run_invariant
from posetpoly.invariants import (
    order_poly_bruteforce,
    order_poly_matrix,
    order_poly_recursive,
    theta_matrix,
)
from posetpoly.omegagraph import path_counts
from posetpoly.posets import (
    ORACLE_BOUND_ENV,
    LabeledPoset,
    enumerate_ideals,
    make_antichain,
    make_chain,
    make_poset,
    make_shrub,
    natural_labeling,
    omega_natural_ideals,
)
from posetpoly.unlabeled import order_poly_unlabeled


def natural(p):
    return LabeledPoset(p, natural_labeling(p))


KINDS = ("ideals", "maps", "exponents", "monomials", "compositions")
IDEALS_REFUSED = "more than 3^3 ideals exceed the enumeration budget"

# at B = 3, each site just past its budget of 3^3 = 27, the kind it charges
# and its message
REFUSALS = [
    (lambda: enumerate_ideals(make_antichain(5)), "ideals", IDEALS_REFUSED),
    (lambda: omega_natural_ideals(natural(make_antichain(5))), "ideals", IDEALS_REFUSED),
    (lambda: path_counts(natural(make_antichain(5))), "ideals", IDEALS_REFUSED),
    # the class walk: the top class's 2^5 ideals
    (lambda: order_poly_recursive(natural(make_antichain(5))), "ideals", IDEALS_REFUSED),
    (lambda: order_poly_unlabeled(make_antichain(5)), "ideals", IDEALS_REFUSED),
    (
        lambda: order_poly_bruteforce(natural(make_antichain(4))),
        "maps",
        "poset size 4 exceeds the brute-force bound 3",
    ),
    (
        lambda: qsym_direct(natural(make_chain(2)), 6),
        "maps",
        "6^2 maps exceed the enumeration budget 3^3",
    ),
    (
        lambda: qsym_recursive(natural(make_antichain(2)), 7),
        "monomials",
        "28 monomials in 7 variables exceed the enumeration budget 3^3",
    ),
    # the empty poset: one map and one monomial, one vector of 28 exponents
    (
        lambda: qsym_direct(natural(make_antichain(0)), 28),
        "exponents",
        "an exponent vector in 28 variables exceeds the enumeration budget 3^3",
    ),
    (
        lambda: qsym_recursive(natural(make_antichain(0)), 28),
        "exponents",
        "an exponent vector in 28 variables exceeds the enumeration budget 3^3",
    ),
    (
        lambda: run_invariant(qsym_spec(3), natural(make_antichain(2))),
        "exponents",
        "qsym:3 on 2 points writes up to 54 exponents, over the enumeration budget 3^3",
    ),
    (
        lambda: bernoulli_multinomial(6),
        "compositions",
        "b_6 sums over 2^5 compositions, over the enumeration budget 3^3",
    ),
]

# at B = 3, each site at or just under its budget, and what it charges
ADMITTED = [
    (lambda: order_poly_bruteforce(natural(make_antichain(3))), "maps", 27),
    (lambda: qsym_direct(natural(make_chain(2)), 5), "maps", 25),
    (lambda: qsym_recursive(natural(make_antichain(2)), 6), "monomials", 6 + 15),
    # the 1-point class and then the empty one: 9·C(3,1) + 9·C(2,0)
    (lambda: run_invariant(qsym_spec(3), natural(make_antichain(1))), "exponents", 27 + 9),
    (lambda: bernoulli_multinomial(5), "compositions", 16),
    # three 2-chains: the top class has 3^3 ideals, and every class it reaches is charged
    (lambda: order_poly_recursive(natural(make_poset(6, [(0, 1), (2, 3), (4, 5)]))), "ideals", 156),
]


@pytest.mark.parametrize(
    "call, kind, message",
    REFUSALS,
    ids=[
        "enumerate_ideals",
        "omega_natural_ideals",
        "path_counts",
        "order_poly_recursive",
        "order_poly_unlabeled",
        "order_poly_bruteforce",
        "qsym_direct",
        "qsym_recursive",
        "qsym_direct_empty",
        "qsym_recursive_empty",
        "run_invariant",
        "bernoulli_multinomial",
    ],
)
def test_each_budget_refuses_with_its_own_message(monkeypatch, call, kind, message):
    monkeypatch.setenv(ORACLE_BOUND_ENV, "3")
    monkeypatch.setattr(omegagraph, "_LAST_PATHS", None)  # a slot hit would skip the search
    monkeypatch.setattr(invariants, "_SMALL_LABELED", {})  # a kept qsym value would skip it too
    stats.reset()
    with pytest.raises(stats.BudgetError) as refused:
        call()
    assert str(refused.value) == message + "; set POSET_ORACLE_MAX to raise it"
    assert stats.snapshot()[kind] == 0


@pytest.mark.parametrize(
    "call, kind, count",
    ADMITTED,
    ids=[
        "order_poly_bruteforce",
        "qsym_direct",
        "qsym_recursive",
        "run_invariant",
        "multinomial",
        "order_poly_recursive",
    ],
)
def test_each_budget_counts_what_it_admits(monkeypatch, call, kind, count):
    monkeypatch.setenv(ORACLE_BOUND_ENV, "3")
    # a kept qsym value expands nothing, and kept children are not grown again
    monkeypatch.setattr(invariants, "_SMALL_LABELED", {})
    monkeypatch.setattr(invariants, "_LAST_LARGE", None)
    stats.reset()
    call()
    assert stats.snapshot()[kind] == count


def test_ideal_enumeration_adds_its_length_and_a_refusal_adds_nothing(monkeypatch):
    stats.reset()
    ideals = enumerate_ideals(make_shrub(4))
    assert stats.snapshot()["ideals"] == len(ideals) == 17
    omega_natural_ideals(natural(make_antichain(3)))
    assert stats.snapshot()["ideals"] == 17 + 8
    monkeypatch.setenv(ORACLE_BOUND_ENV, "2")
    with pytest.raises(stats.BudgetError):
        enumerate_ideals(make_antichain(3))
    assert stats.snapshot()["ideals"] == 25


def test_bound_one_admits_one_item(monkeypatch):
    monkeypatch.setenv(ORACLE_BOUND_ENV, "1")
    assert enumerate_ideals(make_antichain(0)) == [0]
    with pytest.raises(stats.BudgetError, match=r"more than 1\^1 ideals"):
        enumerate_ideals(make_antichain(1))
    assert order_poly_bruteforce(natural(make_antichain(1)))(2) == 2
    with pytest.raises(stats.BudgetError, match="poset size 2 exceeds the brute-force bound 1"):
        order_poly_bruteforce(natural(make_chain(2)))


@pytest.mark.parametrize(
    "raw, message",
    [
        ("eight", "POSET_ORACLE_MAX must be an integer, got 'eight'"),
        ("0", "POSET_ORACLE_MAX must be at least 1, got '0'"),
        ("-1", "POSET_ORACLE_MAX must be at least 1, got '-1'"),
        ("-2", "POSET_ORACLE_MAX must be at least 1, got '-2'"),
    ],
)
def test_bound_must_be_a_positive_integer(monkeypatch, capsys, raw, message):
    monkeypatch.setenv(ORACLE_BOUND_ENV, raw)
    for call in (lambda: enumerate_ideals(make_antichain(0)), lambda: bernoulli_multinomial(1)):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message
    assert main(["bernoulli", "--n", "1", "--route", "multinomial"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_every_counter_reads_zero_after_a_reset(monkeypatch):
    monkeypatch.setattr(invariants, "_SMALL_LABELED", {})  # a kept qsym value expands nothing
    enumerate_ideals(make_antichain(4))
    for call, _, _ in ADMITTED:
        call()
    assert all(stats.snapshot()[kind] for kind in KINDS)
    stats.reset()
    counts = stats.snapshot()
    assert set(KINDS) <= set(counts)
    assert set(counts.values()) == {0}


def test_a_kept_qsym_value_charges_no_monomials(monkeypatch):
    monkeypatch.setattr(invariants, "_SMALL_LABELED", {})
    three = natural(make_antichain(3))
    stats.reset()
    first = qsym_recursive(three, 3)
    assert stats.snapshot()["monomials"] == 3 + 3 + 3 + 1  # M_(3), M_(2,1), M_(1,2), M_(1,1,1)
    assert qsym_recursive(three, 3) is first
    assert stats.snapshot()["monomials"] == 10
    monkeypatch.setenv(ORACLE_BOUND_ENV, "2")
    with pytest.raises(stats.BudgetError):
        qsym_recursive(three, 4)  # an expansion is still refused: 4 + 6 + 6 + 4 > 2^2
    assert stats.snapshot()["monomials"] == 10


def test_the_cli_charges_the_top_qsym_class_once(tmp_path):
    path = tmp_path / "antichain.poset"
    path.write_text("elements: 3\n")
    stats.reset()
    run_invariant(qsym_spec(3), natural(make_antichain(3)))
    alone = stats.snapshot()["exponents"]
    stats.reset()
    assert main(["invariant", str(path), "--spec", "qsym:3"]) == 0
    assert stats.snapshot()["exponents"] == alone == 180


MATRIX_REFUSED = (
    "the matrix route on 2 points and 3 ideals weighs 2^2*3^2 = 36, over the enumeration "
    "budget 3^3; set POSET_ORACLE_MAX to raise it"
)


@pytest.mark.parametrize("route", [order_poly_matrix, theta_matrix])
def test_the_matrix_budget_weighs_points_and_ideals(monkeypatch, route):
    monkeypatch.setenv(ORACLE_BOUND_ENV, "3")
    stats.reset()
    route(natural(make_chain(1)))  # 1^2 * 2^2
    assert stats.snapshot()["matrix"] == 4
    with pytest.raises(stats.BudgetError) as refused:
        route(natural(make_chain(2)))
    assert str(refused.value) == MATRIX_REFUSED
    assert stats.snapshot()["matrix"] == 4


def test_the_matrix_budget_refuses_before_the_arc_search(monkeypatch):
    def no_arc_search(lp, ideals):
        raise AssertionError("the arc search ran")

    monkeypatch.setattr(invariants, "_graph_on_ideals", no_arc_search)
    stats.reset()
    # default bound 7: 12^2 * 4096^2 is far past 7^7, 10^2 * 1024^2 and 8^2 * 256^2 too
    for n in (12, 10, 8):
        with pytest.raises(stats.BudgetError, match=f"on {n} points and {2**n} ideals"):
            order_poly_matrix(natural(make_antichain(n)))
    with pytest.raises(stats.BudgetError, match="on 30 points and 31 ideals"):
        order_poly_matrix(natural(make_chain(30)))
    assert stats.snapshot()["matrix"] == 0
