"""End-to-end acceptance: each test is one headline guarantee, most of
them driven by the shared cross-validation suite in posetpoly.checks.
Stated runtime ceilings are asserted, not aspirational.
"""

import subprocess
import sys
import time

from posetpoly.bernoulli import composition_sum_check
from posetpoly.checks import (
    check_antichain_eulerian,
    check_bernoulli,
    check_chain_identities,
    check_eulerian_routes,
    check_framework,
    check_order_poly_routes,
    check_qsym,
    check_structural_identities,
    check_theta_powers,
    check_unlabeled,
)
from posetpoly.posetfile import parse_poset_file


def run_under(budget_seconds, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"took {elapsed:.1f}s, budget {budget_seconds}s"
    return result


def test_order_polynomial_three_routes_agree_on_small_catalog():
    ok, detail = run_under(120, lambda: check_order_poly_routes(5))
    assert ok, detail


def test_eulerian_routes_and_series_window_agree_on_small_catalog():
    ok, detail = run_under(60, lambda: check_eulerian_routes(5))
    assert ok, detail


def test_bernoulli_numbers_from_shrubs_match_recurrence_oracle():
    ok, detail = run_under(60, check_bernoulli)
    assert ok, detail


def test_composition_sum_identity_holds_and_rescales_to_bernoulli():
    for n in range(1, 16):
        assert composition_sum_check(n)


def test_antichain_eulerian_recursions_match_descent_oracle():
    ok, detail = run_under(60, check_antichain_eulerian)
    assert ok, detail


def test_structural_identities_hold_on_small_catalog():
    ok, detail = check_structural_identities(4)  # convolution runs one size up
    assert ok, detail


def test_interior_chain_polynomial_determines_eulerian_forms():
    ok, detail = check_chain_identities(5)
    assert ok, detail


def test_generic_recursion_reproduces_every_invariant_and_is_linear():
    ok, detail = check_framework(4, samples=100)
    assert ok, detail


def test_quasi_symmetry_and_specialization():
    ok, detail = check_qsym(4, max_vars=5)
    assert ok, detail


def test_unlabeled_routes_reciprocity_and_endpoint_values():
    ok, detail = check_unlabeled(6)
    assert ok, detail


def test_transition_matrix_at_integers_equals_adjacency_powers():
    ok, detail = check_theta_powers(5, max_power=5)
    assert ok, detail


def test_cli_check_suite_and_parse_errors(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "posetpoly", "check", "--max-size", "4"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "11/11 checks passed" in done.stdout

    bad = tmp_path / "cycle.poset"
    bad.write_text("elements: 2\n0 < 1\n1 < 0\n")
    done = subprocess.run(
        [sys.executable, "-m", "posetpoly", "order-poly", str(bad)],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2
    assert "line 3" in done.stderr

    garbled = tmp_path / "garbled.poset"
    garbled.write_text("elements: 3\n0 < 3\n")
    done = subprocess.run(
        [sys.executable, "-m", "posetpoly", "phi", str(garbled)],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2
    assert "line 2" in done.stderr


def test_long_chain_parses_within_ceiling():
    n = 800
    text = f"elements: {n}\n" + "".join(f"{i} < {i + 1}\n" for i in range(n - 1))
    lp = run_under(2, lambda: parse_poset_file(text))
    assert [mask.bit_count() for mask in lp.poset.above] == list(range(n - 1, -1, -1))
    assert lp.omega == tuple(range(1, n + 1))


def test_oversized_antichain_reaches_the_budget_fast():
    done = run_under(
        10,
        lambda: subprocess.run(
            [sys.executable, "-m", "posetpoly", "phi", "-"],
            input="elements: 30000\n",
            capture_output=True,
            text=True,
            timeout=60,
        ),
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "POSET_ORACLE_MAX" in done.stderr
