"""The cross-validation suite: every identity the package claims, run
over the exhaustive small-poset catalog and reported as pass/fail.

Each check returns a CheckResult; run_checks drives any subset.  The
command line's `check` subcommand prints the table, and the test suite
calls the same functions, so there is exactly one definition of what
"consistent" means.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable

from posetpoly.bernoulli import (
    bernoulli_from_shrub,
    bernoulli_integer_numerator,
    bernoulli_multinomial,
    bernoulli_numbers_oracle,
    composition_sum_check,
    shrub_order_poly_check,
)
from posetpoly.catalog import labeled_catalog, posets_up_to
from posetpoly.eulerian import (
    antichain_eulerian_binomial,
    antichain_eulerian_derivative,
    chain_identity_check,
    eulerian_descent_oracle,
    eulerian_from_chains,
    eulerian_recursive,
    eulerian_series_check,
    eulerian_tilde_recursive,
)
from posetpoly.framework import (
    InvariantSpec,
    QSymTruncated,
    _run,
    etilde_spec,
    eulerian_spec,
    omega_spec,
    qsym_direct,
    qsym_recursive,
    qsym_spec,
    qsym_specialization_check,
    quasi_symmetry_check,
)
from posetpoly.invariants import (
    ThetaMatrix,
    convolution_check,
    derivative_identity_check,
    omega_from_phi,
    order_poly_bruteforce,
    order_poly_matrix,
    order_poly_recursive,
    phi_recursion_check,
    theta_matrix,
)
from posetpoly.localized import LocalizedRatio
from posetpoly.matrices import RatMatrix
from posetpoly.polynomials import UniPoly
from posetpoly.posets import (
    LabeledPoset,
    induced_subposet,
    make_antichain,
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

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict}  {self.name:<24} {self.detail}  [{self.elapsed:.2f}s]"


def check_order_poly_routes(max_size: int) -> tuple[bool, str]:
    """Brute force, matrix exponential, and ideal recursion agree."""
    cases = 0
    for lp in labeled_catalog(max_size):
        reference = order_poly_bruteforce(lp)
        if order_poly_matrix(lp) != reference:
            return False, f"matrix route differs on {lp!r}"
        if order_poly_recursive(lp) != reference:
            return False, f"recursive route differs on {lp!r}"
        cases += 1
    return True, f"{cases} labeled posets, 3 routes"


def check_eulerian_routes(max_size: int) -> tuple[bool, str]:
    """Chain-count route vs recursion, plus the generating-series window.
    Both routes read e off their path counts by one closed form, so the
    first two compare the path search with Omega's recursion; the window
    checks the closed form against Omega's values."""
    cases = 0
    for lp in labeled_catalog(max_size):
        pair = eulerian_from_chains(lp)
        if eulerian_recursive(lp) != pair.e:
            return False, f"recursion differs on {lp!r}"
        if eulerian_tilde_recursive(lp) != pair.etilde:
            return False, f"tilde recursion differs on {lp!r}"
        if not eulerian_series_check(lp, 2 * lp.size + 2):
            return False, f"series window differs on {lp!r}"
        cases += 1
    return True, f"{cases} labeled posets, window 2|P|+2"


def check_structural_identities(max_size: int) -> tuple[bool, str]:
    """Bivariate convolution (one size up), flag-sum reconstruction, and
    the derivative identity."""
    for lp in labeled_catalog(max_size + 1):
        if not convolution_check(lp):
            return False, f"convolution fails on {lp!r}"
    cases = 0
    for lp in labeled_catalog(max_size):
        if lp.size:  # a flag needs at least one step
            if not phi_recursion_check(lp):
                return False, f"flag sums fail on {lp!r}"
            if omega_from_phi(lp) != order_poly_recursive(lp):
                return False, f"flag reconstruction fails on {lp!r}"
        if not derivative_identity_check(lp):
            return False, f"derivative identity fails on {lp!r}"
        cases += 1
    return True, f"{cases} labeled posets, convolution one size up"


def check_chain_identities(max_size: int) -> tuple[bool, str]:
    """Interior-chain generating polynomial determines both Eulerian forms."""
    cases = 0
    for lp in labeled_catalog(max_size):
        if lp.size == 0:
            continue
        if not chain_identity_check(lp):
            return False, f"chain identity fails on {lp!r}"
        cases += 1
    return True, f"{cases} labeled posets"


def check_bernoulli() -> tuple[bool, str]:
    """Shrub invariants against the recurrence oracle, the closed form,
    integrality, and the antiderivative identity."""
    table = bernoulli_numbers_oracle(20)
    for n in range(1, 13):
        if bernoulli_from_shrub(n) != table.b[n]:
            return False, f"shrub value differs at n={n}"
    for n in range(1, 16):
        if bernoulli_multinomial(n) != table.b[n]:
            return False, f"closed form differs at n={n}"
    for n in range(1, 21):
        if bernoulli_integer_numerator(n) != table.b[n] * factorial(n + 1):
            return False, f"scaled value differs at n={n}"
    for n in range(1, 9):
        if not shrub_order_poly_check(n):
            return False, f"antiderivative fails at n={n}"
    return True, "shrubs to n=12, closed form to 15, scaling to 20"


def check_composition_sums() -> tuple[bool, str]:
    """Both composition sums agree and rescale to the oracle values."""
    for n in range(1, 16):
        if not composition_sum_check(n):
            return False, f"composition sums differ at n={n}"
    return True, "n = 1..15"


def check_antichain_eulerian() -> tuple[bool, str]:
    """Three antichain recursions against the descent-count oracle."""
    for n in range(1, 11):
        binomial = antichain_eulerian_binomial(n)
        if binomial != antichain_eulerian_derivative(n):
            return False, f"recursions differ at n={n}"
        lp = LabeledPoset(make_antichain(n), tuple(range(1, n + 1)))
        if binomial != eulerian_from_chains(lp).e:
            return False, f"chain route differs at n={n}"
        if binomial(1) != factorial(n):
            return False, f"value at 1 differs at n={n}"
        if n <= 8 and binomial != eulerian_descent_oracle(n):
            return False, f"descent oracle differs at n={n}"
    return True, "recursions to n=10, descent oracle to n=8"


def _spec_runner() -> Callable[[InvariantSpec, LabeledPoset], object]:
    """run_invariant with one table of values by class per spec, kept for
    one check's loop over the catalog and dropped with it."""
    tables: dict[InvariantSpec, dict[tuple, object]] = {}
    return lambda spec, lp: _run(spec, tables.setdefault(spec, {}), lp)


def check_framework(max_size: int) -> tuple[bool, str]:
    """Generic recursion reproduces every direct route, and the operators of
    those specs are linear on random carrier elements."""
    omega, etilde, eulerian = omega_spec(), etilde_spec(), eulerian_spec()
    qsym = {nvars: qsym_spec(nvars) for nvars in range(1, max(max_size + 2, 4))}
    run = _spec_runner()
    cases = 0
    for lp in labeled_catalog(max_size):
        if run(omega, lp) != order_poly_recursive(lp):
            return False, f"order-poly spec differs on {lp!r}"
        if run(etilde, lp) != eulerian_tilde_recursive(lp):
            return False, f"tilde spec differs on {lp!r}"
        if run(eulerian, lp) != eulerian_from_chains(lp).e:
            return False, f"family spec differs on {lp!r}"
        nvars = lp.size + 1
        if run(qsym[nvars], lp) != qsym_direct(lp, nvars):
            return False, f"qsym spec differs on {lp!r}"
        cases += 1

    rng = random.Random(57721)

    def rand_poly() -> UniPoly:
        return UniPoly(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 6))]
        )

    def rand_local() -> LocalizedRatio:
        return LocalizedRatio(rand_poly(), rng.randint(0, 3))

    def rand_qsym() -> QSymTruncated:
        terms = {}
        for _ in range(rng.randint(0, 6)):
            terms[tuple(rng.randint(0, 2) for _ in range(3))] = Fraction(rng.randint(-5, 5))
        return QSymTruncated(3, terms)

    difference, tilde = omega.operator, etilde.operator
    for _ in range(100):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        a, b = rand_poly(), rand_poly()
        if difference(a + b) != difference(a) + difference(b):
            return False, "difference inverse is not additive"
        if difference(c * a) != c * difference(a):
            return False, "difference inverse is not homogeneous"
        member = eulerian.family(rng.randint(1, 4))
        if member(a + b) != member(a) + member(b) or member(c * a) != c * member(a):
            return False, "family operator is not linear"
        ra, rb = rand_local(), rand_local()
        if tilde(ra + rb) != tilde(ra) + tilde(rb) or tilde(c * ra) != c * tilde(ra):
            return False, "tilde operator is not linear"
        qa, qb = rand_qsym(), rand_qsym()
        shift = qsym[3].family(rng.randint(1, 3))
        if shift(qa + qb) != shift(qa) + shift(qb):
            return False, "shift-sum operator is not additive"
        if shift(c * qa) != c * shift(qa):
            return False, "shift-sum operator is not homogeneous"
    return True, f"{cases} labeled posets, 100 linearity samples"


def check_qsym(max_size: int) -> tuple[bool, str]:
    """Quasi-symmetry and the all-ones specialization, in up to 5 variables."""
    cases = 0
    for lp in labeled_catalog(max_size):
        for nvars in range(1, 6):
            if not quasi_symmetry_check(qsym_direct(lp, nvars)):
                return False, f"quasi-symmetry fails on {lp!r} at N={nvars}"
            if not qsym_specialization_check(lp, nvars):
                return False, f"specialization fails on {lp!r} at N={nvars}"
        if qsym_recursive(lp, 5) != qsym_direct(lp, 5):
            return False, f"recursion differs on {lp!r}"
        cases += 1
    return True, f"{cases} labeled posets, N up to 5"


def check_unlabeled(max_size: int) -> tuple[bool, str]:
    """Unlabeled routes against the Fraction recursion of run_invariant on the
    natural and strict labelings, reflection identity, sign-twisted route,
    endpoint characterizations, and the subcall bound."""
    omega = omega_spec()
    run = _spec_runner()
    cases = 0
    for p in posets_up_to(max_size):
        weak = order_poly_unlabeled(p)
        strict = strict_order_poly(p)
        if weak != run(omega, LabeledPoset(p, natural_labeling(p))):
            return False, f"weak route differs on {p!r}"
        if strict != run(omega, LabeledPoset(p, reversed_labeling(p))):
            return False, f"strict route differs on {p!r}"
        sign = -1 if p.size % 2 else 1
        if signed_order_poly_nabla(p) != sign * weak:
            return False, f"signed route differs on {p!r}"
        if p.size:
            if not reciprocity_check(p):
                return False, f"reflection identity fails on {p!r}"
            if not strict_value_at_one_check(p):
                return False, f"endpoint values fail on {p!r}"
        if count_subcalls(p, "minimal") > count_subcalls(p, "ideals"):
            return False, f"minimal flavor slower on {p!r}"
        cases += 1
    return True, f"{cases} posets"


def theta_subposet_check(theta: ThetaMatrix) -> bool:
    """Every Theta entry (I, J) is the order polynomial of the difference
    subposet J \\ I when I ⊆ J, and zero otherwise."""
    lp = theta.graph.labeled_poset
    ideals = theta.graph.ideals
    for i, small in enumerate(ideals):
        for j, big in enumerate(ideals):
            value = theta.entry(i, j)
            if small & big != small:
                if value:
                    return False
            elif value != order_poly_recursive(induced_subposet(lp, big & ~small)):
                return False
    return True


def check_theta_powers(max_size: int) -> tuple[bool, str]:
    """The entrywise-polynomial transition matrix at integer times equals
    powers of (I + adjacency), and each entry is the order polynomial of
    its difference subposet."""
    cases = 0
    for lp in labeled_catalog(max_size):
        theta = theta_matrix(lp)
        adjacency = theta.graph.adjacency()
        step = RatMatrix.identity(adjacency.dimension) + adjacency
        power = RatMatrix.identity(adjacency.dimension)
        for n in range(6):
            if theta.entries.eval_at(Fraction(n)) != power:
                return False, f"power {n} differs on {lp!r}"
            power = power * step
        if not theta_subposet_check(theta):
            return False, f"subposet entry differs on {lp!r}"
        cases += 1
    return True, f"{cases} labeled posets, powers to 5"


_CHECKS: dict[str, Callable[[int], tuple[bool, str]]] = {
    "order-poly-routes": check_order_poly_routes,
    "eulerian-routes": check_eulerian_routes,
    "structural-identities": check_structural_identities,
    "chain-identities": check_chain_identities,
    "bernoulli": lambda max_size: check_bernoulli(),
    "composition-sums": lambda max_size: check_composition_sums(),
    "antichain-eulerian": lambda max_size: check_antichain_eulerian(),
    "framework": check_framework,
    "qsym": check_qsym,
    "unlabeled": check_unlabeled,
    "theta-powers": check_theta_powers,
}

CHECK_NAMES = tuple(_CHECKS)


def run_checks(max_size: int = 4, names: Iterable[str] | None = None) -> list[CheckResult]:
    results = []
    for name in names if names is not None else CHECK_NAMES:
        if name not in _CHECKS:
            raise KeyError(f"unknown check {name!r}")
        start = time.perf_counter()
        passed, detail = _CHECKS[name](max_size)
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
