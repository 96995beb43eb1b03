"""The four query streams: inputs, the query each input triggers, and the
correctness gate that checks each answer against a different route.

A query takes poset text, parses it with `posetfile.parse_poset_file` and
calls public functions of the package.  Every call goes through `call(name,
fn, *args)`, which is a plain call in a measured run and records a span in
a traced run.  Checks run after the timed stream, so they neither slow
queries nor warm the memos the queries use.

Input sizes are set so that a 15-second run completes a hundred and fifty
queries or more: enough for the 90th-percentile latency to have at least
ten samples beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterator

from posetpoly import (
    LabeledPoset,
    UniPoly,
    build_omega_graph,
    eulerian_from_chains,
    eulerian_recursive,
    eulerian_tilde_recursive,
    lagrange_interpolate,
    natural_labeling,
    order_poly_bruteforce,
    order_poly_matrix,
    order_poly_recursive,
    order_poly_unlabeled,
    parse_poset_file,
    phi,
    qsym_direct,
    qsym_recursive,
)
from posetpoly.bernoulli import bernoulli_from_shrub, bernoulli_numbers_oracle
from posetpoly.catalog import posets_up_to, standard_labelings
from posetpoly.omegagraph import PathCounts, count_paths

import inputs

Call = Callable[..., object]
QSYM_VARS = 3
CATALOG_MAX_SIZE = 5  # size 6 puts a 6^6-map oracle enumeration in every query


class CheckFailed(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _path_counts(lp: LabeledPoset) -> PathCounts:
    return count_paths(build_omega_graph(lp))


def _check_values(name: str, values: Callable[[int], object], paths: PathCounts, size: int) -> None:
    """An order polynomial's values at 0..|P|+1 must equal the multipath counts."""
    for m in range(size + 2):
        _require(values(m) == paths.multipath(m), f"{name} differs from the multipath count at {m}")


def _series_values(numerator: UniPoly, pole: int) -> Callable[[int], Fraction]:
    """Coefficients of numerator/(1-λ)^pole as a power series in λ."""
    coeffs = numerator.coeffs

    def value(m: int) -> Fraction:
        if pole == 0:
            return coeffs[m] if m < len(coeffs) else Fraction(0)
        return sum(
            (c * comb(m - j + pole - 1, pole - 1) for j, c in enumerate(coeffs) if j <= m),
            Fraction(0),
        )

    return value


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], Iterator[inputs.PosetInput]]
    query: Callable[[inputs.PosetInput, Call], tuple]
    check: Callable[[inputs.PosetInput, tuple], None]


# deep-recursion: narrow lattices, every query writes new memo entries.

def _deep_inputs(seed: int) -> Iterator[inputs.PosetInput]:
    return inputs.random_posets(seed, "deep-recursion", sizes=(8, 9, 10), pairs=(100, 1000))


def _deep_query(inp: inputs.PosetInput, call: Call) -> tuple:
    lp = call("parse_poset_file", parse_poset_file, inp.text)
    return (
        lp,
        call("order_poly_recursive", order_poly_recursive, lp),
        call("eulerian_tilde_recursive", eulerian_tilde_recursive, lp),
        call("qsym_recursive", qsym_recursive, lp, QSYM_VARS),
        call("order_poly_unlabeled", order_poly_unlabeled, lp.poset),
    )


def _deep_check(inp: inputs.PosetInput, answer: tuple) -> None:
    lp, omega, etilde, qsym, weak = answer
    paths = _path_counts(lp)
    _check_values("order_poly_recursive", omega, paths, lp.size)
    _check_values(
        "eulerian_tilde_recursive series",
        _series_values(etilde.numerator, etilde.pole_order),
        paths,
        lp.size,
    )
    _require(qsym.specialize_ones() == paths.multipath(QSYM_VARS), "qsym all-ones value differs")
    natural = _path_counts(LabeledPoset(lp.poset, natural_labeling(lp.poset)))
    _check_values("order_poly_unlabeled", weak, natural, lp.size)


# wide-lattice: sparse posets and strict shrubs, the ideal graph dominates.

def _wide_inputs(seed: int) -> Iterator[inputs.PosetInput]:
    return inputs.random_posets(
        seed,
        "wide-lattice",
        sizes=(11, 12, 13),
        pairs=(5000, 30000),
        shrub_every=5,
        shrub_leaves=(7, 8, 9, 10),
    )


def _wide_query(inp: inputs.PosetInput, call: Call) -> tuple:
    lp = call("parse_poset_file", parse_poset_file, inp.text)
    pair = call("eulerian_from_chains", eulerian_from_chains, lp)
    if inp.kind == "shrub":
        return lp, pair, call("bernoulli_from_shrub", bernoulli_from_shrub, lp.size - 1)
    return lp, pair, call("phi", phi, lp)


def _wide_check(inp: inputs.PosetInput, answer: tuple) -> None:
    lp, pair, coefficient = answer
    n = lp.size
    paths = _path_counts(lp)
    _check_values("eulerian_from_chains e series", _series_values(pair.e, n + 1), paths, n)
    _check_values(
        "eulerian_from_chains etilde series",
        _series_values(pair.etilde.numerator, pair.etilde.pole_order),
        paths,
        n,
    )
    if inp.kind == "shrub":
        expected = bernoulli_numbers_oracle(n - 1).b[n - 1]
        _require(coefficient == expected, "shrub value differs from the Bernoulli recurrence")
    else:
        omega = lagrange_interpolate([(m, paths.multipath(m)) for m in range(n + 1)])
        linear = omega.coeffs[1] if len(omega.coeffs) > 1 else Fraction(0)
        _require(coefficient == linear, "phi differs from the interpolated t-coefficient")


# matrix-route: medium lattices through the unipotent log/exp.

def _matrix_inputs(seed: int) -> Iterator[inputs.PosetInput]:
    return inputs.random_posets(seed, "matrix-route", sizes=(8, 9, 10), pairs=(150, 1200))


def _matrix_query(inp: inputs.PosetInput, call: Call) -> tuple:
    lp = call("parse_poset_file", parse_poset_file, inp.text)
    return lp, call("order_poly_matrix", order_poly_matrix, lp)


def _matrix_check(inp: inputs.PosetInput, answer: tuple) -> None:
    lp, omega = answer
    _require(omega == order_poly_recursive(lp), "matrix route differs from the recursion")


# catalog-sweep: the check-suite battery over the exhaustive small catalog.

def _catalog_inputs(seed: int) -> Iterator[inputs.PosetInput]:
    entries = [
        (p.above, omega)
        for p in posets_up_to(CATALOG_MAX_SIZE)
        for omega in standard_labelings(p, seed=seed)
    ]
    return inputs.catalog_posets(entries)


def _catalog_query(inp: inputs.PosetInput, call: Call) -> tuple:
    lp = call("parse_poset_file", parse_poset_file, inp.text)
    return (
        call("order_poly_bruteforce", order_poly_bruteforce, lp),
        call("order_poly_recursive", order_poly_recursive, lp),
        call("order_poly_matrix", order_poly_matrix, lp),
        call("eulerian_from_chains", eulerian_from_chains, lp),
        call("eulerian_recursive", eulerian_recursive, lp),
        call("eulerian_tilde_recursive", eulerian_tilde_recursive, lp),
        call("qsym_direct", qsym_direct, lp, QSYM_VARS),
        call("qsym_recursive", qsym_recursive, lp, QSYM_VARS),
    )


def _catalog_check(inp: inputs.PosetInput, answer: tuple) -> None:
    oracle, recursive, matrix, pair, eulerian, etilde, direct, qsym = answer
    _require(recursive == oracle, "recursive order polynomial differs from the oracle")
    _require(matrix == oracle, "matrix order polynomial differs from the oracle")
    _require(eulerian == pair.e, "Eulerian recursion differs from the chain route")
    _require(etilde == pair.etilde, "localized Eulerian recursion differs from the chain route")
    _require(qsym == direct, "qsym recursion differs from direct enumeration")
    _require(qsym.specialize_ones() == oracle(QSYM_VARS), "qsym all-ones value differs from the oracle")


# why each stream exists is recorded with its name in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep-recursion", _deep_inputs, _deep_query, _deep_check),
        Workload("wide-lattice", _wide_inputs, _wide_query, _wide_check),
        Workload("matrix-route", _matrix_inputs, _matrix_query, _matrix_check),
        Workload("catalog-sweep", _catalog_inputs, _catalog_query, _catalog_check),
    )
}
