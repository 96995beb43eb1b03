"""Command-line front end.

Reads the plain-text poset format, dispatches to the library, and prints
either human-readable polynomials or a JSON document with exact
"numerator/denominator" coefficient strings.

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 a
consistency check found disagreeing routes (a bug signal, not a user
error).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from typing import Callable, Sequence

from posetpoly.bernoulli import (
    bernoulli_from_shrub,
    bernoulli_multinomial,
    bernoulli_numbers_oracle,
)
from posetpoly.checks import run_checks
from posetpoly.eulerian import (
    eulerian_from_chains,
    eulerian_recursive,
    eulerian_tilde_recursive,
)
from posetpoly.framework import (
    QSymTruncated,
    _check_shift_budget,
    etilde_spec,
    eulerian_spec,
    omega_spec,
    qsym_direct,
    qsym_recursive,
    qsym_spec,
    run_invariant,
)
from posetpoly.invariants import (
    order_poly_bruteforce,
    order_poly_matrix,
    order_poly_recursive,
    phi,
)
from posetpoly.localized import LocalizedRatio
from posetpoly.omegagraph import build_omega_graph, path_counts, to_dot
from posetpoly.polynomials import UniPoly
from posetpoly.posetfile import PosetParseError, parse_poset_file
from posetpoly.posets import LabeledPoset, enumerate_ideals, iter_bits
from posetpoly.unlabeled import (
    order_poly_unlabeled,
    signed_order_poly_nabla,
    strict_order_poly,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; our contract reserves 2 for
    input parse errors, so route usage failures to 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fraction_string(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _member_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def _read_poset(args: argparse.Namespace) -> LabeledPoset:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    return parse_poset_file(text)


def _poset_echo(lp: LabeledPoset) -> dict:
    return {
        "elements": lp.size,
        "labels": list(lp.omega),
        "covers": [list(pair) for pair in lp.poset.cover_pairs()],
    }


def _document(lp: LabeledPoset, invariant: str, body: dict, started: float) -> dict:
    """The JSON document of a poset command, with its metadata."""
    metadata = {
        "size": lp.size,
        "ideal_count": len(enumerate_ideals(lp.poset)),
        "path_counts": list(path_counts(lp).c),
        "elapsed_seconds": round(time.perf_counter() - started, 6),
    }
    return {"poset": _poset_echo(lp), "invariant": invariant, **body, "metadata": metadata}


def _emit(args: argparse.Namespace, document: Callable[[], dict], plain: str) -> int:
    """Print plain text, or under --json the document, which is built only
    then: its metadata costs a path-count search and an ideal enumeration
    that plain text never shows."""
    if args.json:
        print(json.dumps(document(), ensure_ascii=False, indent=2))
    else:
        print(plain)
    return EXIT_OK


def _poly_body(poly: UniPoly) -> dict:
    return {"coefficients": [_fraction_string(c) for c in poly.coeffs]}


def _etilde_body(etilde: LocalizedRatio) -> dict:
    return {
        "numerator": [_fraction_string(c) for c in etilde.numerator.coeffs],
        "pole_order": etilde.pole_order,
    }


def _qsym_terms(value: QSymTruncated) -> list[dict]:
    return [
        {"exponents": list(exps), "coefficient": _fraction_string(coeff)}
        for exps, coeff in value.terms()
    ]


def _cmd_ideals(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    lp = _read_poset(args)
    ideals = enumerate_ideals(lp.poset)
    members = [_member_list(mask) for mask in ideals]
    plain = "\n".join("{" + ", ".join(map(str, m)) + "}" for m in members)
    return _emit(args, lambda: _document(lp, "ideals", {"ideals": members}, started), plain)


def _cmd_omega_graph(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    lp = _read_poset(args)
    graph = build_omega_graph(lp)
    if args.dot:
        print(to_dot(graph), end="")
        return EXIT_OK
    arcs = [
        [i, j] for i, targets in enumerate(graph.successors) for j in sorted(targets)
    ]
    body = {
        "vertices": [_member_list(mask) for mask in graph.ideals],
        "arcs": arcs,
    }
    lines = [f"vertices: {len(graph.ideals)}", f"arcs: {len(arcs)}"]
    for i, j in arcs:
        lines.append(
            "{" + ", ".join(map(str, _member_list(graph.ideals[i]))) + "} -> "
            "{" + ", ".join(map(str, _member_list(graph.ideals[j]))) + "}"
        )
    return _emit(args, lambda: _document(lp, "omega-graph", body, started), "\n".join(lines))


_LABELED_ROUTES = {
    "recursive": order_poly_recursive,
    "matrix": order_poly_matrix,
    "oracle": order_poly_bruteforce,
}

_UNLABELED_ROUTES = {
    "weak": order_poly_unlabeled,
    "strict": strict_order_poly,
    "nabla": signed_order_poly_nabla,
}


def _cmd_order_poly(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    lp = _read_poset(args)
    if args.unlabeled is not None:
        if args.route is not None:
            raise ValueError("--route applies to labeled computations only")
        poly = _UNLABELED_ROUTES[args.unlabeled](lp.poset)
        name = f"order-poly/{args.unlabeled}"
    else:
        poly = _LABELED_ROUTES[args.route or "recursive"](lp)
        name = "order-poly"
    return _emit(args, lambda: _document(lp, name, _poly_body(poly), started), poly.render("t"))


def _cmd_eulerian(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    lp = _read_poset(args)
    if args.route == "recursive":
        e, etilde = eulerian_recursive(lp), eulerian_tilde_recursive(lp)
    else:
        pair = eulerian_from_chains(lp)
        e, etilde = pair.e, pair.etilde
    body = {**_poly_body(e), "etilde": _etilde_body(etilde)}
    plain = f"e: {e.render('λ')}\netilde: {etilde.render('λ')}"
    return _emit(args, lambda: _document(lp, "eulerian", body, started), plain)


def _cmd_phi(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    lp = _read_poset(args)
    value = phi(lp)
    body = {"value": _fraction_string(value)}
    return _emit(args, lambda: _document(lp, "phi", body, started), str(value))


_BERNOULLI_ROUTES = {
    "oracle": lambda n: bernoulli_numbers_oracle(n).b[n],
    "shrub": bernoulli_from_shrub,
    "multinomial": bernoulli_multinomial,
}


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    if args.n < 0 or (args.route != "oracle" and args.n < 1):
        raise ValueError(f"route {args.route!r} needs n >= 1")
    value = _BERNOULLI_ROUTES[args.route](args.n)
    document = {
        "invariant": "bernoulli",
        "n": args.n,
        "route": args.route,
        "value": _fraction_string(value),
    }
    return _emit(args, lambda: document, str(value))


def _cmd_qsym(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    lp = _read_poset(args)
    route = qsym_recursive if args.route == "recursive" else qsym_direct
    value = route(lp, args.vars)
    body = {"variables": args.vars, "terms": _qsym_terms(value)}
    return _emit(args, lambda: _document(lp, "qsym", body, started), value.render())


_SPEC_PATTERN = re.compile(r"qsym:([0-9]+)$")


def _cmd_invariant(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    lp = _read_poset(args)
    name = args.spec
    if name == "omega":
        value = run_invariant(omega_spec(), lp)
        body, plain = _poly_body(value), value.render("t")
    elif name == "eulerian":
        value = run_invariant(eulerian_spec(), lp)
        body, plain = _poly_body(value), value.render("λ")
    elif name == "etilde":
        value = run_invariant(etilde_spec(), lp)
        assert isinstance(value, LocalizedRatio)
        body, plain = _etilde_body(value), value.render("λ")
    else:
        match = _SPEC_PATTERN.match(name)
        if match is None or int(match.group(1)) < 1:
            raise ValueError(f"unknown invariant spec {name!r}")
        nvars = int(match.group(1))
        # refuse before qsym_spec builds an nvars-long vector; run_invariant charges the class
        _check_shift_budget(nvars, lp.size, charged=False)
        value = run_invariant(qsym_spec(nvars), lp)
        assert isinstance(value, QSymTruncated)
        body, plain = {"terms": _qsym_terms(value)}, value.render()
    return _emit(args, lambda: _document(lp, f"invariant/{name}", body, started), plain)


def _cmd_check(args: argparse.Namespace) -> int:
    results = run_checks(args.max_size)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_INCONSISTENT if failed else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="posetpoly", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    file_parent = _Parser(add_help=False)
    file_parent.add_argument("file", help="poset file, or - for stdin")
    file_parent.add_argument("--json", action="store_true", help="emit a JSON document")

    sub = subparsers.add_parser("ideals", parents=[file_parent], help="list all ideals")
    sub.set_defaults(handler=_cmd_ideals)

    sub = subparsers.add_parser(
        "omega-graph", parents=[file_parent], help="ideal graph; --dot for Graphviz"
    )
    sub.add_argument("--dot", action="store_true")
    sub.set_defaults(handler=_cmd_omega_graph)

    sub = subparsers.add_parser(
        "order-poly", parents=[file_parent], help="order polynomial"
    )
    sub.add_argument("--route", choices=sorted(_LABELED_ROUTES))
    sub.add_argument("--unlabeled", choices=sorted(_UNLABELED_ROUTES))
    sub.set_defaults(handler=_cmd_order_poly)

    sub = subparsers.add_parser(
        "eulerian", parents=[file_parent], help="Eulerian polynomial and its tilde form"
    )
    sub.add_argument("--route", choices=["chains", "recursive"], default="chains")
    sub.set_defaults(handler=_cmd_eulerian)

    sub = subparsers.add_parser(
        "phi", parents=[file_parent], help="linear coefficient of the order polynomial"
    )
    sub.set_defaults(handler=_cmd_phi)

    sub = subparsers.add_parser("bernoulli", help="Bernoulli number b_n")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--route", choices=sorted(_BERNOULLI_ROUTES), default="oracle")
    sub.add_argument("--json", action="store_true", help="emit a JSON document")
    sub.set_defaults(handler=_cmd_bernoulli)

    sub = subparsers.add_parser(
        "qsym", parents=[file_parent], help="quasi-symmetric refinement in N variables"
    )
    sub.add_argument("--vars", type=int, required=True)
    sub.add_argument("--route", choices=["direct", "recursive"], default="direct")
    sub.set_defaults(handler=_cmd_qsym)

    sub = subparsers.add_parser(
        "invariant", parents=[file_parent], help="run a named recursion spec"
    )
    sub.add_argument("--spec", required=True, help="omega | etilde | eulerian | qsym:N")
    sub.set_defaults(handler=_cmd_invariant)

    sub = subparsers.add_parser("check", help="cross-validation suite")
    sub.add_argument("--max-size", type=int, default=4)
    sub.set_defaults(handler=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PosetParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
