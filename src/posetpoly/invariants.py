"""Order polynomials by three independent routes, and what ties them together.

The three routes:

1. brute force: count the admissible maps P -> [n] for n up to |P| in
   one pass over the maps into [|P|], binned by largest value, and
   interpolate (with the structural zero at t = 0);
2. matrix: the (empty, full) entry of Theta(t) = exp(t·ln(I + A)) over the
   ideal-graph adjacency A, from the log and the source row of the
   exponential, both built row by row by posetpoly.matrices;
3. recursion: apply the inverse forward difference to the sum of order
   polynomials of complements of nonempty omega-natural ideals.

Route 1 is the semantic definition and deliberately dumb; the maps budget
of posetpoly.stats keeps its enumeration honest, as the matrix budget
bounds route 2.  Routes 2 and 3 scale further and must agree with it
exactly.

Route 3 runs in integers.  In the binomial basis C(t,k) the inverse
difference is an index shift, C(t,k) -> C(t,k+1), so Omega = sum_k c_k C(t,k)
with c_0 = 0 for nonempty P and c_(k+1)(P) = sum of c_k(P \\ S) over the
nonempty omega-natural ideals S; Fractions appear only when the public
value is built.  The c_k are the ideal-graph path counts, from which
eulerian reads e and etilde.  This module also holds the engine that
Omega and qsym (in framework) share, with unlabeled's strict polynomial
(Omega under a strict labeling) and its weak one (the strict coordinates
reflected by reflected_coordinates): a ClassRecord per labeled poset
class with the integer coordinates of each quantity.
Classes of at most SMALL_CLASS_MAX = 5 elements keep their record for the
life of the process (at most 4,474 labeled classes), with their public
values and with coordinate tuples interned, since few distinct ones occur.
Larger classes live in one table per top class, the class a public call
was asked about, and one slot keeps the table of the most recent top:
Omega and qsym of one poset share it, so each large class lists its
children once for both, and e and etilde list none once Omega has run.
The slot holds children and coordinates, never a public value.  Children
are listed from a key's below masks, with no Poset or LabeledPoset per
class: the omega-natural ideals grow in label order, each after its parent,
and each child's key is squeezed in one step per mask from the key of the
complement of the parent (child_key), so listing the children of a class
of k points costs O(k) per ideal, with no transpose and no sort.

phi is the t-coefficient of the order polynomial, computed here from
alternating path counts; the flag sums rebuild the whole polynomial from
phi values of difference subposets.  phi keeps no memo of its own: it
reads omegagraph.path_counts, whose one slot already holds the counts
after the Eulerian pair of the same poset, and sums at most |P| terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import comb, factorial, lcm
from typing import Callable, Iterator

from posetpoly import posets, stats
from posetpoly.matrices import (
    PolyMatrix,
    RatMatrix,
    matrix_exp_row,
    matrix_exp_scaled,
    matrix_log_unipotent,
)
from posetpoly.omegagraph import OmegaGraph, _graph_on_ideals, path_counts
from posetpoly.polynomials import UniPoly, from_binomial_basis, lagrange_interpolate
from posetpoly.posets import (
    LabeledPoset,
    canonical_key,
    enumerate_ideals,
    induced_subposet,
    iter_bits,
)
from posetpoly.stats import COUNTERS, ORACLE_BOUND_ENV

__all__ = [
    "ORACLE_BOUND_ENV",
    "order_poly_bruteforce",
    "order_poly_matrix",
    "order_poly_recursive",
    "ThetaMatrix",
    "theta_matrix",
    "phi",
    "convolution_check",
    "phi_recursion_check",
    "omega_from_phi",
    "derivative_identity_check",
]

def order_constraints(lp: LabeledPoset) -> list[tuple[int, int, bool]]:
    """(x, y, strict) per relation x < y of lp, strict where labels decrease."""
    above = lp.poset.above
    return [(x, y, lp.omega[x] > lp.omega[y]) for x in range(lp.size) for y in iter_bits(above[x])]


def admissible_maps(
    lp: LabeledPoset, largest: int, constraints: list[tuple[int, int, bool]] | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield the admissible maps f: P -> {0..largest} whose largest value
    is `largest`, as tuples indexed by element: order-preserving, and
    strict on every relation x < y whose labels decrease (the constraints
    an oracle builds once per call).  One product of ranges per element
    that first takes the largest value, so largest = 0..N-1 walks each of
    the N^|P| maps into [N] once."""
    n = lp.size
    if constraints is None:
        constraints = order_constraints(lp)
    below, up_to = range(largest), range(largest + 1)
    for first in range(n if largest else 1):  # at 0 only the zero map
        for f in product(*[below] * first, (largest,), *[up_to] * (n - 1 - first)):
            for x, y, strict in constraints:
                if f[x] > f[y] or (strict and f[x] == f[y]):
                    break
            else:
                yield f


def order_poly_bruteforce(lp: LabeledPoset) -> UniPoly:
    """Count the admissible maps into [n] for each n up to |P| in one pass
    over the |P|^|P| maps into [|P|], by largest value, and interpolate."""
    n = lp.size
    stats.charge("maps", n**n, lambda b: f"poset size {n} exceeds the brute-force bound {b}")
    if n == 0:
        return UniPoly([1])
    constraints = order_constraints(lp)
    counts = [sum(1 for _ in admissible_maps(lp, k, constraints)) for k in range(n)]
    return lagrange_interpolate([(0, 0), *enumerate(accumulate(counts), 1)])


@dataclass(frozen=True)
class ThetaMatrix:
    """exp(t·Phi) over the ideal lattice; entry (I, J) is the order
    polynomial of the difference subposet J \\ I whenever I ⊆ J."""

    graph: OmegaGraph
    entries: PolyMatrix

    def entry(self, i: int, j: int) -> UniPoly:
        return self.entries.entry(i, j)


def _log_over_graph(lp: LabeledPoset) -> tuple[OmegaGraph, RatMatrix]:
    """The ω-graph of lp and Φ = ln(I + A) over its adjacency A.  The
    route is charged |P|²·d² to the matrix budget, d the ideal count,
    before the arc search: the log's products grow like |P|·d² on
    antichains and |P|²·d² on chains, so d² alone would admit the
    80-element chain, whose log takes seconds, and longer chains."""
    ideals = enumerate_ideals(lp.poset)
    n, d = lp.size, len(ideals)
    count = n * n * d * d
    stats.charge(
        "matrix",
        count,
        lambda b: f"the matrix route on {n} points and {d} ideals weighs {n}^2*{d}^2 = "
        f"{count}, over the enumeration budget {b}^{b}",
    )
    graph = _graph_on_ideals(lp, ideals)
    return graph, matrix_log_unipotent(graph.adjacency())


def theta_matrix(lp: LabeledPoset) -> ThetaMatrix:
    graph, phi_matrix = _log_over_graph(lp)
    return ThetaMatrix(graph, matrix_exp_scaled(phi_matrix))


def order_poly_matrix(lp: LabeledPoset) -> UniPoly:
    """Ω(P,ω;t) as the (∅, P) entry of Θ(t) = exp(t·ln(I + A)): the log
    over the whole ω-graph, then only the source row of the exponential."""
    graph, phi_matrix = _log_over_graph(lp)
    return matrix_exp_row(phi_matrix, graph.source)[graph.sink]


SMALL_CLASS_MAX = 5
"""Classes with at most this many elements keep one record across calls.

There are 4,474 labeled classes on at most 5 points (1 + 1 + 3 + 19 + 219
+ 4,231 partial orders on a labeled set), so the table of small records
is bounded by construction; allowing 6 points would allow 130,023 more.
"""

Step = Callable[[int, list[tuple[object, int, int]]], object]


class ClassRecord:
    """One labeled poset class in an integer recursion: its key, the below
    masks of a representative in label order (so its size is len(key)), and
    its integer coordinates for Omega (which e and etilde read too) and for
    qsym.  A class of at most SMALL_CLASS_MAX elements also holds the public
    values of Omega, e, etilde and qsym and lists its children again for
    each quantity it expands; a larger one keeps its children, listed the
    first time any quantity expands it, and holds no public value."""

    __slots__ = (
        "key",
        "children",
        "omega",
        "qsym",
        "omega_value",
        "eulerian_value",
        "etilde_value",
        "qsym_value",
    )

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.children: list[tuple[ClassRecord, int, int]] | None = None
        self.omega = self.qsym = None
        self.omega_value = self.eulerian_value = self.etilde_value = self.qsym_value = None


_SMALL_LABELED: dict[tuple, ClassRecord] = {}

_INTERNED: dict[tuple, tuple] = {}
"""One copy of each coordinate tuple a small record holds.  Few are
distinct (3,000 deep-recursion queries of seed 4711 leave 4,017 small
records with 266 Omega and 883 qsym tuples), and there are at most two per
small class, so the table is bounded by the small classes."""


class LargeClasses:
    """The table of one top class: the records of the classes of more than
    SMALL_CLASS_MAX elements that its recursions reach, and the nvars their
    qsym coordinates are truncated at (None before any qsym call)."""

    __slots__ = ("top", "table", "qsym_nvars")

    def __init__(self, top: tuple) -> None:
        self.top = top
        self.table: dict[tuple, ClassRecord] = {}
        self.qsym_nvars: int | None = None


_LAST_LARGE: LargeClasses | None = None


def class_record(key: tuple, table: dict[tuple, ClassRecord]) -> ClassRecord:
    """The record of the class with this key: kept for the life of the
    process when the class has at most SMALL_CLASS_MAX elements, else in
    table, which belongs to the top class or to the caller."""
    memo = _SMALL_LABELED if len(key) <= SMALL_CLASS_MAX else table
    record = memo.get(key)
    if record is None:
        record = memo[key] = ClassRecord(key)
    return record


def top_record(
    lp: LabeledPoset, qsym_nvars: int | None = None
) -> tuple[ClassRecord, dict[tuple, ClassRecord]]:
    """The record of lp's class and the table of large classes its
    recursions read, from one canonical_key.

    A class of at most SMALL_CLASS_MAX elements reaches only small classes.
    A larger one reads the one slot, which holds the table of the most
    recent top class and is replaced when lp's class is another, as in
    omegagraph.path_counts: the quantities of one poset are usually asked
    for back to back, and one table is bounded by that poset's classes.
    Large qsym coordinates are truncated at nvars - 1 parts, so a qsym call
    passes its nvars and a change of nvars drops them.
    """
    global _LAST_LARGE
    key = canonical_key(lp)[1]
    if len(key) <= SMALL_CLASS_MAX:
        return class_record(key, {}), {}
    large = _LAST_LARGE
    if large is not None and large.top == key:
        COUNTERS["class_slot_hits"] += 1
    else:
        COUNTERS["class_slot_misses"] += 1
        large = _LAST_LARGE = LargeClasses(key)
    if qsym_nvars is not None and large.qsym_nvars != qsym_nvars:
        for record in large.table.values():
            record.qsym = None
        large.qsym_nvars = qsym_nvars
    return class_record(key, large.table), large.table


def class_coordinates(
    record: ClassRecord, name: str, step: Step, table: dict[tuple, ClassRecord]
) -> object:
    """The coordinates held in record's slot name, computed once per record
    as step(size, [(child coordinates, removed size, multiplicity), ...])
    over the children that labeled_children lists.  No call nests: a stack
    lists the records below record that lack the quantity, computed by
    increasing size, since every child is smaller than its parent.  A large
    class keeps its children; a small one holds them only for this call."""
    if getattr(record, name) is None:
        pending: dict[ClassRecord, list[tuple[ClassRecord, int, int]]] = {}
        stack = [record]
        while stack:
            current = stack.pop()
            if current in pending:
                continue
            children = current.children
            if children is None:
                children = labeled_children(current.key, table)
                if len(current.key) > SMALL_CLASS_MAX:
                    current.children = children
            pending[current] = children
            stack.extend(child for child, _, _ in children if getattr(child, name) is None)
        for current in sorted(pending, key=lambda r: len(r.key)):
            size = len(current.key)
            coords = step(size, [(getattr(c, name), s, m) for c, s, m in pending[current]])
            if size <= SMALL_CLASS_MAX:
                coords = _INTERNED.setdefault(coords, coords)
            setattr(current, name, coords)
    return getattr(record, name)


def public_value(record: ClassRecord, name: str, build: Callable[[], object]) -> object:
    """The value a public function returns, held in record's slot name: a
    small class returns the same object on every call, and a large class
    builds a new one on every call."""
    if len(record.key) > SMALL_CLASS_MAX:
        return build()
    value = getattr(record, name)
    if value is None:
        value = build()
        setattr(record, name, value)
    return value


def labeled_children(
    key: tuple, table: dict[tuple, ClassRecord]
) -> list[tuple[ClassRecord, int, int]]:
    """The classes P \\ S for the nonempty omega-natural ideals S of the class.

    A key lists the below masks in label order (canonical_key), so the
    representative is labeled 1..n by index and key[x] is x's lower set.
    An x with key[x] >> x nonzero has a later element in its lower set, so
    it could never join an ideal grown in label order and is skipped.  Label
    order is a linear extension of the other elements, so the ideals grow
    along it (posets._grow_ideals) with no transpose and no sort, and every
    ideal comes after its parent, the ideal without its highest bit.  Every
    induced subposet keeps label order, so the child's masks are already
    its key.

    Each child key is squeezed from its parent ideal's key (child_key): one
    step per mask, not one per mask and removed element, so a class of k
    points costs O(k) per ideal.  The keys live only for the call.
    """
    size = len(key)
    COUNTERS["large_class_expansions" if size > SMALL_CLASS_MAX else "small_class_expansions"] += 1
    full = (1 << size) - 1
    keys = {0: key}
    counts: dict[tuple[ClassRecord, int], int] = {}
    order = [x for x, below in enumerate(key) if not below >> x]
    for ideal in posets._grow_ideals(key, order):
        if ideal:
            child = (class_record(child_key(keys, full, ideal), table), ideal.bit_count())
            counts[child] = counts.get(child, 0) + 1
    return [(child, removed, mult) for (child, removed), mult in counts.items()]


def child_key(keys: dict[int, tuple[int, ...]], full: int, ideal: int) -> tuple[int, ...]:
    """The key of P \\ ideal for a nonempty omega-natural ideal of the class
    whose key is keys[0]; keys maps ideals to the keys of their complements
    and gains the key computed here.

    In label order the highest bit t of the ideal is its largest label, so
    t is maximal in it and ideal - t is a smaller omega-natural ideal.  The
    key of P \\ ideal is the key of P \\ (ideal - t) with t's mask dropped
    and the gap at t's position closed in every other mask, one step per
    mask; closing the gap drops t's bit from the below masks of the
    elements above t.  A parent missing from keys is built the same way.
    """
    t = ideal.bit_length() - 1
    parent = ideal ^ (1 << t)
    masks = keys.get(parent)
    if masks is None:
        masks = child_key(keys, full, parent)
    gap = ((full ^ ideal) & ((1 << t) - 1)).bit_count()
    low = (1 << gap) - 1
    high = ~low
    squeezed = [mask if mask <= low else (mask & low) | ((mask >> 1) & high) for mask in masks]
    del squeezed[gap]
    keys[ideal] = key = tuple(squeezed)
    return key


def binomial_step(size: int, children: list[tuple[object, int, int]]) -> tuple[int, ...]:
    """Binomial coordinates of an order polynomial, Omega = sum_k c_k C(t,k):
    Delta^-1 shifts C(t,k) to C(t,k+1), so c_0 = 0 for a nonempty class and
    c_(k+1)(P) = sum over the children of c_k(child)."""
    if size == 0:
        return (1,)
    total = [0] * (size + 1)
    for coords, _, mult in children:
        for k, c in enumerate(coords, 1):
            total[k] += mult * c
    return tuple(total)


def reflected_coordinates(coords: tuple[int, ...]) -> tuple[int, ...]:
    """Binomial coordinates of (-1)^n·f(-t) for f = sum_k coords[k] C(t,k),
    n = len(coords) - 1: of Omega(P, complementary labeling) when coords are
    Omega(P, omega)'s (Stanley's reciprocity).

    C(-t,k) = (-1)^k C(t+k-1,k) and, by Vandermonde, C(t+k-1,k) = sum_j
    C(k-1,k-j) C(t,j), so w_j = (-1)^n sum_k (-1)^k C(k-1,k-j) coords[k].
    Pascal's rule carries the row C(k-1, .) from one k to the next."""
    n = len(coords) - 1
    reflected = [coords[0] if n % 2 == 0 else -coords[0]] + [0] * n
    row = [1]  # C(k-1, i) for i = 0..k-1
    for k in range(1, n + 1):
        if k > 1:
            row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        c = coords[k] if (n + k) % 2 == 0 else -coords[k]
        if c:
            for j in range(1, k + 1):
                reflected[j] += c * row[k - j]
    return tuple(reflected)


def order_poly_recursive(lp: LabeledPoset) -> UniPoly:
    """Inverse-difference recursion over complements of omega-natural ideals,
    in integer binomial coordinates."""
    record, table = top_record(lp)
    coords = class_coordinates(record, "omega", binomial_step, table)
    value = public_value(record, "omega_value", lambda: from_binomial_basis(coords))
    assert isinstance(value, UniPoly)
    return value


def phi(lp: LabeledPoset) -> Fraction:
    """The t-coefficient of the order polynomial, from path counts:
    sum over k of (-1)^(k-1) c_k / k, over the common denominator lcm(1..|P|)."""
    n = lp.size
    if n == 0:
        return Fraction(0)
    counts = path_counts(lp).c
    denominator = lcm(*range(1, n + 1))
    numerator = sum((-1) ** (k - 1) * counts[k] * (denominator // k) for k in range(1, n + 1))
    return Fraction(numerator, denominator)


def convolution_check(lp: LabeledPoset) -> bool:
    """Omega(s+t) = sum over all ideals S of Omega(S;s)·Omega(P\\S;t),
    compared as genuine bivariate polynomials."""
    full = lp.poset.full_mask
    lhs: dict[tuple[int, int], Fraction] = {}
    for k, c in enumerate(order_poly_recursive(lp).coeffs):
        for i in range(k + 1):
            key = (i, k - i)
            lhs[key] = lhs.get(key, Fraction(0)) + c * comb(k, i)
    rhs: dict[tuple[int, int], Fraction] = {}
    for ideal in enumerate_ideals(lp.poset):
        left = order_poly_recursive(induced_subposet(lp, ideal))
        right = order_poly_recursive(induced_subposet(lp, full & ~ideal))
        for i, a in enumerate(left.coeffs):
            for j, b in enumerate(right.coeffs):
                rhs[(i, j)] = rhs.get((i, j), Fraction(0)) + a * b
    return _strip_zeros(lhs) == _strip_zeros(rhs)


def _strip_zeros(table: dict[tuple[int, int], Fraction]) -> dict[tuple[int, int], Fraction]:
    return {k: v for k, v in table.items() if v != 0}


def _phi_per_class(lp: LabeledPoset) -> Callable[[int], Fraction]:
    """phi of the subposet on a subset of lp.  The identities below ask for
    the same labeled-poset class many times over, so the returned function
    builds one graph per class; its table lives only as long as the caller."""
    seen: dict[tuple, Fraction] = {}

    def phi_of(subset: int) -> Fraction:
        sub = induced_subposet(lp, subset)
        key = canonical_key(sub)
        if key not in seen:
            seen[key] = phi(sub)
        return seen[key]

    return phi_of


def _flag_products(lp: LabeledPoset) -> list[Fraction]:
    """totals[r] = sum over ideal flags 0 ⊊ I_1 ⊊ ... ⊊ I_r = P of the
    product of phi over successive differences."""
    n = lp.size
    ideals = enumerate_ideals(lp.poset)
    phi_of = _phi_per_class(lp)
    phis: dict[tuple[int, int], Fraction] = {}
    for a, small in enumerate(ideals):
        for b in range(a + 1, len(ideals)):
            big = ideals[b]
            if small & big == small:
                phis[(a, b)] = phi_of(big & ~small)
    table: list[dict[int, Fraction]] = [dict() for _ in ideals]
    table[0][0] = Fraction(1)
    for b in range(1, len(ideals)):
        acc = table[b]
        for a in range(b):
            weight = phis.get((a, b))
            if weight is None or weight == 0:
                continue
            for r, val in table[a].items():
                acc[r + 1] = acc.get(r + 1, Fraction(0)) + val * weight
    top = table[len(ideals) - 1]
    return [top.get(r, Fraction(0)) for r in range(n + 1)]


def phi_recursion_check(lp: LabeledPoset) -> bool:
    """The 1/r!-weighted flag sums collapse to 1 for omega-natural posets
    and to 0 otherwise."""
    totals = _flag_products(lp)
    value = sum(totals[r] / factorial(r) for r in range(1, len(totals)))
    expected = 1 if lp.is_omega_natural(lp.poset.full_mask) else 0
    return value == expected


def omega_from_phi(lp: LabeledPoset) -> UniPoly:
    """Rebuild the order polynomial with flag sums as t^r coefficients."""
    totals = _flag_products(lp)
    return UniPoly([Fraction(0)] + [totals[r] / factorial(r) for r in range(1, len(totals))])


def derivative_identity_check(lp: LabeledPoset) -> bool:
    """dOmega/dt equals the phi-weighted convolutions, in both mirror forms."""
    full = lp.poset.full_mask
    target = order_poly_recursive(lp).derivative()
    phi_of = _phi_per_class(lp)
    front = UniPoly()
    back = UniPoly()
    for ideal in enumerate_ideals(lp.poset):
        rest = full & ~ideal
        if ideal:
            front = front + phi_of(ideal) * order_poly_recursive(induced_subposet(lp, rest))
        if ideal != full:
            back = back + phi_of(rest) * order_poly_recursive(induced_subposet(lp, ideal))
    return front == target and back == target
