"""The graph on the ideal lattice whose arcs are omega-natural differences.

Vertices are all ideals of (P, omega) in (cardinality, mask) order; there
is an arc I -> J exactly when I is a proper subset of J and J \\ I is
omega-natural.  Arcs therefore always point from smaller ideal to larger,
the adjacency matrix is strictly upper triangular, and every directed path
from the empty set to P has at most |P| arcs.

The arcs out of an ideal I are exactly the nonempty omega-natural ideals
S of P \\ I, and build_omega_graph finds them with work that grows with the
arcs it returns (at most |P| steps per arc), not with the subsets it
could test.  Elements are renumbered along a linear extension, so
the lowest undecided element x is always minimal among the undecided
ones.  Each step either drops x together with its up-set, or adds x to S
when no member of S below x carries a larger label (one AND against a
per-element mask).  Dropping is always possible, so every branch ends in
a distinct S and no work is spent on subsets that fail the test.

count_paths is the one DP over the explicit graph.  It runs in exact
integers, one int per vertex whose base-2^B digit k counts the paths of
length k that reach it, so each arc costs one shift-add.  No count
exceeds n^n for n = |P|, so B = n·bit_length(n) + 1 bits never carry.
chain_polynomial reads its interior chains off the same counts, shifted
by one arc.

path_counts gets the same counts from a second search that never builds
the graph and never holds its arc list.  It grows the ideals itself along
a linear extension, with no call to enumerate_ideals and no sort, gives
each ideal the list of its covers, and reaches every arc I -> J by adding
covers to I in increasing position; each arc is one shift-add into J's
packed counts, then forgotten.  The two searches stay separate on
purpose: build_omega_graph still serves the omega-graph command, the
matrix route, chain_polynomial and the checks, and count_paths over it is
the independent reference that path_counts is tested against.

path_counts keeps the path counts of the most recent labeled-poset class,
so the invariants one query asks for in turn (the Eulerian pair, then
phi) share one search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from posetpoly.matrices import RatMatrix
from posetpoly.polynomials import UniPoly
from posetpoly.posets import (
    LabeledPoset,
    _ideal_budget_error,
    _oracle_bound,
    canonical_key,
    enumerate_ideals,
    iter_bits,
    linear_extension,
)
from posetpoly.stats import COUNTERS

__all__ = [
    "OmegaGraph",
    "PathCounts",
    "build_omega_graph",
    "count_paths",
    "path_counts",
    "chain_polynomial",
    "to_dot",
]


@dataclass(frozen=True, slots=True)
class OmegaGraph:
    labeled_poset: LabeledPoset
    ideals: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return len(self.ideals) - 1

    def has_arc(self, i: int, j: int) -> bool:
        return j in self.successors[i]

    def arc_count(self) -> int:
        return sum(len(s) for s in self.successors)

    def adjacency(self) -> RatMatrix:
        return RatMatrix(
            len(self.ideals),
            [{j: Fraction(1) for j in succ} for succ in self.successors],
        )


def build_omega_graph(lp: LabeledPoset) -> OmegaGraph:
    p = lp.poset
    ideals = enumerate_ideals(p)
    # renumber along a linear extension: the lowest bit of any undecided set is minimal in it
    moved = {1 << e: 1 << k for k, e in enumerate(linear_extension(p))}

    def renumber(mask: int) -> int:
        image = 0
        while mask:
            low = mask & -mask
            image |= moved[low]
            mask ^= low
        return image

    # keyed by the renumbered bit of each element x
    keep_without_up: dict[int, int] = {}  # complement of x and everything above x
    larger_below: dict[int, int] = {}  # elements below x with a larger label
    for e in range(p.size):
        x = moved[1 << e]
        keep_without_up[x] = ~(x | renumber(p.above[e]))
        larger_below[x] = renumber(
            sum(1 << y for y in iter_bits(p.below[e]) if lp.omega[y] > lp.omega[e])
        )
    starts = [renumber(ideal) for ideal in ideals]
    index = {mask: k for k, mask in enumerate(starts)}
    full = p.full_mask
    successors = []
    for start in starts:
        row = []
        stack = [(0, full & ~start)]  # (S so far, undecided elements)
        while stack:
            chosen, rest = stack.pop()
            while rest:
                x = rest & -rest
                if not chosen & larger_below[x]:
                    stack.append((chosen | x, rest ^ x))
                rest &= keep_without_up[x]
            row.append(index[start | chosen])
        del row[0]  # the first branch drops every element: S empty, J = I
        row.sort()
        successors.append(tuple(row))
    return OmegaGraph(lp, tuple(ideals), tuple(successors))


@dataclass(frozen=True, slots=True)
class PathCounts:
    """c[k] = number of source-to-sink paths with exactly k arcs."""

    c: tuple[int, ...]

    def multipath(self, n: int) -> int:
        """Multi-paths of length n: each of n steps may stand still."""
        return sum(comb(n, k) * ck for k, ck in enumerate(self.c))


def count_paths(graph: OmegaGraph) -> PathCounts:
    """Path counts by a DP in lattice order, one packed int per vertex.

    Base-2^width digit k of packed[v] counts the paths of length k from the
    source to v, so an arc v -> w is one shift-add.  A path of k arcs from
    the empty ideal to an ideal v is an ordered partition of v into k
    blocks, so it counts at most k^|v| <= n^n < 2^(n * n.bit_length()) for
    n = |P|; width = n * n.bit_length() + 1 keeps every digit from carrying.
    """
    size = graph.labeled_poset.size
    width = size * size.bit_length() + 1
    packed = [0] * len(graph.ideals)
    packed[graph.source] = 1
    for v, succ in enumerate(graph.successors):
        shifted = packed[v] << width
        for w in succ:
            packed[w] += shifted
    sink = packed[graph.sink]
    digit = (1 << width) - 1
    return PathCounts(tuple((sink >> (width * k)) & digit for k in range(size + 1)))


def _search_path_counts(lp: LabeledPoset) -> PathCounts:
    """count_paths of lp's ideal graph, by a search that never stores an arc.

    Position k of a linear extension is bit k.  The ideals grow one
    position at a time, so each one precedes its supersets, the first is
    the empty set and the last is P.  Each ideal lists its covers
    (bit of x, index of I + x, larger-labeled elements below x), highest
    bit first.  From I the search adds covers in increasing position, and
    only those x with no larger-labeled element below x in the block S, so
    S stays omega-natural.  Every omega-natural ideal S of P \\ I is reached
    once, along its elements in position order, so each node of the search
    is one arc I -> I + S and costs one shift-add of count_paths' packed
    counts.  A node is pushed only when it has a cover above its last bit.
    Like enumerate_ideals it refuses a lattice of more than B^B ideals, B
    the oracle bound.
    """
    p = lp.poset
    size = p.size
    order = linear_extension(p)
    position = [0] * size
    for k, e in enumerate(order):
        position[e] = k
    steps = []  # (position, its below mask, its larger-labeled below mask), highest first
    for k in range(size - 1, -1, -1):
        e = order[k]
        lower = list(iter_bits(p.below[e]))
        need = sum(1 << position[y] for y in lower)
        larger = sum(1 << position[y] for y in lower if lp.omega[y] > lp.omega[e])
        steps.append((k, need, larger))
    bound = _oracle_bound()
    budget = bound**bound
    ideals = [0]
    for k, need, _ in reversed(steps):
        bit = 1 << k
        ideals += [ideal | bit for ideal in ideals if ideal & need == need]
        if len(ideals) > budget:
            raise _ideal_budget_error(bound)
    index = {ideal: v for v, ideal in enumerate(ideals)}
    covers = [
        [
            (1 << k, index[ideal | 1 << k], larger)
            for k, need, larger in steps
            if not (ideal >> k) & 1 and ideal & need == need
        ]
        for ideal in ideals
    ]
    width = size * size.bit_length() + 1
    packed = [0] * len(ideals)
    packed[0] = 1
    for v, start in enumerate(covers):
        shifted = packed[v] << width
        stack = [(start, 0)]  # (covers of I + S, S); S's last bit is its highest
        while stack:
            cover, block = stack.pop()
            for bit, w, larger in cover:
                if bit < block:
                    break
                if not larger & block:
                    packed[w] += shifted
                    after = covers[w]
                    if after and after[0][0] > bit:
                        stack.append((after, block | bit))
    sink = packed[-1]
    digit = (1 << width) - 1
    return PathCounts(tuple((sink >> (width * k)) & digit for k in range(size + 1)))


_LAST_PATHS: tuple[tuple, PathCounts] | None = None


def path_counts(lp: LabeledPoset) -> PathCounts:
    """count_paths of lp's ideal graph, kept for the most recent poset class.

    The counts come from _search_path_counts, which shares neither the
    ideal enumeration nor the arc search with build_omega_graph.  Path
    counts depend only on the labeled-poset class, so the slot is keyed
    by canonical_key.  One slot, not a memo: the invariants of one poset are
    usually asked for back to back, and a memo would grow with every class.
    """
    global _LAST_PATHS
    key = canonical_key(lp)
    last = _LAST_PATHS
    if last is not None and last[0] == key:
        COUNTERS["path_slot_hits"] += 1
        return last[1]
    COUNTERS["path_slot_misses"] += 1
    counts = _search_path_counts(lp)
    _LAST_PATHS = (key, counts)
    return counts


def chain_polynomial(graph: OmegaGraph) -> UniPoly:
    """Chain polynomial of the interior graph (source and sink removed).

    The coefficient of mu^j counts interior chains with j vertices that
    thread through the removed endpoints: the source must reach the first
    vertex by an arc and the last vertex must reach the sink.  Such a chain
    is a source-to-sink path with j+1 arcs, so the coefficients are the
    path counts shifted down by one arc, which is what the localized
    Eulerian identities consume.  The constant term is 1 exactly when the
    arc source -> sink itself exists; the empty poset has the empty chain.
    """
    if graph.labeled_poset.size == 0:
        return UniPoly([1])
    return UniPoly(count_paths(graph).c[1:])


def to_dot(graph: OmegaGraph) -> str:
    """Graphviz text: one node per ideal, arcs as in the graph."""
    lines = ["digraph omega_graph {"]
    for k, ideal in enumerate(graph.ideals):
        members = ",".join(str(i) for i in iter_bits(ideal))
        lines.append(f'  v{k} [label="{{{members}}}"];')
    for v, succ in enumerate(graph.successors):
        for w in succ:
            lines.append(f"  v{v} -> v{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
