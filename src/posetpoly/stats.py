"""Work counters the package keeps about itself, and the one budget that
bounds every enumeration.

Every route enumerates something that grows exponentially, and each such
enumeration makes one call, charge(kind, count, describe).  With B the
oracle bound, the POSET_ORACLE_MAX environment variable (an integer, at
least 1; default 7), a count above B^B (823,543 at B = 7) raises
BudgetError, a ValueError reading describe(B) + "; set POSET_ORACLE_MAX to
raise it", on which the CLI exits 1.  Any other count is added to
COUNTERS[kind].  The kinds, and what each budget counts:

- ideals: the lists grown by posets._grow_ideals (for enumerate_ideals,
  omega_natural_ideals and, in label order from a class key,
  invariants.labeled_children) and by the search of
  omegagraph.path_counts, which read limit() once and stop as soon as a
  list passes it;
- maps: N^|P| maps into [N] per call of framework.qsym_direct and of
  invariants.order_poly_bruteforce (N = |P|, so |P| <= B), the work done:
  both walk each map once (invariants.admissible_maps);
- exponents: those a qsym:N spec of framework.run_invariant would write,
  per class;
- monomials: those framework.qsym_recursive expands (a small class
  returning its kept value expands none);
- compositions: the 2^(n-1) that bernoulli.bernoulli_multinomial sums;
- matrix: |P|^2·d^2 per log/exp of the matrix route over an ω-graph of d
  ideals (invariants.order_poly_matrix and theta_matrix), charged before
  the arc search.

The other counters take one dict store per event:

- small_class_expansions / large_class_expansions: labeled classes of at
  most / more than SMALL_CLASS_MAX points whose children were listed
  (invariants.labeled_children);
- class_slot_hits / class_slot_misses: public recursion calls on a class of
  more than SMALL_CLASS_MAX points that found / did not find its
  large-class table in the one slot of invariants;
- path_slot_hits / path_slot_misses: the same for omegagraph.path_counts.

admit(count, describe) refuses as charge does but counts nothing, for a
check made ahead of the enumeration that charges, such as the poset-file
parser's refusal of a header of N >= B^B elements, which have at least
N + 1 ideals.  snapshot() copies the counters; reset() sets them all to
0.  The module is not exported from posetpoly: it reports on the
implementation, not on the invariants.
"""

from __future__ import annotations

import os
from typing import Callable

__all__ = ["ORACLE_BOUND_ENV", "BudgetError", "limit", "admit", "charge", "snapshot", "reset"]

ORACLE_BOUND_ENV = "POSET_ORACLE_MAX"
_DEFAULT_ORACLE_BOUND = 7

COUNTERS: dict[str, int] = dict.fromkeys(
    "ideals maps exponents monomials compositions matrix small_class_expansions "
    "large_class_expansions class_slot_hits class_slot_misses path_slot_hits "
    "path_slot_misses".split(),
    0,
)


class BudgetError(ValueError):
    """An enumeration past the budget of B^B items."""


def _bound() -> int:
    raw = os.environ.get(ORACLE_BOUND_ENV)
    if raw is None:
        return _DEFAULT_ORACLE_BOUND
    try:
        bound = int(raw)
    except ValueError:
        raise ValueError(f"{ORACLE_BOUND_ENV} must be an integer, got {raw!r}") from None
    if bound < 1:
        raise ValueError(f"{ORACLE_BOUND_ENV} must be at least 1, got {raw!r}")
    return bound


def limit() -> int:
    """B^B, the most items one enumeration may hold."""
    bound = _bound()
    return bound**bound


def admit(count: int, describe: Callable[[int], str], budget: int = 0) -> None:
    """Refuse an enumeration of count items with BudgetError when count
    passes B^B; describe(B) words the refusal.  A loop that has read
    limit() passes it as budget (0, the default, reads it here), so that B
    is read once per enumeration."""
    if count > (budget or limit()):
        bound = _bound()
        raise BudgetError(f"{describe(bound)}; set {ORACLE_BOUND_ENV} to raise it")


def charge(kind: str, count: int, describe: Callable[[int], str], budget: int = 0) -> None:
    """admit an enumeration of count items and count it under kind."""
    admit(count, describe, budget)
    COUNTERS[kind] += count


def snapshot() -> dict[str, int]:
    """A copy of every counter, by name."""
    return dict(COUNTERS)


def reset() -> None:
    """Set every counter back to 0."""
    for name in COUNTERS:
        COUNTERS[name] = 0
