"""Work counters the package keeps about itself.

Each counter is one integer in a module-level dict, bumped where the work
happens, so reading them costs nothing and bumping them costs one dict
store per event:

- small_class_expansions / large_class_expansions: labeled classes of at
  most / more than SMALL_CLASS_MAX points whose children were listed
  (invariants.labeled_children);
- class_slot_hits / class_slot_misses: public recursion calls on a class of
  more than SMALL_CLASS_MAX points that found / did not find its
  large-class table in the one slot of invariants;
- path_slot_hits / path_slot_misses: the same for omegagraph.path_counts.

snapshot() copies the counters; reset() sets them all to 0.  The module is
not exported from posetpoly: it reports on the implementation, not on the
invariants.
"""

from __future__ import annotations

__all__ = ["snapshot", "reset"]

COUNTERS: dict[str, int] = dict.fromkeys(
    (
        "small_class_expansions",
        "large_class_expansions",
        "class_slot_hits",
        "class_slot_misses",
        "path_slot_hits",
        "path_slot_misses",
    ),
    0,
)


def snapshot() -> dict[str, int]:
    """A copy of every counter, by name."""
    return dict(COUNTERS)


def reset() -> None:
    """Set every counter back to 0."""
    for name in COUNTERS:
        COUNTERS[name] = 0
