"""Bare posets: weak and strict counts trade places under reflection.

Without labels there are two classical polynomials: maps that respect
the order weakly, and maps that respect it strictly.  Each is the order
polynomial of a labeling, a natural one for the weak count and a strict
one for the strict count.  Under the strict labeling the recursion only
ever peels minimal elements, which keeps the subproblem tree far smaller.
Reflecting the argument swaps the two, up to a sign.
"""

from posetpoly import (
    make_chain,
    make_poset,
    make_shrub,
    order_poly_unlabeled,
    signed_order_poly_nabla,
    strict_order_poly,
)
from posetpoly.unlabeled import count_subcalls

for name, p in [
    ("four-chain", make_chain(4)),
    ("two-leaf shrub", make_shrub(2)),
    ("diamond", make_poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])),
]:
    weak = order_poly_unlabeled(p)
    strict = strict_order_poly(p)
    print(name)
    print(f"  weak   {weak.render()}")
    print(f"  strict {strict.render()}")

    sign = -1 if p.size % 2 else 1
    assert weak == sign * strict.reflect()
    assert signed_order_poly_nabla(p) == sign * weak

    ideals = count_subcalls(p, "ideals")
    minimal = count_subcalls(p, "minimal")
    print(f"  subproblem requests: {ideals} over all ideals,"
          f" {minimal} over minimal subsets")
    print(f"  strict value at 1 is {strict(1)}"
          f" (1 exactly when nothing is comparable)")
    print()
