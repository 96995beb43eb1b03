"""Plain-text poset descriptions.

Format, one item per line, `#` starts a comment anywhere:

    elements: 3
    labels: 3 1 2        # optional; injective positive integers
    0 < 1                # cover relations on 0-based indices
    0 < 2

Without a labels line the elements get a natural labeling read off a
linear extension.  Every rejection names the offending line, except one:
a header of N >= B^B elements (B the oracle bound of posetpoly.stats) is
refused with stats.BudgetError before anything of size N is allocated,
since such a poset has at least N + 1 ideals, more than any enumeration
may hold.

After every line is read, the covers are added in file order to the
closed order by posets.add_cover, one mask OR per element of the new
cover's down-set and up-set, so a cycle is reported on the first cover
whose high end already precedes its low end.
"""

from __future__ import annotations

from posetpoly import stats
from posetpoly.posets import LabeledPoset, Poset, add_cover, natural_labeling

__all__ = ["PosetParseError", "parse_poset_file", "render_poset_file"]


class PosetParseError(ValueError):
    """Input rejection with a 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for number, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((number, stripped))
    return out


def parse_poset_file(text: str) -> LabeledPoset:
    lines = _meaningful_lines(text)
    if not lines:
        raise PosetParseError(1, "missing 'elements: n' header")
    header_line, header = lines[0]
    if not header.startswith("elements:"):
        raise PosetParseError(header_line, "first line must be 'elements: n'")
    try:
        n = int(header.removeprefix("elements:").strip())
    except ValueError:
        raise PosetParseError(header_line, "element count is not an integer") from None
    if n < 0:
        raise PosetParseError(header_line, "element count must be nonnegative")
    stats.admit(
        n + 1,
        lambda b: f"a poset on {n} elements has at least {n + 1} ideals, "
        f"past the enumeration budget {b}^{b}",
    )

    labels: tuple[int, ...] | None = None
    covers: list[tuple[int, int, int]] = []  # (line, low, high)
    for number, line in lines[1:]:
        if line.startswith("labels:"):
            if labels is not None:
                raise PosetParseError(number, "labels given twice")
            fields = line.removeprefix("labels:").split()
            try:
                values = tuple(int(f) for f in fields)
            except ValueError:
                raise PosetParseError(number, "labels must be integers") from None
            if len(values) != n:
                raise PosetParseError(number, f"expected {n} labels, got {len(values)}")
            if any(v < 1 for v in values):
                raise PosetParseError(number, "labels must be positive")
            if len(set(values)) != n:
                raise PosetParseError(number, "labels must be distinct")
            labels = values
            continue
        parts = line.split("<")
        if len(parts) != 2:
            raise PosetParseError(number, f"expected 'i < j', got {line!r}")
        try:
            low, high = int(parts[0]), int(parts[1])
        except ValueError:
            raise PosetParseError(number, "cover endpoints must be integers") from None
        for index in (low, high):
            if not 0 <= index < n:
                raise PosetParseError(number, f"element {index} out of range 0..{n - 1}")
        if low == high:
            raise PosetParseError(number, f"element {low} cannot cover itself")
        covers.append((number, low, high))

    # grow the order one cover at a time so a cycle names its closing line
    above, below = [0] * n, [0] * n
    for number, low, high in covers:
        if not add_cover(above, below, low, high):
            raise PosetParseError(number, f"cycle: {high} already precedes {low}")

    p = Poset(above)
    return LabeledPoset(p, labels if labels is not None else natural_labeling(p))


def render_poset_file(lp: LabeledPoset) -> str:
    """Inverse of parsing, up to comments and line order."""
    lines = [f"elements: {lp.size}", "labels: " + " ".join(str(v) for v in lp.omega)]
    for low, high in lp.poset.cover_pairs():
        lines.append(f"{low} < {high}")
    return "\n".join(lines) + "\n"
