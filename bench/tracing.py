"""Traced runs: spans around the benchmark's calls into the package, per-module
self time and call counts from the standard-library profiler, and work counts
taken from the objects the ideal-graph and matrix layers return.

Nothing here edits the package.  The counters wrap two public functions at
run time (`build_omega_graph` and `theta_matrix`) in a traced run only.
"""

from __future__ import annotations

import cProfile
import fractions
import pstats
import sys
import time
from collections import defaultdict
from pathlib import Path

# the package modules, plus the stdlib leaf every one of them calls; cli and
# checks are left out because the streams call the library directly
LAYERS = (
    "posets",
    "catalog",
    "polynomials",
    "localized",
    "matrices",
    "omegagraph",
    "invariants",
    "eulerian",
    "bernoulli",
    "framework",
    "unlabeled",
    "posetfile",
    "fractions",
)


class Tracer:
    """In-memory spans: (id, parent id, query id, name, start, end)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._query = -1

    def query(self, index: int, fn, *args):
        self._query = index
        return self.call("query", fn, *args)

    def call(self, name: str, fn, *args):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self._query, name, start, end)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total duration, and self time (duration
        minus the part covered by child spans)."""
        child_time = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, _, _, name, start, end in self.spans:
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
        return out


class WorkCounters:
    """Arcs found, submasks walked and Theta nonzeros, read from returned objects."""

    def __init__(self) -> None:
        self.arcs = 0
        self.submasks = 0
        self.theta_nnz = 0

    def install(self) -> None:
        import posetpoly.invariants
        import posetpoly.omegagraph

        build = posetpoly.omegagraph.build_omega_graph
        theta = posetpoly.invariants.theta_matrix

        def counted_build(lp):
            graph = build(lp)
            self.arcs += sum(len(succ) for succ in graph.successors)
            # the arc search walks every submask of every ideal
            self.submasks += sum(1 << ideal.bit_count() for ideal in graph.ideals)
            return graph

        def counted_theta(lp):
            result = theta(lp)
            # read the sparse rows directly: the public accessors would be profiled as matrices calls
            self.theta_nnz += sum(len(row) for row in result.entries._rows)
            return result

        for name, module in list(sys.modules.items()):
            if name == "posetpoly" or name.startswith("posetpoly."):
                if getattr(module, "build_omega_graph", None) is build:
                    module.build_omega_graph = counted_build
                if getattr(module, "theta_matrix", None) is theta:
                    module.theta_matrix = counted_theta


def module_times(profiler: cProfile.Profile, package_dir: Path) -> dict[str, dict[str, float]]:
    """Self time and exact Python-level call counts per layer.

    Built-in functions (and generated code such as dataclass methods) have no
    module of their own, so their time is charged to the layer that called
    them; their calls are not counted.
    """
    fractions_file = str(Path(fractions.__file__).resolve())
    package_dir = package_dir.resolve()
    layer_of: dict[str, str | None] = {}

    def layer(filename: str) -> str | None:
        if filename not in layer_of:
            path = Path(filename).resolve() if not filename.startswith(("~", "<")) else None
            if path is None:
                layer_of[filename] = None
            elif str(path) == fractions_file:
                layer_of[filename] = "fractions"
            elif path.parent == package_dir and path.stem in LAYERS:
                layer_of[filename] = path.stem
            else:
                layer_of[filename] = None
        return layer_of[filename]

    out = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    for (filename, _, _), (_, calls, own, _, callers) in pstats.Stats(profiler).stats.items():
        name = layer(filename)
        if name is not None:
            out[name]["self_s"] += own
            out[name]["calls"] += calls
        elif filename.startswith(("~", "<")):
            for (caller_file, _, _), edge in callers.items():
                caller = layer(caller_file)
                if caller is not None:
                    out[caller]["self_s"] += edge[2]
    return out
