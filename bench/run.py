"""posetpoly benchmark: seeded closed-loop query streams against the library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout; the package is imported from ./src.  Each
stream runs in a fresh interpreter (bench/worker.py), so no run shares the
package's process-wide memos with another.  One client, one process, no
threads: the next query is sent when the previous answer has returned.

Times are reported at a fixed reference machine speed: each run times a
reference kernel as it goes and scales by it (calibration.py explains why).
The raw wall-clock figures are printed above the metrics.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs the stream under the profiler with spans around every call
into the package, then replays the same queries untraced in another fresh
interpreter for the overhead ratio; it prints the per-layer metrics and
writes spans and per-module aggregates to bench/out/.
--smoke runs every workload on a handful of inputs, both ways, and checks
that every metric is printed with its unit and that no query failed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit).
"""

from __future__ import annotations

import argparse
import json
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
from tracing import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("deep-recursion", "wide-lattice", "matrix-route", "catalog-sweep")
SETUP_SAMPLES = 9  # the measured child's own set-up is one of them
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "posets.ideals": "count",
    "omegagraph.arcs": "count",
    "omegagraph.arc_yield": "ratio",
    "matrices.theta_nnz": "count",
    "framework.qsym_terms": "count",
    "span.query.total_s": "s",
    "span.parse_poset_file.total_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def _spawn(worker_args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a fresh worker; return its set-up time and its JSON result.

    The set-up time runs from the spawn to the worker's READY line."""
    command = [sys.executable, "-I", str(WORKER), *worker_args]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    chunks: list[bytes] = []
    setup_s = None
    try:
        while True:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                raise BenchError(f"worker timed out: {' '.join(worker_args)}")
            chunk = proc.stdout.read(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if setup_s is None and b"\n" in chunk:
                setup_s = time.perf_counter() - start
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(worker_args)}")
    lines = b"".join(chunks).decode().splitlines()
    if not lines or lines[0] != "READY":
        raise BenchError(f"worker did not report set-up: {' '.join(worker_args)}")
    return setup_s, (json.loads(lines[-1]) if len(lines) > 1 else None)


def _write(name: str, payload: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload))
    return path


def _input_summary(result: dict) -> str:
    records = result["inputs"]
    sizes = [r["size"] for r in records]
    ideals = [r["ideals"] for r in records]
    return (
        f"inputs: {len(records)} used, sizes {min(sizes)}..{max(sizes)}, "
        f"ideals {min(ideals)}..{max(ideals)} (total {sum(ideals)})"
    )


def _setup(worker_args: list[str], deadline: float) -> tuple[float, float, dict | None]:
    """Spawn a worker; its set-up time raw and at the reference speed, and its result."""
    speed = calibration.sample()
    raw, result = _spawn(worker_args, deadline)
    return raw, raw * calibration.NOMINAL_S / speed, result


def _scaled_ms(result: dict) -> list[float]:
    return [s * 1000 for s in calibration.scaled_latencies(result["latencies_s"], result["speed_samples"])]


def _summary(latencies_ms: list[float]) -> tuple[float, float, float]:
    """Throughput, median and 90th-percentile latency of one stream."""
    return (
        1000 * len(latencies_ms) / sum(latencies_ms),
        statistics.median(latencies_ms),
        statistics.quantiles(latencies_ms, n=10)[8],
    )


def measure(workload: str, seed: int, seconds: float, limit: int | None, setup_samples: int) -> dict:
    """End-to-end metrics, tracing off."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(setup_samples - 1):
        raw_setup, scaled_setup, _ = _setup([*base, "--setup-only"], deadline)
        setups.append((raw_setup, scaled_setup))
    stream = [*base, "--seconds", str(seconds)] + (["--limit", str(limit)] if limit else [])
    raw_setup, scaled_setup, result = _setup(stream, deadline)
    setups.append((raw_setup, scaled_setup))
    attempted, failed = result["attempted"], result["failed"]
    raw = _summary([s * 1000 for s in result["latencies_s"]])
    throughput, p50, p90 = _summary(_scaled_ms(result))
    record = _write(f"{workload}-seed{seed}.inputs.json", {"workload": workload, "seed": seed, "inputs": result["inputs"]})
    print(
        f"workload {workload}, seed {seed}: closed loop, 1 client, {attempted} queries in "
        f"{result['busy_s']:.3f} s of query time at the reference speed (inputs generated in {result['generate_s']:.3f} s, "
        f"answers checked in {result['check_s']:.3f} s, both off the clock)"
    )
    print(_input_summary(result) + f"; record in {record.relative_to(ROOT)}")
    print(f"latency samples: {attempted}; set-up samples: {len(setups)}; speed samples: {len(result['speed_samples'])}")
    print(
        f"raw wall clock: throughput {raw[0]:.4f} 1/s, p50 {raw[1]:.4f} ms, p90 {raw[2]:.4f} ms, "
        f"set-up {statistics.median(r for r, _ in setups):.4f} s; "
        f"speed factor {calibration.run_factor(result['speed_samples']):.4f}"
    )
    print(f"error_ratio {failed / attempted} ratio ({failed} failed of {attempted} attempted)")
    metrics = {
        "throughput_qps": throughput,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


def trace(workload: str, seed: int, seconds: float, limit: int | None) -> dict:
    """Per-layer metrics from a profiled, spanned run, plus the overhead
    against an untraced replay of exactly the same queries."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    stream = [*base, "--seconds", str(seconds), "--trace"] + (["--limit", str(limit)] if limit else [])
    _, traced = _spawn(stream, deadline)
    _, replay = _spawn([*base, "--limit", str(traced["attempted"])], deadline)
    if replay["inputs"] != traced["inputs"]:
        raise BenchError("the untraced replay saw different inputs")
    overhead = sum(_scaled_ms(traced)) / sum(_scaled_ms(replay))
    factor = calibration.run_factor(traced["speed_samples"])
    attempted = traced["attempted"] + replay["attempted"]
    failed = traced["failed"] + replay["failed"]
    modules, spans, counters = traced["modules"], traced["span_totals"], traced["counters"]

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = modules[layer]["self_s"] * factor
        metrics[f"{layer}.calls"] = modules[layer]["calls"]
    metrics["posets.ideals"] = sum(r["ideals"] for r in traced["inputs"])
    metrics["omegagraph.arcs"] = counters["arcs"]
    metrics["omegagraph.arc_yield"] = counters["arcs"] / counters["submasks"] if counters["submasks"] else 0.0
    metrics["matrices.theta_nnz"] = counters["theta_nnz"]
    metrics["framework.qsym_terms"] = counters["qsym_terms"]
    metrics["span.query.total_s"] = spans["query"]["total_s"] * factor
    metrics["span.parse_poset_file.total_s"] = spans["parse_poset_file"]["total_s"] * factor
    metrics["trace.overhead_ratio"] = overhead

    path = _write(
        f"{workload}-seed{seed}.trace.json",
        {
            "workload": workload,
            "seed": seed,
            "queries": traced["attempted"],
            "traced_busy_s": traced["busy_s"],
            "untraced_busy_s": replay["busy_s"],
            "overhead_ratio": overhead,
            "speed_factor": factor,
            "modules": modules,
            "span_totals": spans,
            "counters": counters,
            "span_fields": ["id", "parent", "query", "name", "start", "end"],
            "spans": traced["spans"],
            "inputs": traced["inputs"],
        },
    )
    print(f"workload {workload}, seed {seed}: traced {traced['attempted']} queries in {traced['busy_s']:.3f} s, "
          f"untraced replay {replay['busy_s']:.3f} s")
    print(_input_summary(traced) + f"; spans and aggregates in {path.relative_to(ROOT)}")
    for name, entry in sorted(spans.items()):
        print(f"span.{name}: {entry['count']} calls, total {entry['total_s']:.6f} s, self {entry['self_s']:.6f} s")
    print(f"error_ratio {failed / attempted} ratio ({failed} failed of {attempted} attempted)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()},
    }


def _print_table(result: dict) -> None:
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']} {entry['unit']}")


def smoke() -> int:
    """Every workload on three inputs, both ways; every metric present with
    its unit, matching BENCHMARK.json, and no failed query."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if declared["end_to_end"] != END_TO_END or declared["per_layer"] != PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from the ones this benchmark prints")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the ones this benchmark runs")
    for workload in WORKLOADS:
        for kind, result in (
            ("end_to_end", measure(workload, 1, float("inf"), 3, setup_samples=1)),
            ("per_layer", trace(workload, 1, float("inf"), 3)),
        ):
            _print_table(result)
            printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if printed != declared[kind]:
                problems.append(f"{workload}: {kind} metrics or units differ from BENCHMARK.json")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload}: {result['failed']} of {result['attempted']} queries failed")
    for problem in problems:
        print(f"SMOKE FAIL: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through _spawn, which stops its worker


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "posetpoly" / "__init__.py").is_file():
        print(f"benchmark: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        if not args.seconds > 0:
            parser.error("--seconds must be positive")
        if args.trace:
            result = trace(args.workload, args.seed, args.seconds, None)
        else:
            result = measure(args.workload, args.seed, args.seconds, None, SETUP_SAMPLES)
    except BenchError as error:
        print(f"benchmark: {error}", file=sys.stderr)
        return 1
    _print_table(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
