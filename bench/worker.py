"""One run of one stream, in a fresh interpreter started by run.py.

Set-up is the import of the package plus generating the first input (and,
for catalog-sweep, building the catalog); the worker prints READY when it
is done so the parent can time it.  The stream is a closed loop with one
client: the next query starts when the previous answer has returned.  The
clock runs only while a query runs, from the call that parses its text
until its last answer returns; later inputs are generated between queries
with the clock stopped.  The stream ends once the queries have taken
`--seconds` in total at the reference speed (see calibration.py), or
after `--limit` queries.

Answers are checked only after the stream and after the peak resident set
has been read, so the correctness gate neither slows queries nor warms
their memos.  The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import cProfile
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_INPUTS = 1  # inputs generated before READY
FAILURE_REPORTS = 3  # tracebacks printed to stderr per run


def _import_package():
    source = ROOT / "src"
    if not (source / "posetpoly" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {source / 'posetpoly'}")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(BENCH_DIR))
    import posetpoly

    if Path(posetpoly.__file__).resolve().parent != (source / "posetpoly").resolve():
        raise SystemExit(f"benchmark: imported posetpoly from {posetpoly.__file__}, not {source}")
    return Path(posetpoly.__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float("inf"))
    parser.add_argument("--limit", type=int, default=sys.maxsize)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    profiler = cProfile.Profile() if args.trace else None
    if profiler is not None:
        profiler.enable()
    package_dir = _import_package()
    import calibration
    import tracing
    import workloads
    from posetpoly import QSymTruncated

    workload = workloads.WORKLOADS[args.workload]
    stream = workload.make_inputs(args.seed)
    stream = itertools.chain(list(itertools.islice(stream, SETUP_INPUTS)), stream)
    counters = tracer = None
    if args.trace:
        counters = tracing.WorkCounters()
        counters.install()
        tracer = tracing.Tracer()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    def direct(name, fn, *call_args):
        return fn(*call_args)

    call = tracer.call if tracer is not None else direct
    latencies: list[float] = []
    used = []
    answers = []
    failed = 0
    busy = generating = 0.0

    def calibrate() -> None:
        # the profiler is paused between queries only, with no package frame on the stack
        if profiler is not None:
            profiler.disable()
        speed_samples.append((len(latencies), calibration.sample()))
        if profiler is not None:
            profiler.enable()

    speed_samples: list[tuple[int, float]] = []
    calibrate()
    next_calibration = calibration.CALIBRATE_EVERY_S
    while busy < args.seconds and len(latencies) < args.limit:
        start = time.perf_counter()
        inp = next(stream)
        generating += time.perf_counter() - start
        start = time.perf_counter()
        try:
            if tracer is not None:
                answer = tracer.query(inp.index, workload.query, inp, call)
            else:
                answer = workload.query(inp, call)
        except Exception:
            answer = None
            failed += 1
            if failed <= FAILURE_REPORTS:
                traceback.print_exc()
        elapsed = time.perf_counter() - start
        # stream length in reference-speed seconds, so that a slow spell of
        # the machine does not shorten the stream and the memos it warms
        busy += elapsed * calibration.NOMINAL_S / speed_samples[-1][1]
        latencies.append(elapsed)
        used.append(inp)
        answers.append(answer)
        if busy >= next_calibration:
            calibrate()
            while busy >= next_calibration:
                next_calibration += calibration.CALIBRATE_EVERY_S
    calibrate()
    if profiler is not None:
        profiler.disable()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checking = time.perf_counter()
    for inp, answer in zip(used, answers):
        if answer is None:
            continue
        try:
            workload.check(inp, answer)
        except Exception:
            failed += 1
            if failed <= FAILURE_REPORTS:
                print(f"input {inp.index}:\n{inp.text}", file=sys.stderr)
                traceback.print_exc()
    checking = time.perf_counter() - checking

    result = {
        "attempted": len(latencies),
        "failed": failed,
        "busy_s": busy,
        "generate_s": generating,
        "check_s": checking,
        "latencies_s": latencies,
        "speed_samples": speed_samples,
        "peak_rss_kib": peak_rss_kib,
        "inputs": [inp.record() for inp in used],
    }
    if args.trace:
        result["modules"] = tracing.module_times(profiler, package_dir)
        result["spans"] = tracer.spans
        result["span_totals"] = tracer.totals()
        result["counters"] = {
            "arcs": counters.arcs,
            "submasks": counters.submasks,
            "theta_nnz": counters.theta_nnz,
            "qsym_terms": sum(
                len(value.terms())
                for answer in answers
                if answer is not None
                for value in answer
                if isinstance(value, QSymTruncated)
            ),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
