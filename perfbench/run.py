#!/usr/bin/env python3
"""The analyzer's benchmark: one workload per process, closed loop.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_batch --seed 0 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` first measures about half of ``--seconds`` untraced, then
as many further operations with every layer wrapped (see ``layers.py``),
and reports the per-layer metrics, including the tracing overhead.  Spans are written to ``.perfbench/traces/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Workloads, metrics and their meaning are described in
``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE = ROOT / ".perfbench"

#: name -> unit of every end-to-end metric, in report order
END_TO_END_UNITS = {
    "setup_s": "s",
    "functions_per_s": "functions/s",
    "edit_p50_s": "s",
    "edit_p90_s": "s",
    "seeds_per_s": "programs/s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
    "parallel_loops": "count",
    "transforms_applied": "count",
    "sim_speedup_geomean": "x",
}

#: set-up repetitions timed in fresh processes
SETUP_SAMPLES = 7

#: the host-speed probe: a fixed pure-Python loop that runs no analyzer code
PROBE_ITERATIONS = 100_000
PROBE_REPEATS = 5
#: the probe loop's time on the reference host (2 vCPUs at 2.1 GHz,
#: CPython 3.11) when it runs fast; timings are reported at this speed
PROBE_REFERENCE_S = 0.0075
#: probes averaged on each side of ``Workload.prepare``, which lasts up to
#: a dozen seconds
PREPARE_PROBE_REPEATS = 10


class HostSpeed:
    """How slowly the host runs a fixed loop, relative to the reference host.

    The machines this benchmark runs on share their cores with other
    tenants, and the same work can take twice as long a minute later.  The
    probe runs between operations, never inside one; the latency of an
    operation is divided by the slowdown the probes just before and just
    after it saw, so that it compares across runs made at different moments.
    The speed also flips by a fifth within a fraction of a second: around an
    operation that lasts seconds, ``repeats`` probes in a row are averaged
    to follow its mean speed.
    """

    def __init__(self, interval_s: float, repeats: int = 1):
        #: the least time between two probes
        self.interval_s = interval_s
        #: loop medians averaged into one probe
        self.repeats = repeats
        #: (when, mean of the medians) of every probe
        self.points: list[tuple[float, float]] = []

    def probe(self, force: bool = False) -> None:
        if not force and self.points and time.perf_counter() - self.points[-1][0] < self.interval_s:
            return
        medians = []
        for _ in range(self.repeats):
            loops = []
            for _ in range(PROBE_REPEATS):
                started = time.perf_counter()
                total = 0
                for i in range(PROBE_ITERATIONS):
                    total += i * i
                loops.append(time.perf_counter() - started)
            medians.append(statistics.median(loops))
        self.points.append((time.perf_counter(), statistics.mean(medians)))

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the last probe before ``start`` and the first
        after ``end``."""
        before = [loop for when, loop in self.points if when <= start][-1:]
        after = [loop for when, loop in self.points if when >= end][:1]
        return statistics.mean(before + after) / PROBE_REFERENCE_S


def bootstrap() -> None:
    """Make the checkout's ``src/repro`` importable, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: the analyzer's sources are missing ({src / 'repro'})")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def source_tree_digest() -> str:
    """Digest of the analyzer's sources and example programs."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "examples" / "corpus").glob("*.ptr"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def time_setup(args) -> float:
    """Median wall time, at reference speed, of a fresh process importing
    the benchmark's modules and generating the workload's inputs."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--quick"] if args.quick else [])
    host = HostSpeed(0.0)
    samples = []
    for _ in range(SETUP_SAMPLES):
        host.probe()
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        ended = time.perf_counter()
        host.probe()
        samples.append((ended - started) / host.slowdown(started, ended))
    return statistics.median(samples)


def closed_loop(
    workload,
    seconds: float | None = None,
    count: int | None = None,
    first: int = 0,
    recorder=None,
    host=None,
):
    """Run ``workload.op(first), op(first + 1), ...`` back to back: a new operation
    starts while less than ``seconds`` have passed or the workload's cycle
    is incomplete, or until ``count`` operations are done.  ``host`` is
    probed between operations, if given, and each result's ``reference_s``
    set: the latency at reference speed, or as measured without ``host``.

    Between operations the garbage is collected and the survivors frozen,
    so that an operation's collections scan only what it allocated, as in
    the fresh process the command line starts per command.  Otherwise the
    analyzer's per-process memo caches grow the heap with every edit, and
    full collections inside later operations take up to 0.2 s."""
    results = []
    windows = []
    started = time.perf_counter()
    while True:
        gc.collect()
        gc.freeze()
        if host is not None:
            host.probe()
        if count is not None:
            if len(results) >= count:
                break
        elif (
            results
            and len(results) % workload.cycle == 0
            and time.perf_counter() - started >= seconds
        ):
            break
        index = first + len(results)
        if recorder is not None:
            recorder.op = index
        op_started = time.perf_counter()
        results.append(workload.op(index))
        windows.append((op_started, time.perf_counter()))
        if len(results) == workload.cycle:
            # the high-water mark after one cycle: later operations only
            # fill the analyzer's bounded per-process caches further
            results[-1].peak_rss_mb = peak_rss_mb()
    if host is not None and results and host.points[-1][0] < windows[-1][1]:
        host.probe(force=True)
    for result, (op_started, op_ended) in zip(results, windows):
        slowdown = host.slowdown(op_started, op_ended) if host is not None else 1.0
        result.reference_s = result.latency_s / slowdown
    return results


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(results, setup_s: float, workload) -> dict[str, float]:
    """The end-to-end metrics; timings are at the reference host's speed."""
    latencies = [r.reference_s for r in results]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    return {
        "setup_s": setup_s,
        "functions_per_s": sum(r.functions for r in results) / sum(latencies),
        "edit_p50_s": statistics.median(latencies),
        "edit_p90_s": p90(latencies),
        "seeds_per_s": sum(r.programs for r in results) / sum(latencies),
        "peak_rss_mb": results[workload.cycle - 1].peak_rss_mb,
        "ops_ok_frac": 1.0 - failed / attempted,
        "parallel_loops": workload.verdicts.parallel_loops,
        "transforms_applied": workload.verdicts.transforms_applied,
        "sim_speedup_geomean": workload.verdicts.speedup_geomean,
    }


def describe(name: str, results) -> str:
    latencies = sorted(r.latency_s for r in results)
    tail = p90(latencies)
    beyond = sum(lat > tail for lat in latencies)
    return (
        f"{name}: {len(results)} operations, p50 {statistics.median(latencies):.4f} s, "
        f"p90 {tail:.4f} s with {beyond} samples beyond it"
    )


def traced_run(args, workload, layers, spans):
    """A warm-up operation, an untraced half window, then as many of the
    following operations traced, each phase from the state after set-up.

    The warm-up keeps one-off costs of a process's first operation out of
    the comparison.  The traced phase does not repeat the untraced one's
    operations: the analyzer memoizes parsed programs and analyses per
    source text in the process, so repeated edits would run warm."""
    workload.op(0)
    workload.reset()
    untraced = closed_loop(workload, seconds=args.seconds / 2)
    workload.reset()
    recorder = spans.SpanRecorder(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    counters = layers.LayerCounters()
    layers.install(recorder, counters)
    try:
        traced = closed_loop(
            workload, count=len(untraced), first=len(untraced), recorder=recorder
        )
    finally:
        recorder.restore()
    problems = workload.check()
    values = layers.layer_metrics(
        recorder,
        counters,
        wall_s=sum(r.latency_s for r in traced),
        untraced_wall_s=sum(r.latency_s for r in untraced),
        batches=workload.batches,
        caches=workload.caches,
        store_bytes=workload.store_bytes(),
    )
    recorder.write_jsonl(STATE / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    print(describe(f"{args.workload} untraced", untraced))
    print(describe(f"{args.workload} traced", traced))
    wall = values["trace.wall_s"]
    for name in layers.SPAN_METRICS:
        busy = values[f"{name}.busy_s"]
        if busy:
            print(f"  {name:36s} busy {busy:9.4f} s  {100 * busy / wall:5.1f} % of traced wall")
    units = {name: unit for name, (unit, _) in layers.metric_units().items()}
    return untraced + traced, problems, values, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the self-tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bootstrap()
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOAD_NAMES)}")
    if args.setup_only:
        workloads.inputs(args.workload, args.seed, args.quick)
        return 0

    scratch = STATE / "tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = time_setup(args)
        workload = workloads.make_workload(
            args.workload, args.seed, args.quick, scratch,
            STATE / "reference" / source_tree_digest(),
        )
        prepare_host = HostSpeed(0.0, PREPARE_PROBE_REPEATS)
        prepare_host.probe()
        started = time.perf_counter()
        workload.prepare()
        ended = time.perf_counter()
        prepare_host.probe()
        setup_s += (ended - started) / prepare_host.slowdown(started, ended)

        if args.trace:
            results, problems, values, units = traced_run(args, workload, layers, spans)
        else:
            host = HostSpeed(workload.probe_interval_s, workload.probe_repeats)
            results = closed_loop(workload, seconds=args.seconds, host=host)
            problems = workload.check()
            values = end_to_end(results, setup_s, workload)
            units = END_TO_END_UNITS
            print(describe(args.workload, results))
            slowdowns = [loop / PROBE_REFERENCE_S for _, loop in host.points]
            print(
                f"host slowdown median {statistics.median(slowdowns):.3f} (min "
                f"{min(slowdowns):.3f}, max {max(slowdowns):.3f}, {len(slowdowns)} probes)"
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
