#!/usr/bin/env python3
"""Diff two ``BENCH_*.json`` snapshots and fail on performance regressions.

Usage::

    python benchmarks/compare_bench.py OLD.json NEW.json [--threshold 0.2]
                                       [--key worklist_s]
    python benchmarks/compare_bench.py --check-scaling BENCH_driver.json
                                       [--min-ratio 1.0]
    python benchmarks/compare_bench.py --check-incremental BENCH_incremental.json
    python benchmarks/compare_bench.py --check-cold BENCH_driver.json

**Diff mode** (two positional snapshots): scenarios are matched by name.  A
scenario regresses when its timing key in NEW exceeds OLD by more than
``threshold`` (default 20%).  Scenarios present in only one file are
reported but do not fail the comparison.

**Scaling mode** (``--check-scaling``): reads one ``BENCH_driver.json``
snapshot and fails when the recorded ``parallel_4_vs_serial`` throughput
ratio falls below the floor.  The floor is host-aware: on a multi-core host
the parallel driver must at least match serial (floor 1.0); on a
single-core host the parallel scenarios measure pure scheduling/IPC
overhead, so the floor relaxes to 0.85 — parallel may pay a few percent,
never a collapse.  ``--min-ratio`` overrides the floor explicitly.

**Incremental mode** (``--check-incremental``): reads one
``BENCH_incremental.json`` snapshot and fails unless each single-edit
scenario re-ran exactly one analysis (the summary-digest firewall held).
It also prints each edit's time relative to the no-op rerun against the
same store, with a warning above 2x.  That ceiling is advisory, not gated:
an edit still does whole-program work (parsing, simulation), so single
quarter-second samples read 1-2x and would fail at random.  The
gate does not compare edits with the cold run either: a faster cold run
must not fail it.

**Cold mode** (``--check-cold``): reads one ``BENCH_driver.json`` snapshot
and fails when the cold serial run took more than 15x the time of the warm
serial run measured alongside it.  Both
times come from the same run on the same host, so the ratio holds across
machines of different speed; a cold run that re-analyses the whole program
for every transform attempt reads about 50x.

Exit status: 0 when no regression, 1 on regression, 2 on usage/parse
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: floor for parallel_4/serial throughput on a multi-core host
MULTI_CORE_FLOOR = 1.0
#: floor on a single-core host, where workers only add overhead
SINGLE_CORE_FLOOR = 0.85
#: the scaling ratio the CI gate judges
SCALING_KEY = "parallel_4_vs_serial"

#: advisory ceiling on a single edit's time relative to the no-op rerun
MAX_EDIT_VS_NOOP = 2.0
#: the single-edit scenarios the incremental gate judges
EDIT_SCENARIOS = ("edit_leaf", "edit_root")
#: the incremental snapshot's no-op rerun the edits are judged against
NOOP_SCENARIO = "warm_noop"

#: ceiling on the cold serial run's time relative to the warm serial run
MAX_COLD_VS_WARM = 15.0
#: the driver snapshot's cold and warm scenarios the cold gate judges
COLD_SCENARIO, WARM_SCENARIO = "cold_serial", "warm_serial"


def load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read benchmark file {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def scenarios_by_name(payload: dict) -> dict[str, dict]:
    return {row["scenario"]: row for row in payload.get("scenarios", [])}


def scaling_floor(payload: dict, min_ratio: float | None) -> float:
    if min_ratio is not None:
        return min_ratio
    host_cpus = payload.get("host_cpus") or 1
    return MULTI_CORE_FLOOR if host_cpus > 1 else SINGLE_CORE_FLOOR


def check_scaling(payload: dict, min_ratio: float | None) -> int:
    scaling = payload.get("scaling")
    if not scaling:
        print("error: snapshot has no 'scaling' section (schema < 2?)", file=sys.stderr)
        return 2
    ratio = scaling.get(SCALING_KEY)
    if ratio is None:
        print(f"error: snapshot has no {SCALING_KEY!r} ratio", file=sys.stderr)
        return 2
    floor = scaling_floor(payload, min_ratio)
    host_cpus = payload.get("host_cpus") or 1
    print(f"host_cpus: {host_cpus}   floor: {floor:.2f}")
    for name in sorted(scaling):
        print(f"  {name:<24} {scaling[name]:.3f}x")
    if ratio < floor:
        print(
            f"\nFAIL: {SCALING_KEY} = {ratio:.3f}x is below the "
            f"{floor:.2f}x floor — the parallel driver is slower than it "
            f"is allowed to be on this host"
        )
        return 1
    print(f"\nOK: {SCALING_KEY} = {ratio:.3f}x >= {floor:.2f}x")
    return 0


def timed_scenarios(payload: dict, names) -> dict[str, dict] | None:
    """The named scenarios, or ``None`` (after saying so) if one is untimed."""
    scenarios = scenarios_by_name(payload)
    for name in names:
        if scenarios.get(name, {}).get("elapsed_s") is None:
            print(f"error: snapshot has no timed {name!r} scenario", file=sys.stderr)
            return None
    return scenarios


def check_incremental(payload: dict) -> int:
    scenarios = timed_scenarios(payload, (NOOP_SCENARIO, *EDIT_SCENARIOS))
    if scenarios is None:
        return 2
    noop_s = scenarios[NOOP_SCENARIO]["elapsed_s"]
    print(f"{NOOP_SCENARIO}: {noop_s:.3f}s   advisory ceiling: {MAX_EDIT_VS_NOOP:.1f}x")
    failures: list[str] = []
    for name in EDIT_SCENARIOS:
        row = scenarios[name]
        executed = row.get("analyses_executed")
        ratio = row["elapsed_s"] / noop_s if noop_s else float("inf")
        print(
            f"  {name:<12} {executed} analysis(es) re-run, "
            f"{row['elapsed_s']:.3f}s = {ratio:.2f}x the no-op rerun"
        )
        if executed != 1:
            failures.append(
                f"{name}: {executed} analyses re-ran after a single edit "
                f"(the summary firewall did not hold)"
            )
        if ratio > MAX_EDIT_VS_NOOP:
            print(
                f"  warning: {name} is above the advisory "
                f"{MAX_EDIT_VS_NOOP:.1f}x ceiling (not gated)"
            )
    if failures:
        print(f"\nFAIL: {len(failures)} incremental gate violation(s):")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("\nOK: each single edit re-ran exactly one analysis")
    return 0


def check_cold(payload: dict) -> int:
    scenarios = timed_scenarios(payload, (COLD_SCENARIO, WARM_SCENARIO))
    if scenarios is None:
        return 2
    cold_s = scenarios[COLD_SCENARIO]["elapsed_s"]
    warm_s = scenarios[WARM_SCENARIO]["elapsed_s"]
    ratio = cold_s / warm_s if warm_s else float("inf")
    print(
        f"{COLD_SCENARIO}: {cold_s:.3f}s   {WARM_SCENARIO}: {warm_s:.3f}s   "
        f"ratio: {ratio:.1f}x   ceiling: {MAX_COLD_VS_WARM:.1f}x"
    )
    if ratio > MAX_COLD_VS_WARM:
        print(
            f"\nFAIL: the cold serial run took {ratio:.1f}x the warm run, "
            f"above the {MAX_COLD_VS_WARM:.1f}x ceiling"
        )
        return 1
    print(f"\nOK: cold serial run within {MAX_COLD_VS_WARM:.1f}x of the warm run")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", nargs="?", help="baseline BENCH_*.json")
    parser.add_argument("new", nargs="?", help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="allowed relative slowdown before failing (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--key",
        default="worklist_s",
        help="per-scenario timing key to compare (default: worklist_s)",
    )
    parser.add_argument(
        "--check-scaling",
        metavar="SNAPSHOT",
        help="check the parallel-vs-serial scaling ratio of one driver snapshot",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=None,
        help="override the host-aware scaling floor (with --check-scaling)",
    )
    parser.add_argument(
        "--check-incremental",
        metavar="SNAPSHOT",
        help="check that each single edit of one incremental snapshot re-ran one analysis",
    )
    parser.add_argument(
        "--check-cold",
        metavar="SNAPSHOT",
        help="check the cold-vs-warm serial time ratio of one driver snapshot",
    )
    args = parser.parse_args(argv)

    if args.check_scaling:
        if args.old or args.new:
            print("error: --check-scaling takes no OLD/NEW snapshots", file=sys.stderr)
            return 2
        return check_scaling(load(args.check_scaling), args.min_ratio)
    if args.check_incremental:
        if args.old or args.new:
            print(
                "error: --check-incremental takes no OLD/NEW snapshots",
                file=sys.stderr,
            )
            return 2
        return check_incremental(load(args.check_incremental))
    if args.check_cold:
        if args.old or args.new:
            print("error: --check-cold takes no OLD/NEW snapshots", file=sys.stderr)
            return 2
        return check_cold(load(args.check_cold))
    if not args.old or not args.new:
        print("error: diff mode needs OLD and NEW snapshots", file=sys.stderr)
        return 2

    old = scenarios_by_name(load(args.old))
    new = scenarios_by_name(load(args.new))

    regressions: list[str] = []
    added: list[str] = []
    removed: list[str] = []
    print(f"{'scenario':<16} {'old':>10} {'new':>10} {'delta':>8}")
    for name in sorted(old.keys() | new.keys()):
        old_row, new_row = old.get(name), new.get(name)
        if old_row is None or new_row is None:
            # benchmarks present in only one snapshot (a PR added or retired
            # one) are informational, never a comparison failure
            if old_row is None:
                added.append(name)
                print(f"{name:<16} {'added (new benchmark)':>30}")
            else:
                removed.append(name)
                print(f"{name:<16} {'removed (not in new)':>30}")
            continue
        old_t, new_t = old_row.get(args.key), new_row.get(args.key)
        if old_t is None or new_t is None:
            print(f"{name:<16} {'key ' + args.key + ' missing':>30}")
            continue
        delta = (new_t - old_t) / old_t if old_t else 0.0
        marker = ""
        if delta > args.threshold:
            marker = "  REGRESSION"
            regressions.append(f"{name}: {old_t:.4f}s -> {new_t:.4f}s ({delta:+.1%})")
        print(f"{name:<16} {old_t:>9.4f}s {new_t:>9.4f}s {delta:>+7.1%}{marker}")

    if added:
        print(f"\nadded: {', '.join(added)}")
    if removed:
        print(f"removed: {', '.join(removed)}")
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} scenario(s) slower by more than "
            f"{args.threshold:.0%} on {args.key!r}:"
        )
        for line in regressions:
            print(f"  - {line}")
        return 1
    print(f"\nOK: no scenario slower by more than {args.threshold:.0%} on {args.key!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
