"""The benchmark's own tests, on tiny inputs (``--quick``).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

The file is deliberately not named ``test_*.py``: the repository's test
suite collects every such file, and these tests start benchmark processes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(workload: str, trace: int, seed: int = 0, env: dict | None = None) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick",
    ]
    out = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {})},
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert NAME_RE.fullmatch(metric["name"])
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_emitted(workload):
    result = run_bench(workload, trace=0)
    check_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["cold_batch", "fuzz_campaign"])
def test_every_per_layer_metric_is_emitted(workload):
    result = run_bench(workload, trace=1)
    check_metrics(result, SPEC["per_layer"])
    assert result["correct"]


def test_traced_spans_nest():
    run_bench("edit_session", trace=1, seed=3)
    records = [
        json.loads(line)
        for line in (ROOT / ".perfbench" / "traces" / "edit_session-seed3.jsonl").open()
    ]
    assert records
    assert len({r["run"] for r in records}) == 1
    for record in records:
        assert record["start"] <= record["end"]
        assert record["self_s"] >= 0
        if record["parent"] is not None:
            parent = records[record["parent"]]
            assert parent["start"] <= record["start"] and record["end"] <= parent["end"]
            assert parent["op"] == record["op"]


def test_self_time_excludes_children():
    recorder = spans.SpanRecorder("unit")

    def inner():
        time.sleep(0.02)

    traced_inner = recorder.wrap("inner", inner)

    def outer():
        traced_inner()
        traced_inner()
        time.sleep(0.01)

    recorder.wrap("outer", outer)()
    totals = recorder.totals()
    assert totals["inner"]["calls"] == 2
    outer_total = totals["outer"]
    assert outer_total["self_s"] == pytest.approx(
        outer_total["busy_s"] - totals["inner"]["busy_s"]
    )
    assert 0.005 < outer_total["self_s"] < totals["inner"]["busy_s"]


def test_injected_crashes_count_as_failed_operations():
    result = run_bench(
        "parallel_batch", trace=0, env={"REPRO_FAULTS": "crash:function=scale,times=99"}
    )
    assert result["failed"] > 0
    assert result["metrics"]["ops_ok_frac"]["value"] < 1.0


def test_default_seed_reproduces_the_bench_corpus():
    from repro.driver.corpus import corpus_named

    expected = [(item.name, item.source) for item in corpus_named("bench")]
    assert [(item.name, item.source) for item in workloads.corpus(0)] == expected
    assert workloads.corpus(workloads.HELD_OUT_SEED) != workloads.corpus(0)
