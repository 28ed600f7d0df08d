"""Tests for the benchmark snapshot differ (``compare_bench.py``).

A PR that adds or retires a benchmark must still be able to diff its
snapshot against the previous one: scenarios present in only one file are
reported as added/removed, never treated as a comparison failure.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench", Path(__file__).parent / "compare_bench.py"
)
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)


def _snapshot(path: Path, **scenarios: float) -> str:
    payload = {
        "scenarios": [
            {"scenario": name, "worklist_s": value} for name, value in scenarios.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_identical_snapshots_pass(tmp_path, capsys):
    old = _snapshot(tmp_path / "old.json", wide=1.0, deep=2.0)
    assert compare_bench.main([old, old]) == 0
    assert "OK" in capsys.readouterr().out


def test_added_and_removed_scenarios_do_not_fail(tmp_path, capsys):
    old = _snapshot(tmp_path / "old.json", wide=1.0, retired=4.0)
    new = _snapshot(tmp_path / "new.json", wide=1.0, brand_new=0.5)
    assert compare_bench.main([old, new]) == 0
    out = capsys.readouterr().out
    assert "added: brand_new" in out
    assert "removed: retired" in out
    assert "OK" in out


def test_disjoint_snapshots_still_succeed(tmp_path):
    """The degenerate case that used to make the diff unusable: a PR whose
    snapshot shares no scenario with the baseline."""
    old = _snapshot(tmp_path / "old.json", a=1.0)
    new = _snapshot(tmp_path / "new.json", b=1.0)
    assert compare_bench.main([old, new]) == 0


def test_regression_detected(tmp_path, capsys):
    old = _snapshot(tmp_path / "old.json", wide=1.0)
    new = _snapshot(tmp_path / "new.json", wide=1.5, extra=9.9)
    assert compare_bench.main([old, new]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "added: extra" in out  # the new scenario is reported, not blamed


def test_speedup_is_not_a_regression(tmp_path):
    old = _snapshot(tmp_path / "old.json", wide=2.0)
    new = _snapshot(tmp_path / "new.json", wide=1.0)
    assert compare_bench.main([old, new]) == 0


def test_unreadable_file_exits_2(tmp_path):
    bad = tmp_path / "missing.json"
    good = _snapshot(tmp_path / "good.json", wide=1.0)
    with pytest.raises(SystemExit) as exc:
        compare_bench.main([str(bad), good])
    assert exc.value.code == 2


# -- scaling mode --------------------------------------------------------------
def _driver_snapshot(path: Path, ratio: float, host_cpus: int) -> str:
    payload = {
        "schema": 2,
        "host_cpus": host_cpus,
        "scaling": {
            "parallel_2_vs_serial": ratio,
            "parallel_4_vs_serial": ratio,
            "parallel_8_vs_serial": ratio,
        },
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_scaling_floor_is_host_aware():
    assert compare_bench.scaling_floor({"host_cpus": 8}, None) == 1.0
    assert compare_bench.scaling_floor({"host_cpus": 1}, None) == 0.85
    assert compare_bench.scaling_floor({}, None) == 0.85  # missing → assume 1 cpu
    assert compare_bench.scaling_floor({"host_cpus": 8}, 2.5) == 2.5


def test_scaling_pass_on_single_core_parity(tmp_path, capsys):
    snap = _driver_snapshot(tmp_path / "b.json", ratio=0.95, host_cpus=1)
    assert compare_bench.main(["--check-scaling", snap]) == 0
    assert "OK" in capsys.readouterr().out


def test_scaling_collapse_fails_even_on_single_core(tmp_path, capsys):
    snap = _driver_snapshot(tmp_path / "b.json", ratio=0.5, host_cpus=1)
    assert compare_bench.main(["--check-scaling", snap]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_scaling_multi_core_requires_speedup_floor(tmp_path):
    # 0.95x is fine on one core but a failure on a real multi-core host
    snap = _driver_snapshot(tmp_path / "b.json", ratio=0.95, host_cpus=8)
    assert compare_bench.main(["--check-scaling", snap]) == 1


def test_scaling_min_ratio_override(tmp_path):
    snap = _driver_snapshot(tmp_path / "b.json", ratio=2.6, host_cpus=8)
    assert compare_bench.main(["--check-scaling", snap, "--min-ratio", "2.5"]) == 0
    assert compare_bench.main(["--check-scaling", snap, "--min-ratio", "3.0"]) == 1


def test_scaling_missing_section_exits_2(tmp_path):
    path = tmp_path / "old-schema.json"
    path.write_text(json.dumps({"schema": 1, "scenarios": []}))
    assert compare_bench.main(["--check-scaling", str(path)]) == 2


def test_scaling_mode_rejects_positional_snapshots(tmp_path):
    snap = _driver_snapshot(tmp_path / "b.json", ratio=1.0, host_cpus=1)
    assert compare_bench.main(["--check-scaling", snap, snap]) == 2


# -- incremental mode ------------------------------------------------------------
def _incremental_snapshot(
    path: Path, noop_s: float, leaf_s: float, root_s: float, executed: int = 1
) -> str:
    payload = {
        "schema": 1,
        "scenarios": [
            {"scenario": "cold", "elapsed_s": 1.0, "analyses_executed": 297},
            {"scenario": "warm_noop", "elapsed_s": noop_s, "analyses_executed": 0},
            {"scenario": "edit_leaf", "elapsed_s": leaf_s, "analyses_executed": executed},
            {"scenario": "edit_root", "elapsed_s": root_s, "analyses_executed": 1},
        ],
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_incremental_edits_within_the_noop_ceiling_pass(tmp_path, capsys):
    # a fast cold run (here 1.0 s, only 3x an edit) must not fail the gate
    snap = _incremental_snapshot(tmp_path / "i.json", noop_s=0.25, leaf_s=0.33, root_s=0.3)
    assert compare_bench.main(["--check-incremental", snap]) == 0
    assert "OK" in capsys.readouterr().out


def test_incremental_slow_edit_warns_without_failing(tmp_path, capsys):
    # the edit-vs-no-op ceiling is advisory: one timing sample is too noisy
    snap = _incremental_snapshot(tmp_path / "i.json", noop_s=0.2, leaf_s=0.41, root_s=0.2)
    assert compare_bench.main(["--check-incremental", snap]) == 0
    assert "warning: edit_leaf" in capsys.readouterr().out


def test_incremental_firewall_breach_fails(tmp_path, capsys):
    snap = _incremental_snapshot(
        tmp_path / "i.json", noop_s=0.2, leaf_s=0.2, root_s=0.2, executed=2
    )
    assert compare_bench.main(["--check-incremental", snap]) == 1
    assert "firewall" in capsys.readouterr().out


def test_incremental_missing_noop_exits_2(tmp_path):
    path = tmp_path / "i.json"
    path.write_text(json.dumps({"scenarios": [{"scenario": "edit_leaf"}]}))
    assert compare_bench.main(["--check-incremental", str(path)]) == 2


# -- cold mode -------------------------------------------------------------------
def _cold_snapshot(path: Path, cold_s: float, warm_s: float) -> str:
    payload = {
        "schema": 2,
        "scenarios": [
            {"scenario": "cold_serial", "elapsed_s": cold_s},
            {"scenario": "warm_serial", "elapsed_s": warm_s},
            {"scenario": "cold_parallel_2", "elapsed_s": cold_s},
        ],
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_cold_within_ceiling_passes(tmp_path, capsys):
    snap = _cold_snapshot(tmp_path / "d.json", cold_s=2.1, warm_s=0.27)  # 7.8x
    assert compare_bench.main(["--check-cold", snap]) == 0
    assert "OK" in capsys.readouterr().out


def test_cold_transform_reanalysis_fails(tmp_path, capsys):
    snap = _cold_snapshot(tmp_path / "d.json", cold_s=12.1, warm_s=0.238)  # 51x
    assert compare_bench.main(["--check-cold", snap]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cold_ratio_is_host_independent(tmp_path):
    # the same work on a host three times slower reads the same ratio
    fast = _cold_snapshot(tmp_path / "fast.json", cold_s=2.0, warm_s=0.25)
    slow = _cold_snapshot(tmp_path / "slow.json", cold_s=6.0, warm_s=0.75)
    assert compare_bench.main(["--check-cold", fast]) == 0
    assert compare_bench.main(["--check-cold", slow]) == 0


def test_cold_mode_needs_both_serial_scenarios(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"scenarios": [{"scenario": "cold_serial", "elapsed_s": 1}]}))
    assert compare_bench.main(["--check-cold", str(path)]) == 2
    snap = _cold_snapshot(tmp_path / "b.json", cold_s=1.0, warm_s=0.1)
    assert compare_bench.main(["--check-cold", snap, snap]) == 2
