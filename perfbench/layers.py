"""The analyzer's layers as the benchmark traces them, and their metrics.

Every trace point names the module whose code *calls* the function, because
that module looked the name up at import time (``from x import f``): the
driver's staged engine reaches the transform stage through
``repro.driver.stages.transforms_payload``, so that is the name wrapped, not
``repro.driver.pipeline.transforms_payload``.  Methods are wrapped on their
class, which every caller reaches them through.

Spans recorded inside forked pool workers stay in those workers; the
executor layer is therefore read from the batch report's ``profile`` totals,
and the path-matrix work counters of a pooled run from its reports.
"""

from __future__ import annotations

import importlib

#: (calling module, attribute — ``Class.member`` for methods, span name)
TRACE_POINTS = [
    # transform: applicability checks and the rewrites themselves
    ("repro.driver.pipeline", "classify_loop", "transform.classify_loop"),
    ("repro.transform.stripmine", "classify_loop", "transform.classify_loop"),
    ("repro.transform.unroll", "classify_loop", "transform.classify_loop"),
    ("repro.transform.pipeline", "classify_loop", "transform.classify_loop"),
    ("repro.driver.pipeline", "strip_mine_loop", "transform.strip_mine_loop"),
    ("repro.transform.stripmine", "strip_mine_loop", "transform.strip_mine_loop"),
    ("repro.driver.pipeline", "unroll_loop", "transform.unroll_loop"),
    ("repro.fuzz.executors", "unroll_loop", "transform.unroll_loop"),
    ("repro.driver.pipeline", "software_pipeline_loop", "transform.software_pipeline_loop"),
    ("repro.fuzz.executors", "software_pipeline_loop", "transform.software_pipeline_loop"),
    ("repro.driver.pipeline", "strip_mine_function", "transform.strip_mine_function"),
    ("repro.fuzz.executors", "strip_mine_function", "transform.strip_mine_function"),
    # the staged engine's stages
    ("repro.driver.stages", "summarize_scc", "driver.stages.summary"),
    ("repro.driver.stages", "analysis_payload", "driver.stages.analysis"),
    ("repro.driver.stages", "loops_payload", "driver.stages.loops"),
    ("repro.driver.stages", "transforms_payload", "driver.stages.transforms"),
    # path-matrix analysis: one whole-program set-up per construction
    ("repro.pathmatrix.analysis", "PathMatrixAnalysis.__init__", "pathmatrix.PathMatrixAnalysis"),
    ("repro.pathmatrix.analysis", "PathMatrixAnalysis.analyze_function", "pathmatrix.analyze_function"),
    # the artifact store
    ("repro.driver.cache", "ResultCache.get", "driver.cache.get"),
    ("repro.driver.cache", "ResultCache.put", "driver.cache.put"),
    # front end, interpreter and whole-program simulation
    ("repro.pathmatrix.analysis", "check_program", "lang.check_program"),
    ("repro.fuzz.harness", "check_program", "lang.check_program"),
    ("repro.driver.pipeline", "parse_program", "lang.parse_program"),
    ("repro.fuzz.harness", "parse_program", "lang.parse_program"),
    ("repro.driver.pipeline", "run_program", "lang.run_program"),
    ("repro.driver.batch", "simulate_program", "driver.pipeline.simulate_program"),
    # the differential fuzzer
    ("repro.fuzz.harness", "generate_program", "fuzz.generate_program"),
    ("repro.fuzz.harness", "build_plans", "fuzz.build_plans"),
    ("repro.fuzz.harness", "observe", "fuzz.observe"),
]

#: span names whose calls attempt a transformation (``ok`` = it applied)
TRANSFORM_ATTEMPTS = (
    "transform.strip_mine_loop",
    "transform.unroll_loop",
    "transform.software_pipeline_loop",
    "transform.strip_mine_function",
)

#: span name -> the statistics reported for it
SPAN_METRICS = {
    "transform.classify_loop": ("calls", "busy_s", "self_s"),
    "transform.strip_mine_loop": ("calls", "busy_s", "self_s"),
    "transform.unroll_loop": ("calls", "busy_s", "self_s"),
    "transform.software_pipeline_loop": ("calls", "busy_s", "self_s"),
    "transform.strip_mine_function": ("calls", "busy_s", "self_s"),
    "driver.stages.transforms": ("calls", "busy_s", "self_s"),
    "pathmatrix.PathMatrixAnalysis": ("calls", "busy_s"),
    "lang.check_program": ("calls", "busy_s"),
    "driver.cache.get": ("calls", "busy_s"),
    "driver.cache.put": ("calls", "busy_s"),
    "driver.stages.summary": ("calls", "busy_s"),
    "driver.stages.refine": ("calls", "busy_s"),
    "driver.stages.analysis": ("calls", "busy_s"),
    "driver.stages.loops": ("calls", "busy_s"),
    "pathmatrix.analyze_function": ("calls", "busy_s"),
    "driver.pipeline.simulate_program": ("calls", "busy_s"),
    "lang.run_program": ("calls", "busy_s"),
    "lang.parse_program": ("calls", "busy_s"),
    "fuzz.generate_program": ("calls", "busy_s"),
    "fuzz.build_plans": ("calls", "busy_s"),
    "fuzz.observe": ("calls", "busy_s"),
}

STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}

#: per-layer metrics that are not span statistics: name -> (unit, better)
DERIVED_METRICS = {
    "transform.applied_ratio": ("ratio", "higher"),
    "driver.cache.hit_ratio": ("ratio", "higher"),
    "driver.cache.report.hit_ratio": ("ratio", "higher"),
    "driver.cache.summary.hit_ratio": ("ratio", "higher"),
    "driver.cache.sim.hit_ratio": ("ratio", "higher"),
    "driver.cache.bytes": ("bytes", "lower"),
    "pathmatrix.iterations": ("count", "lower"),
    "pathmatrix.blocks_transferred": ("count", "lower"),
    "driver.stages.fixpoints_run": ("count", "lower"),
    "driver.stages.recomputed": ("count", "lower"),
    "driver.stages.reused": ("count", "higher"),
    "driver.stages.firewalled": ("count", "higher"),
    "driver.executor.tasks": ("count", "lower"),
    "driver.executor.queue_wait_s": ("s", "lower"),
    "driver.executor.parse_s": ("s", "lower"),
    "driver.executor.analyze_s": ("s", "lower"),
    "driver.executor.transfer_s": ("s", "lower"),
    "driver.executor.overhead_fraction": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}

EXECUTOR_FIELDS = ("tasks", "queue_wait_s", "parse_s", "analyze_s", "transfer_s", "overhead_fraction")
INCREMENTAL_FIELDS = ("fixpoints_run", "recomputed", "reused", "firewalled")


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> ``(unit, better)``, in report order."""
    units = {}
    for span, stats in SPAN_METRICS.items():
        for stat in stats:
            units[f"{span}.{stat}"] = (STAT_UNITS[stat], "lower")
    units.update(DERIVED_METRICS)
    return units


class LayerCounters:
    """Work counters read from values the traced layers return."""

    def __init__(self):
        self.iterations = 0
        self.blocks_transferred = 0

    def count_fixpoint(self, result) -> None:
        self.iterations += result.iterations
        self.blocks_transferred += result.blocks_transferred


def install(recorder, counters: LayerCounters) -> None:
    """Wrap every trace point; :meth:`SpanRecorder.restore` undoes it."""
    for module_name, attribute, span_name in TRACE_POINTS:
        owner = importlib.import_module(module_name)
        if "." in attribute:
            class_name, attribute = attribute.split(".")
            owner = getattr(owner, class_name)
        on_return = counters.count_fixpoint if span_name == "pathmatrix.analyze_function" else None
        recorder.patch(owner, attribute, span_name, on_return)

    # the staged engine calls ``refine_preservation`` on the analysis it
    # builds; the constructor calls the same method for its own set-up, so
    # the stage is traced on the engine's instances only
    stages = importlib.import_module("repro.driver.stages")
    construct = stages.PathMatrixAnalysis

    def staged_analysis(*args, **kwargs):
        analysis = construct(*args, **kwargs)
        analysis.refine_preservation = recorder.wrap(
            "driver.stages.refine", analysis.refine_preservation
        )
        return analysis

    recorder.replace(stages, "PathMatrixAnalysis", staged_analysis)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    recorder,
    counters: LayerCounters,
    wall_s: float,
    untraced_wall_s: float,
    batches: list,
    caches: list,
    store_bytes: int,
) -> dict[str, float]:
    """The per-layer metric values of one traced phase.

    ``batches`` are the :class:`BatchReport` objects the phase produced and
    ``caches`` the :class:`ResultCache` objects it used.
    """
    totals = recorder.totals()
    values: dict[str, float] = {}
    for span, stats in SPAN_METRICS.items():
        entry = totals.get(span, {})
        for stat in stats:
            values[f"{span}.{stat}"] = entry.get(stat, 0)

    attempts = sum(totals.get(name, {}).get("calls", 0) for name in TRANSFORM_ATTEMPTS)
    failed = sum(totals.get(name, {}).get("failed", 0) for name in TRANSFORM_ATTEMPTS)
    values["transform.applied_ratio"] = _ratio(attempts - failed, attempts)

    stage_counts: dict[str, list[int]] = {}
    for cache in caches:
        for stage, counter in cache.stage_counters.items():
            hits_misses = stage_counts.setdefault(stage, [0, 0])
            hits_misses[0] += counter["hits"]
            hits_misses[1] += counter["misses"]
    hits = sum(h for h, _ in stage_counts.values())
    lookups = sum(h + m for h, m in stage_counts.values())
    values["driver.cache.hit_ratio"] = _ratio(hits, lookups)
    for stage in ("report", "summary", "sim"):
        h, m = stage_counts.get(stage, (0, 0))
        values[f"driver.cache.{stage}.hit_ratio"] = _ratio(h, h + m)
    values["driver.cache.bytes"] = store_bytes

    iterations, blocks = counters.iterations, counters.blocks_transferred
    if any(batch.jobs > 1 for batch in batches):
        # pooled runs solve their fixpoints in the workers
        analyses = [
            payload["analysis"]
            for batch in batches
            for program in batch.programs
            for payload in program.functions.values()
            if payload.get("status") == "ok"
        ]
        iterations = sum(a["iterations"] for a in analyses)
        blocks = sum(a["blocks_transferred"] for a in analyses)
    values["pathmatrix.iterations"] = iterations
    values["pathmatrix.blocks_transferred"] = blocks

    for field in INCREMENTAL_FIELDS:
        values[f"driver.stages.{field}"] = sum(
            (batch.incremental or {}).get(field, 0) for batch in batches
        )
    profiles = [batch.profile["totals"] for batch in batches if batch.profile]
    for field in EXECUTOR_FIELDS:
        values[f"driver.executor.{field}"] = sum(p[field] for p in profiles)
    if profiles:
        values["driver.executor.overhead_fraction"] /= len(profiles)

    values["trace.wall_s"] = wall_s
    values["trace_overhead_frac"] = _ratio(wall_s - untraced_wall_s, untraced_wall_s)
    return values
