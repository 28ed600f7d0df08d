"""The end-to-end per-program pipeline the batch driver runs.

Two layers:

* the **stage functions** (:func:`analysis_payload`, :func:`loops_payload`,
  :func:`transforms_payload`, :func:`assemble_report`) — each computes one
  step a call-graph component's task runs (fixpoint/validation verdict,
  loop classes, transform applicability, the assembled report) with
  explicit inputs and outputs, as plain JSON-serializable dicts (the worker
  pool and the on-disk store both speak dicts); the component routine
  composing them is :func:`repro.driver.stages.analyze_component`;
* :func:`simulate_program` — the whole-program tail of the pipeline: run
  the original on the reference interpreter, strip-mine every parallelizable
  loop, re-run on the simulated multiprocessor, and report the speedup and
  whether the heaps agree (the paper's semantics-preservation check).

Each process keeps a small LRU of parsed programs so the components of one
program do not re-parse it once each.

:func:`relativize_report` / :func:`absolutize_report` rebase every source
line a report mentions against the function's first line, so the store holds
offset-independent payloads (byte-identical bodies share one entry) while
everything user-facing stays absolute.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass

from repro.lang.ast_nodes import Program
from repro.lang.errors import InterpreterLimitError, LangError
from repro.lang.interpreter import Interpreter, run_program
from repro.lang.parser import parse_program
from repro.machine import SEQUENT_LIKE, MachineSimulator
from repro.pathmatrix.analysis import AnalysisError, PathMatrixAnalysis
from repro.transform.dependence import classify_loop, find_while_loops
from repro.transform.pipeline import software_pipeline_loop
from repro.transform.stripmine import (
    TransformError,
    pass_processor_count,
    strip_mine_function,
    strip_mine_loop,
)
from repro.transform.unroll import unroll_loop


@dataclass(frozen=True)
class PipelineOptions:
    """Everything that changes what the pipeline computes (part of cache keys)."""

    solver: str = "worklist"
    use_adds: bool = True
    pes: int = 4
    entry: str = "main"

    def key(self) -> str:
        return f"solver={self.solver};adds={self.use_adds};pes={self.pes};entry={self.entry}"


# -- per-process caches -------------------------------------------------------
_PROGRAM_CACHE: "OrderedDict[str, Program]" = OrderedDict()
_CACHE_LIMIT = 64  # comfortably fits the bench corpus (sources are small)


def _bounded(cache: OrderedDict, key, factory):
    """LRU lookup: hits move to the back, overflow evicts only the oldest."""
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
        return value
    value = factory()
    cache[key] = value
    if len(cache) > _CACHE_LIMIT:
        cache.popitem(last=False)
    return value


def parsed_program(source: str) -> Program:
    return _bounded(_PROGRAM_CACHE, source, lambda: parse_program(source))


# -- the pipeline stages ------------------------------------------------------
def analysis_payload(
    analysis: PathMatrixAnalysis, function: str, options: PipelineOptions
) -> tuple[str, dict]:
    """The fixpoint + ADDS-validation stage: ``(status, analysis-dict)``.

    A *semantic* failure (the analysis rejected the function) comes back as
    ``("error", {"error": ...})`` — distinct from the driver-level failure
    statuses (timeout/crashed/quarantined).
    """
    try:
        result = analysis.analyze_function(function, solver=options.solver)
        final = result.final_matrix()
    except AnalysisError as exc:
        return "error", {"error": str(exc)}
    return "ok", {
        "iterations": result.iterations,
        "blocks_transferred": result.blocks_transferred,
        "exit_matrix": final.to_table(),
        "violations": [str(v) for v in result.violations()],
        "abstraction_valid": {
            type_name: final.validation.is_valid_for(type_name)
            for type_name in sorted(analysis.adds_types)
        },
        "error": None,
    }


def loops_payload(
    program: Program,
    function: str,
    analysis: PathMatrixAnalysis,
    options: PipelineOptions,
) -> tuple[list[dict], list[int]]:
    """The loop-classification stage.

    Returns the per-loop entries (without transform outcomes — the next
    stage computes those) and the indices of the parallelizable loops the
    transform stage should attempt.
    """
    entries: list[dict] = []
    parallelizable: list[int] = []
    for index, loop in enumerate(find_while_loops(program, function)):
        test = classify_loop(
            program, function, loop, use_adds=options.use_adds, analysis=analysis
        )
        entries.append(
            {
                "index": index,
                "line": loop.line,
                "classification": str(test.classification),
                "traversal_var": test.traversal_var,
                "traversal_field": test.traversal_field,
                "reasons": list(test.reasons),
            }
        )
        if test.parallelizable:
            parallelizable.append(index)
    return entries, parallelizable


def transforms_payload(
    program: Program, function: str, loop_indices: list[int]
) -> dict:
    """The transform-applicability stage, for the given parallelizable loops.

    Keyed by the loop index as a string — the report artifact embedding it
    round-trips through JSON, where integer keys would silently become
    strings anyway.
    """
    return {
        str(index): _transform_applicability(program, function, index)
        for index in loop_indices
    }


def assemble_report(
    function: str,
    options: PipelineOptions,
    summary: dict | None,
    status: str,
    analysis_dict: dict,
    loop_entries: list[dict],
    transforms: dict,
) -> dict:
    """Compose the stage outputs into the per-function report."""
    report: dict = {
        "function": function,
        "status": status,
        "solver": options.solver,
        "summary": summary,
        "analysis": analysis_dict,
        "loops": [],
    }
    if status != "ok":
        return report
    for entry in loop_entries:
        merged = dict(entry)
        merged["transforms"] = transforms.get(str(entry["index"]), {})
        report["loops"].append(merged)
    return report


def _transform_applicability(program: Program, function: str, index: int) -> dict:
    """Which of the three transformations apply to one parallelizable loop.

    The loops stage already found the loop parallelizable, with the run's
    analysis and ADDS setting, so the transforms skip their own dependence
    test: it would re-analyse the whole program to give the same verdict.
    """
    outcomes: dict = {}
    attempts = {
        "strip_mine": lambda: strip_mine_loop(
            program, function, loop_index=index, check_dependences=False
        ),
        "unroll": lambda: unroll_loop(program, function, factor=4, loop_index=index),
        "software_pipeline": lambda: software_pipeline_loop(
            program, function, loop_index=index, check_dependences=False
        ),
    }
    for name, attempt in attempts.items():
        try:
            result = attempt()
        except TransformError as exc:
            outcomes[name] = {"applied": False, "error": str(exc)}
        else:
            outcomes[name] = {
                "applied": True,
                "notes": list(getattr(result, "notes", [])),
            }
    return outcomes


# -- line-relative payloads ---------------------------------------------------
_LINE_REF_RE = re.compile(r"line (\d+)")

#: dict keys whose integer values are source line numbers
_LINE_KEYS = frozenset({"line", "loop_line"})


def _shift_lines(value, delta: int, key=None):
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and key in _LINE_KEYS:
        return value + delta
    if isinstance(value, str):
        return _LINE_REF_RE.sub(
            lambda m: f"line {int(m.group(1)) + delta}", value
        )
    if isinstance(value, list):
        return [_shift_lines(v, delta, key) for v in value]
    if isinstance(value, dict):
        return {k: _shift_lines(v, delta, k) for k, v in value.items()}
    return value


def relativize_report(report: dict, base_line: int) -> dict:
    """Rebase every source line in ``report`` to be relative to ``base_line``.

    Applied at the store boundary only: cached payloads say "line 3 of this
    function" so byte-identical bodies at different file offsets share one
    artifact.  In-process and user-facing reports stay absolute.
    """
    return _shift_lines(report, 1 - base_line)


def absolutize_report(report: dict, base_line: int) -> dict:
    """Inverse of :func:`relativize_report` for the probing caller's offset."""
    return _shift_lines(report, base_line - 1)


# -- whole-program simulation -------------------------------------------------
def _heap_fingerprint(interp: Interpreter) -> list:
    """Order-independent digest of the heap's *data* fields (pointer fields
    hold renamed references after a transformation, so only scalars count)."""
    cells = []
    for cell in interp.heap:
        decl = interp._type_decls.get(cell.type_name)
        fields = []
        for name, value in sorted(cell.fields.items()):
            fdecl = decl.field_named(name) if decl is not None else None
            if fdecl is not None and (fdecl.is_pointer or fdecl.array_size is not None):
                continue
            if isinstance(value, float):
                value = round(value, 9)
            fields.append((name, value))
        cells.append((cell.type_name, tuple(fields)))
    return sorted(cells)


#: resource budgets for unattended whole-program simulation: generous enough
#: for every corpus program, small enough that a runaway loop or unbounded
#: recursion surfaces as a typed ``"limit"`` status in minutes, not a hang
SIMULATION_MAX_STEPS = 20_000_000
SIMULATION_MAX_CALL_DEPTH = 64


def simulate_program(source: str, options: PipelineOptions) -> dict:
    """Transform and replay one program on the simulated multiprocessor.

    Returns a report dict; the ``status`` field is one of ``"simulated"``,
    ``"no-entry"``, ``"no-parallel-loops"``, ``"limit"`` (a resource budget
    was exhausted — see :data:`SIMULATION_MAX_STEPS`), or ``"error"``.
    """
    program = parsed_program(source)
    entry = program.function_named(options.entry)
    if entry is None or entry.params:
        return {"status": "no-entry", "entry": options.entry}

    transformed = program
    transformed_functions: list[str] = []
    for func in program.functions:
        if not find_while_loops(program, func.name):
            continue
        try:
            result = strip_mine_function(transformed, func.name)
        except TransformError:
            continue
        transformed = result.program
        transformed_functions.append(func.name)
    if not transformed_functions:
        return {"status": "no-parallel-loops", "entry": options.entry}

    # the strip-mined functions take the processor count as a new trailing
    # argument; the transformed program shares declarations with the cached
    # parse, so the call sites are patched copy-on-write
    transformed = pass_processor_count(transformed, transformed_functions, options.pes)

    try:
        _, original = run_program(
            program,
            entry=options.entry,
            max_steps=SIMULATION_MAX_STEPS,
            max_call_depth=SIMULATION_MAX_CALL_DEPTH,
        )
        interp = Interpreter(
            transformed,
            max_steps=SIMULATION_MAX_STEPS,
            max_call_depth=SIMULATION_MAX_CALL_DEPTH,
        )
        simulator = MachineSimulator(SEQUENT_LIKE.with_pes(options.pes))
        executor = simulator.attach_to_interpreter(interp)
        entry_args: tuple = ()
        if options.entry in transformed_functions:
            entry_args = (options.pes,)
        interp.call_function(options.entry, *entry_args)
    except InterpreterLimitError as exc:
        # exhausted is not diverged: report the budget separately so the CLI
        # (and the fuzzer) never confuse a cut-off run with a wrong one
        return {"status": "limit", "entry": options.entry, "error": str(exc)}
    except LangError as exc:
        return {"status": "error", "entry": options.entry, "error": str(exc)}

    trace = executor.trace
    speedup = (
        executor.sequential_cost / trace.elapsed if trace.elapsed > 0 else 1.0
    )
    return {
        "status": "simulated",
        "entry": options.entry,
        "pes": options.pes,
        "transformed_functions": transformed_functions,
        "parallel_steps": trace.parallel_steps,
        "parallel_elapsed": trace.elapsed,
        "sequential_cost": executor.sequential_cost,
        "speedup": speedup,
        "heaps_match": _heap_fingerprint(interp) == _heap_fingerprint(original),
    }
