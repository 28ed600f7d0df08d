"""The staged, summary-firewalled analysis engine: one call-graph component
per unit of work and per unit of storage.

The paper's analysis runs bottom-up over the call graph: it finishes one
strongly connected component at a time, and callers read only their
callees' summaries.  The engine follows that structure exactly.

**A task computes one component** (:func:`analyze_component`).  Given the
summary payloads of the component's external callees, it resolves the
members' summaries (:func:`~repro.pathmatrix.interproc.summarize_scc` plus
preservation refinement), then runs each member's fixpoint/validation
stage, loop classification and transform applicability.  The same routine
runs inline (``jobs=1``) and in pool workers (``jobs>1``); the batch driver
(:mod:`repro.driver.batch`) schedules a component the moment its callees
have landed, and does all store probing and writing itself.

**The store holds one artifact per component** (the ``summary`` stage of
:mod:`repro.driver.cache`), under a key (:func:`component_key`) covering the
members' bodies and the *summary digests* of their external callees — not
the callees' bodies.  That indirection is the early-cutoff firewall: an
edit that leaves a callee's summary byte-identical leaves every caller's key
untouched, so callers are reused unrun.  Every input of a member's
analysis, loops and transforms is a function of those key inputs, except
one: the transforms pick collision-free fresh names against the program's
function-name set.  So the artifact tags its transform outcomes with the
digest of the name set they were computed under, and a program with a
different name set recomputes them from the stored parallelizable loops,
which solves no fixpoint.  Reports are assembled from the artifact on every
read (:func:`component_reports`), whether it was just computed or found in
the store, so a cold and a warm run cannot disagree.

Stored payloads are line-relative (see
:func:`~repro.driver.pipeline.relativize_report`); everything the engine
returns to the report is absolute.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, fields

from repro.lang.ast_nodes import Program
from repro.lang.typecheck import inferred_return_type
from repro.pathmatrix.analysis import PathMatrixAnalysis, fixpoint_run_count
from repro.pathmatrix.interproc import (
    FunctionSummary,
    _call_argument_map,
    summarize_scc,
)

from repro.driver.cache import CACHE_VERSION, _sha, payload_digest
from repro.driver.callgraph import build_call_graph, condense
from repro.driver.pipeline import (
    PipelineOptions,
    _bounded,
    absolutize_report,
    analysis_payload,
    assemble_report,
    loops_payload,
    parsed_program,
    relativize_report,
    transforms_payload,
)


@dataclass
class IncrementalStats:
    """What one run reused, recomputed, and firewalled."""

    #: functions served from an artifact no task of theirs computed (stored,
    #: or computed this run for a content-identical component)
    reused: int = 0
    #: reused functions some *transitive callee body* of which changed — a
    #: body-keyed scheme would have re-analyzed these
    firewalled: int = 0
    #: functions whose component a task computed
    recomputed: int = 0
    #: functions whose own body changed since the last run (per the manifest)
    dirty: int = 0
    summaries_reused: int = 0
    summaries_recomputed: int = 0
    #: path-matrix fixpoints solved during the run (refinement + analysis)
    fixpoints_run: int = 0

    def merge(self, other: "IncrementalStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> dict:
        return asdict(self)


# -- keys ---------------------------------------------------------------------
def names_tag(program: Program) -> str:
    """Digest of the program's function-name set, which the transforms'
    fresh-name synthesis reads."""
    return _sha("names", ",".join(sorted(f.name for f in program.functions)))


def component_key(
    options_key: str,
    types_src: str,
    members: list[tuple[str, str]],
    callees: list[tuple[str, str]],
) -> str:
    """Store key of one component: ``members`` as ``(name, body digest)``
    and its external ``callees`` as ``(name, summary digest)``, sorted."""
    return _sha(
        "summary",
        str(CACHE_VERSION),
        options_key,
        types_src,
        ";".join(f"{n}={d}" for n, d in members),
        ";".join(f"{c}={d}" for c, d in callees),
    )


def summary_digest(name: str, entry: dict) -> str:
    """What callers key on: a function's summary and inferred return type
    (callers' environments are inferred from it)."""
    return payload_digest(
        {"function": name, "summary": entry["summary"], "return_type": entry["return_type"]}
    )


def first_lines(program: Program) -> dict[str, int]:
    return {f.name: f.line or 1 for f in program.functions}


# -- the component routine -------------------------------------------------------
class ProgramState:
    """One process's working state for one program: its parse and call
    graph, and one memoizing analysis whose summary table fills component by
    component."""

    def __init__(self, source: str, options: PipelineOptions):
        self.program = parsed_program(source)
        self.options = options
        self.graph = build_call_graph(self.program)
        self.sccs = condense(self.graph).sccs
        self.call_maps = _call_argument_map(self.program)
        self.names = names_tag(self.program)
        self.lines = first_lines(self.program)
        self.analysis = PathMatrixAnalysis(
            self.program,
            use_adds=options.use_adds,
            memoize_results=True,
            summaries={},
        )

    def entry(self, name: str) -> dict:
        """The summary payload callers of ``name`` read."""
        return {
            "summary": self.analysis.summaries[name].to_dict(),
            "return_type": inferred_return_type(
                self.program, self.analysis.check_result, name
            ),
        }


#: pool workers' program states, one per (source, options)
_STATE_CACHE: "OrderedDict[tuple[str, str], ProgramState]" = OrderedDict()


def program_state(source: str, options: PipelineOptions) -> ProgramState:
    return _bounded(
        _STATE_CACHE, (source, options.key()), lambda: ProgramState(source, options)
    )


def analyze_component(state: ProgramState, members: list[str], callees: dict) -> dict:
    """Compute one component from its external callees' summary payloads.

    Returns ``{"artifact", "resolved", "fixpoints"}``: the line-relative
    artifact the store keeps, the summary payloads of external callees that
    came without one (their own component failed; they are resolved here
    from source, so callers of a failed component still complete), and the
    number of fixpoints solved.
    """
    program, analysis = state.program, state.analysis
    table = analysis.summaries
    for name, entry in callees.items():
        if name not in table:
            table[name] = FunctionSummary.from_dict(entry["summary"])
    fixpoints_before = fixpoint_run_count()
    member_set = set(members)
    unshipped = sorted(
        {c for n in members for c in state.graph.callees(n)} - member_set - set(callees)
    )
    if unshipped:
        _resolve_below(state, member_set)
    table.update(summarize_scc(program, members, table, call_maps=state.call_maps))
    analysis.refine_preservation(members)

    functions = {}
    for fn in members:
        status, analysis_dict = analysis_payload(analysis, fn, state.options)
        loops, parallelizable = [], []
        if status == "ok":
            loops, parallelizable = loops_payload(program, fn, analysis, state.options)
        verdict = {
            "status": status,
            "analysis": analysis_dict,
            "loops": loops,
            "parallelizable": parallelizable,
            "transforms": transforms_payload(program, fn, parallelizable),
        }
        functions[fn] = {
            **state.entry(fn),
            "report": relativize_report(verdict, state.lines[fn]),
        }
    return {
        "artifact": {"names": state.names, "functions": functions},
        "resolved": {c: state.entry(c) for c in unshipped},
        "fixpoints": fixpoint_run_count() - fixpoints_before,
    }


def _resolve_below(state: ProgramState, members: set[str]) -> None:
    """Resolve, bottom-up from source, every component below ``members``
    whose summaries are not in the table yet."""
    table = state.analysis.summaries
    below = set().union(*(state.graph.transitive_callees(n) for n in members)) - members
    for scc in state.sccs:
        if below.intersection(scc) and any(n not in table for n in scc):
            table.update(
                summarize_scc(state.program, scc, table, call_maps=state.call_maps)
            )
            state.analysis.refine_preservation(scc)


def component_reports(
    artifact: dict,
    program: Program,
    names: str,
    lines: dict[str, int],
    options: PipelineOptions,
) -> dict[str, dict]:
    """The absolute per-function reports of one component artifact.

    ``names`` is the program's :func:`names_tag` and ``lines`` its
    :func:`first_lines`.  Transform outcomes computed under another
    function-name set are recomputed from the stored parallelizable loops.
    """
    reports = {}
    for fn, entry in artifact["functions"].items():
        verdict = absolutize_report(entry["report"], lines[fn])
        transforms = verdict["transforms"]
        if artifact["names"] != names:
            transforms = transforms_payload(program, fn, verdict["parallelizable"])
        reports[fn] = assemble_report(
            fn,
            options,
            entry["summary"],
            verdict["status"],
            verdict["analysis"],
            verdict["loops"],
            transforms,
        )
    return reports
