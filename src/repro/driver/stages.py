"""The staged, summary-firewalled incremental analysis engine.

This is the inline (``jobs=1``) execution path of the batch driver, rebuilt
as a two-phase walk over the call graph's SCC condensation in which every
pipeline stage is a separately content-addressed artifact (see
:mod:`repro.driver.cache` for the store and docs/incremental.md for the
soundness argument):

**Phase 1 — bottom-up summary resolution.**  For each component (callees
first), probe the ``summary`` stage under a key covering the members' bodies
and the *artifact digests* of their already-resolved external callees.  On a
hit the summaries (effects, ``preserves_abstraction``, inferred return type)
are reinterned without running anything; on a miss they are recomputed with
:func:`~repro.pathmatrix.interproc.summarize_scc` + preservation refinement
and stored.  Either way each member gets an **artifact digest** — the hash
of its summary payload — which is the only thing callers may key on.

**Phase 2 — per-function stage assembly.**  A function's stage keys cover
its own body, its own summary artifact, and its direct callees' artifact
digests — *not* their bodies.  That indirection is the early-cutoff
firewall: an edit that leaves a callee's summary artifact byte-identical
leaves every caller's keys untouched, so callers are reused unrun.  The
``report`` stage caches the assembled legacy report.  On a report miss the
``analysis`` artifact (fixpoint + validation verdict plus the loop classes)
is probed; transform applicability is recomputed from its parallelizable
loops, which solves no fixpoint.  So an evicted report is reassembled from
an intact analysis artifact without solving anything.  Only artifacts a
later run reads are written: the summary, analysis, report and manifest
stages (plus ``sim``, written by the batch driver).

Two-phase commit: phase 1 settles *every* summary artifact of a component
before any phase-2 (or caller phase-1) key is formed, so a changed
function's new summary digest is always compared against its callers' cached
inputs — there is no window where a caller could be firewalled against a
stale summary.

Stored payloads are line-relative (see
:func:`~repro.driver.pipeline.relativize_report`); everything the engine
returns to the report is absolute.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.lang.ast_nodes import Program
from repro.lang.pretty import unparse
from repro.lang.typecheck import inferred_return_type
from repro.pathmatrix.analysis import PathMatrixAnalysis, fixpoint_run_count
from repro.pathmatrix.interproc import (
    FunctionSummary,
    _call_argument_map,
    direct_summaries,
    summarize_scc,
)

from repro.driver.cache import CACHE_VERSION, ResultCache, _sha, payload_digest
from repro.driver.callgraph import CallGraph, Condensation
from repro.driver.pipeline import (
    PipelineOptions,
    absolutize_report,
    analysis_payload,
    assemble_report,
    loops_payload,
    relativize_report,
    transforms_payload,
)


@dataclass
class IncrementalStats:
    """What one staged run reused, recomputed, and firewalled."""

    #: functions served without running a fixpoint (report hit or reassembled)
    reused: int = 0
    #: reused functions some *transitive callee body* of which changed — the
    #: legacy body-keyed scheme would have re-analyzed these
    firewalled: int = 0
    #: functions whose fixpoint/validation stage actually ran
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


class StagedEngine:
    """Run the staged pipeline for one program against an artifact store."""

    def __init__(self, cache: ResultCache, options: PipelineOptions):
        self.cache = cache
        self.options = options

    def run(
        self,
        name: str,
        program: Program,
        graph: CallGraph,
        cond: Condensation,
        functions_out: dict[str, dict],
        on_reused=None,
        on_recomputed=None,
    ) -> IncrementalStats:
        """Fill ``functions_out`` with per-function reports (absolute lines).

        ``on_reused``/``on_recomputed`` are per-function callbacks for the
        batch driver's counters (``cache_hits``/``analyses_executed``).
        """
        stats = IncrementalStats()
        opts = self.options.key()
        version = str(CACHE_VERSION)
        types_src = "\n".join(unparse(t) for t in program.types)
        bodies = {f.name: unparse(f) for f in program.functions}
        body_digest = {n: _sha("body", src) for n, src in bodies.items()}
        base_line = {f.name: (f.line or 1) for f in program.functions}
        #: collision-avoiding fresh names in the transforms depend on the
        #: program's whole function-name set, so it keys the report stage
        names_blob = ",".join(sorted(bodies))

        # the manifest of the previous run, for dirty accounting
        manifest_key = _sha("manifest", version, opts, name)
        old_manifest = self.cache.get(manifest_key, stage="manifest")
        if old_manifest is None:
            dirty = set(bodies)
        else:
            previous = old_manifest.get("functions", {})
            dirty = {
                n
                for n in bodies
                if previous.get(n, {}).get("body") != body_digest[n]
            }
        stats.dirty = len(dirty)

        def touches_dirty(function: str) -> bool:
            return function not in dirty and bool(
                graph.transitive_callees(function) & dirty
            )

        # -- phase 1: bottom-up summary resolution over the condensation -----
        table: dict[str, FunctionSummary] = {}
        analysis = PathMatrixAnalysis(
            program,
            use_adds=self.options.use_adds,
            memoize_results=True,
            summaries=table,
        )
        direct = direct_summaries(program)
        call_maps = _call_argument_map(program)
        art_digest: dict[str, str] = {}
        fixpoints_before = fixpoint_run_count()

        def artifact(n: str, summary_dict: dict, rt: str | None) -> str:
            return payload_digest(
                {"function": n, "summary": summary_dict, "return_type": rt}
            )

        for members in cond.sccs:
            scc_blob = ";".join(f"{n}={body_digest[n]}" for n in members)
            member_set = set(members)
            externals = sorted(
                {
                    c
                    for n in members
                    for c in graph.callees(n)
                    if c not in member_set
                }
            )
            ext_blob = ";".join(f"{c}={art_digest[c]}" for c in externals)
            skey = _sha("summary", version, opts, types_src, scc_blob, ext_blob)
            cached = self.cache.get(skey, stage="summary")
            if cached is not None:
                for n in members:
                    entry = cached["functions"][n]
                    table[n] = FunctionSummary.from_dict(entry["summary"])
                    art_digest[n] = artifact(n, entry["summary"], entry["return_type"])
                stats.summaries_reused += len(members)
                continue
            resolved = summarize_scc(
                program, members, table, direct=direct, call_maps=call_maps
            )
            table.update(resolved)
            analysis.refine_preservation(members)
            payload: dict = {"functions": {}}
            for n in members:
                rt = inferred_return_type(program, analysis.check_result, n)
                summary_dict = table[n].to_dict()
                payload["functions"][n] = {
                    "summary": summary_dict,
                    "return_type": rt,
                }
                art_digest[n] = artifact(n, summary_dict, rt)
            self.cache.put(skey, payload, stage="summary")
            stats.summaries_recomputed += len(members)

        # -- phase 2: per-function stage probe / compute / assemble -----------
        for members in cond.sccs:
            for fn in members:
                callee_blob = ";".join(
                    f"{c}={art_digest[c]}" for c in sorted(graph.callees(fn))
                )
                base = (
                    version,
                    opts,
                    types_src,
                    bodies[fn],
                    art_digest[fn],
                    callee_blob,
                )
                line = base_line[fn]
                rkey = _sha("report", *base, names_blob)
                cached_report = self.cache.get(rkey, stage="report")
                if cached_report is not None:
                    functions_out[fn] = absolutize_report(cached_report, line)
                    stats.reused += 1
                    if touches_dirty(fn):
                        stats.firewalled += 1
                    if on_reused is not None:
                        on_reused(fn)
                    continue

                akey = _sha("analysis", *base)
                cached_a = self.cache.get(akey, stage="analysis")
                if cached_a is not None:
                    verdict = absolutize_report(cached_a, line)
                else:
                    status, analysis_dict = analysis_payload(
                        analysis, fn, self.options
                    )
                    entries, parallelizable = [], []
                    if status == "ok":
                        entries, parallelizable = loops_payload(
                            program, fn, analysis, self.options
                        )
                    verdict = {
                        "status": status,
                        "analysis": analysis_dict,
                        "loops": entries,
                        "parallelizable": parallelizable,
                    }
                    self.cache.put(
                        akey, relativize_report(verdict, line), stage="analysis"
                    )
                # transform applicability runs no fixpoint, so it is recomputed
                # on every report miss rather than stored on its own
                transforms = transforms_payload(
                    program, fn, verdict["parallelizable"]
                )

                summary_payload = table[fn].to_dict() if fn in table else None
                assembled = assemble_report(
                    fn,
                    self.options,
                    summary_payload,
                    verdict["status"],
                    verdict["analysis"],
                    verdict["loops"],
                    transforms,
                )
                functions_out[fn] = assembled
                self.cache.put(
                    rkey, relativize_report(assembled, line), stage="report"
                )
                if cached_a is None:
                    stats.recomputed += 1
                    if on_recomputed is not None:
                        on_recomputed(fn)
                else:
                    # reassembled from an intact analysis artifact — no solve ran
                    stats.reused += 1
                    if touches_dirty(fn):
                        stats.firewalled += 1
                    if on_reused is not None:
                        on_reused(fn)

        # commit the manifest for the next run's dirty accounting
        self.cache.put(
            manifest_key,
            {
                "functions": {
                    n: {"body": body_digest[n], "summary": art_digest[n]}
                    for n in sorted(bodies)
                }
            },
            stage="manifest",
        )
        stats.fixpoints_run = fixpoint_run_count() - fixpoints_before
        return stats
