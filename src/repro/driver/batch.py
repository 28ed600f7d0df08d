"""The whole-program batch driver: ready-queue scheduled, memoized, fault-tolerant.

For every corpus program the driver parses the source, builds the call
graph, and condenses it into strongly-connected components — the unit of
work and of storage (see :mod:`repro.driver.stages`).  Components are
scheduled **bottom-up by dependency count** (callees before callers — the
order the paper validates Barnes–Hut in): each component carries a count of
not-yet-landed callee components, and the moment that count reaches zero
the driver forms its key from its callees' summary digests and probes the
store.  A hit lands at once, which may free its dependents in turn; a miss
becomes a task.  There is no wave barrier — only true call-graph edges ever
delay work, and components from *different programs* interleave freely.

Tasks run on one of two backends behind one submit/poll protocol: with
``jobs > 1`` runnable components are packed into cost-balanced chunks
(:func:`repro.driver.executor.pack_chunks`) and pulled by a pool of
persistent warm workers; ``jobs == 1`` runs the same tasks inline, one
program at a time (easy profiling and debugging, zero multiprocessing
overhead).  Either way the coordinator does all probing and all writing,
and turns a task's artifact into reports exactly as it does a stored one,
so a warm re-run performs no analysis at all and reproduces the cold run's
reports bit for bit.

Partial failure stays partial.  The pool's ``crashed``/``timeout`` events
drive an escalation ladder instead of aborting:

1. a multi-component chunk that dies is **bisected** — the halves re-run,
   isolating the offender while the innocents complete;
2. a single-component task that dies is **retried with exponential
   backoff**, up to ``max_retries`` times;
3. a component that exhausts its retries runs once in a **sacrificial
   single-task subprocess**; if it completes there, its results are used;
4. if it kills the sacrificial runner too it is **quarantined**: its
   functions are marked ``status="quarantined"``, a replayable JSON record
   is written (see :mod:`repro.driver.faults`), and it is never
   re-dispatched;
5. a task that blows the per-task deadline is bisected the same way; a lone
   component that keeps timing out through its retries is marked
   ``status="timeout"`` — hangs never stall the batch.

Failed functions are *reported* (and never cached, so the next run retries
them); every healthy function still completes: a caller of a failed
component resolves that component's summaries from source in its own task,
and is stored under their digests.  Only an unrecoverable pool (respawn
failure, respawn budget exhausted) aborts the run.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import asdict, dataclass, field

from repro.lang.ast_nodes import Program
from repro.lang.errors import LangError
from repro.lang.pretty import unparse
from repro.pathmatrix.interproc import summaries_from_payloads

from repro.driver.cache import CACHE_VERSION, ResultCache, _sha, program_digest
from repro.driver.callgraph import CallGraph, Condensation, build_call_graph, condense
from repro.driver.corpus import CorpusItem
from repro.driver.executor import (
    InlineExecutor,
    PersistentExecutor,
    Task,
    TaskTiming,
    estimate_cost,
    pack_chunks,
    run_sacrificial,
)
from repro.driver.faults import SIMULATE_TOKEN, write_quarantine_record
from repro.driver.pipeline import PipelineOptions, parsed_program, simulate_program
from repro.driver.stages import (
    IncrementalStats,
    ProgramState,
    analyze_component,
    component_key,
    component_reports,
    first_lines,
    names_tag,
    summary_digest,
)

#: first retry of a crashed component waits this long; each further retry
#: doubles it (pure backoff — the analysis itself is deterministic)
RETRY_BACKOFF_BASE_S = 0.05

#: function statuses that mean the driver could not produce a result
FAILURE_STATUSES = ("timeout", "crashed", "quarantined")


@dataclass
class ResilienceCounters:
    """How much fault-handling one batch run actually did.

    Zero everywhere on a healthy run; surfaced in the report's ``stats``
    and in ``--profile`` output, in the spirit of an operable daemon's
    health counters.
    """

    retries: int = 0  # task re-dispatches (retry or bisection half)
    timeouts: int = 0  # deadline-watchdog kills
    worker_crashes: int = 0  # worker deaths attributed to a task
    worker_respawns: int = 0  # pool workers replaced
    sacrificial_runs: int = 0  # suspect chunks verified in a throwaway process
    quarantined: int = 0  # functions quarantined as poison
    cache_evictions: int = 0  # corrupt cache entries detected and removed
    cache_io_retries: int = 0  # cache reads that needed a second attempt

    def to_dict(self) -> dict:
        return asdict(self)

    def any_faults(self) -> bool:
        return any(asdict(self).values())


@dataclass
class ProgramReport:
    """Everything the batch run learned about one corpus program."""

    name: str
    functions: dict[str, dict] = field(default_factory=dict)
    #: bottom-up schedule by depth, wave by wave (SCCs as name lists) —
    #: a human-readable view; actual dispatch is by ready-count
    schedule: list[list[list[str]]] = field(default_factory=list)
    simulation: dict | None = None
    error: str | None = None

    def summaries(self):
        """Re-interned :class:`FunctionSummary` objects, one per function
        (functions that failed before producing a summary are skipped)."""
        return summaries_from_payloads(
            payload.get("summary") for payload in self.functions.values()
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "functions": self.functions,
            "schedule": self.schedule,
            "simulation": self.simulation,
            "error": self.error,
        }


@dataclass
class BatchReport:
    """The result of one driver invocation over a corpus."""

    programs: list[ProgramReport] = field(default_factory=list)
    #: per-function analyses actually executed (cache misses)
    analyses_executed: int = 0
    #: per-function reports served from the on-disk cache
    cache_hits: int = 0
    #: whole-program simulations served from the cache
    simulation_cache_hits: int = 0
    jobs: int = 1
    #: workers actually used (1 when the pool was bypassed or never needed)
    effective_jobs: int = 1
    host_cpus: int | None = None
    start_method: str | None = None
    elapsed_s: float = 0.0
    #: aggregate task timing breakdown; ``tasks`` detail only with profiling
    profile: dict | None = None
    resilience: ResilienceCounters = field(default_factory=ResilienceCounters)
    #: staged-engine counters: reused / firewalled / recomputed / dirty /
    #: fixpoints_run — see driver/stages.py
    incremental: dict | None = None

    def program(self, name: str) -> ProgramReport:
        for report in self.programs:
            if report.name == name:
                return report
        raise KeyError(name)

    def function_count(self) -> int:
        return sum(len(p.functions) for p in self.programs)

    def failed_functions(self) -> list[tuple[str, str, str]]:
        """Every function the driver could not analyze, as
        ``(program, function, status)`` tuples."""
        failed = []
        for program in self.programs:
            for name, payload in program.functions.items():
                status = payload.get("status", "ok")
                if status in FAILURE_STATUSES:
                    failed.append((program.name, name, status))
        return failed

    def to_dict(self) -> dict:
        stats = {
            "programs": len(self.programs),
            "functions": self.function_count(),
            "analyses_executed": self.analyses_executed,
            "cache_hits": self.cache_hits,
            "simulation_cache_hits": self.simulation_cache_hits,
            "jobs": self.jobs,
            "effective_jobs": self.effective_jobs,
            "host_cpus": self.host_cpus,
            "start_method": self.start_method,
            "elapsed_s": self.elapsed_s,
            "resilience": self.resilience.to_dict(),
        }
        if self.incremental is not None:
            stats["incremental"] = self.incremental
        if self.profile is not None:
            stats["profile"] = self.profile
        return {
            "programs": [p.to_dict() for p in self.programs],
            "stats": stats,
        }


class BatchExecutionError(RuntimeError):
    """The batch could not run to completion (e.g. the pool is unrecoverable)."""


@dataclass
class _ProgramPlan:
    """Coordinator-side scheduling state for one corpus program."""

    index: int
    item: CorpusItem
    report: ProgramReport
    cond: Condensation | None = None
    #: parsed program + call graph (coordinator-side only, never pickled)
    program: Program | None = None
    graph: CallGraph | None = None
    #: component -> its members' callees outside it, sorted
    externals: list[list[str]] = field(default_factory=list)
    #: key ingredients: type declarations, per-function body digests
    types_src: str = ""
    bodies: dict[str, str] = field(default_factory=dict)
    names: str = ""
    lines: dict[str, int] = field(default_factory=dict)
    #: function -> its summary payload and the digest callers key on
    summaries: dict[str, dict] = field(default_factory=dict)
    summary_digests: dict[str, str] = field(default_factory=dict)
    #: functions whose body changed since the previous run's manifest
    dirty: set[str] = field(default_factory=set)
    manifest_key: str = ""
    stats: IncrementalStats = field(default_factory=IncrementalStats)
    #: component -> count of not-yet-landed callee components
    blockers: dict[int, int] = field(default_factory=dict)
    #: component -> how many times a task holding it crashed
    crash_attempts: dict[int, int] = field(default_factory=dict)
    sim_attempts: int = 0
    landed: set[int] = field(default_factory=set)
    #: components whose callees have all landed, not yet served or packed
    ready: list[int] = field(default_factory=list)
    sim_key: str | None = None
    needs_simulation: bool = False

    @property
    def schedulable(self) -> bool:
        return self.cond is not None

    def land(self, component: int) -> None:
        """Mark ``component``'s results available; its dependents whose
        callees have now all landed become ready."""
        if component in self.landed:
            return
        self.landed.add(component)
        for dependent in sorted(self.cond.dependents.get(component, ())):
            self.blockers[dependent] -= 1
            if self.blockers[dependent] == 0:
                self.ready.append(dependent)


class BatchDriver:
    """Drive the full pipeline over many programs, in parallel, with caching.

    ``jobs=1`` runs tasks in-process (no pool); ``jobs>1`` schedules
    cost-balanced chunks of call-graph components onto a persistent worker
    pool the moment their callees have landed.  ``cache_dir=None`` disables
    memoization.  ``start_method`` picks the multiprocessing start method
    (default: ``fork`` where available, else ``spawn``); ``profile=True``
    keeps the per-task timing breakdown in the report.

    Fault tolerance (pooled runs only — inline runs share the caller's
    process and cannot be killed or respawned):

    * ``task_timeout`` — per-task deadline in seconds; an overdue task's
      worker is killed, the task bisected or marked ``timeout``.  ``None``
      disables the watchdog (the executor's global stall backstop remains).
    * ``max_retries`` — crashes a single component survives before the
      sacrificial run (then quarantine).
    * ``max_respawns`` — total worker replacements before the pool is
      declared unrecoverable (:class:`BatchExecutionError`); ``None`` means
      unbounded (the retry caps already guarantee termination).
    * ``quarantine``/``quarantine_dir`` — whether poison components get the
      sacrificial verification + quarantine treatment (otherwise they are
      marked ``crashed`` once retries exhaust), and where replayable
      quarantine records are written (``None``: statuses only, no records).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir=None,
        options: PipelineOptions | None = None,
        simulate: bool = True,
        start_method: str | None = None,
        profile: bool = False,
        task_timeout: float | None = None,
        max_retries: int = 2,
        max_respawns: int | None = None,
        quarantine: bool = True,
        quarantine_dir=None,
        retry_backoff_s: float = RETRY_BACKOFF_BASE_S,
    ):
        self.jobs = max(1, int(jobs))
        self.options = options or PipelineOptions()
        self.cache = ResultCache(cache_dir)
        self.simulate = simulate
        self.start_method = start_method
        self.profile = profile
        self.task_timeout = task_timeout
        self.max_retries = max(0, int(max_retries))
        self.max_respawns = max_respawns
        self.quarantine = quarantine
        self.quarantine_dir = quarantine_dir
        self.retry_backoff_s = retry_backoff_s

    # -- public entry points -------------------------------------------------
    def analyze_corpus(self, items: list[CorpusItem]) -> BatchReport:
        report = BatchReport(jobs=self.jobs, host_cpus=os.cpu_count())
        started = time.perf_counter()

        plans = [self._plan_item(i, item, report) for i, item in enumerate(items)]
        report.profile = self._aggregate_profile(self._run(plans, report))
        totals = IncrementalStats()
        for plan in plans:
            if plan.schedulable:
                self._commit_manifest(plan)
                totals.merge(plan.stats)
        report.incremental = totals.to_dict()

        report.programs = [plan.report for plan in plans]
        report.resilience.cache_evictions = self.cache.evictions
        report.resilience.cache_io_retries = self.cache.io_retries
        report.elapsed_s = time.perf_counter() - started
        self.cache.write_ledger(
            {
                "analyses_executed": report.analyses_executed,
                "run_cache_hits": report.cache_hits,
                "incremental": report.incremental,
            }
        )
        return report

    # -- planning and probing --------------------------------------------------
    def _plan_item(self, index: int, item: CorpusItem, batch: BatchReport) -> _ProgramPlan:
        plan = _ProgramPlan(index=index, item=item, report=ProgramReport(name=item.name))
        try:
            program = parsed_program(item.source)
        except LangError as exc:
            plan.report.error = f"parse error: {exc}"
            return plan
        try:
            graph = build_call_graph(program)
            plan.cond = condense(graph)
        except LangError as exc:  # defensive: malformed programs must not abort the batch
            plan.report.error = str(exc)
            return plan
        plan.report.schedule = plan.cond.waves()
        plan.program = program
        plan.graph = graph
        plan.externals = [
            sorted({c for n in scc for c in graph.callees(n)} - set(scc))
            for scc in plan.cond.sccs
        ]
        plan.types_src = "\n".join(unparse(t) for t in program.types)
        plan.bodies = {f.name: _sha("body", unparse(f)) for f in program.functions}
        plan.names = names_tag(program)
        plan.lines = first_lines(program)

        # the previous run's manifest, for dirty accounting
        plan.manifest_key = _sha(
            "manifest", str(CACHE_VERSION), self.options.key(), item.name
        )
        manifest = self.cache.get(plan.manifest_key, stage="manifest")
        previous = manifest["functions"] if manifest is not None else {}
        plan.dirty = {
            n for n, body in plan.bodies.items()
            if previous.get(n, {}).get("body") != body
        }
        plan.stats.dirty = len(plan.dirty)

        plan.blockers = plan.cond.initial_blockers()
        plan.ready = [i for i, count in plan.blockers.items() if count == 0]
        self._probe_ready(plan, batch)

        if self.simulate:
            plan.sim_key = program_digest(item.source, self.options.key())
            cached = self.cache.get(plan.sim_key, stage="sim")
            if cached is not None:
                plan.report.simulation = cached
                batch.simulation_cache_hits += 1
            else:
                plan.needs_simulation = True
        return plan

    def _key(self, plan: _ProgramPlan, component: int) -> str | None:
        """The component's store key, or ``None`` while some external callee
        has no summary digest (its component failed)."""
        callees = plan.externals[component]
        if any(c not in plan.summary_digests for c in callees):
            return None
        return component_key(
            self.options.key(),
            plan.types_src,
            [(n, plan.bodies[n]) for n in plan.cond.sccs[component]],
            [(c, plan.summary_digests[c]) for c in callees],
        )

    def _probe_ready(self, plan: _ProgramPlan, batch: BatchReport) -> None:
        """Serve every ready component the store holds (landing one may free
        more); leave in ``plan.ready`` only those a task must compute."""
        misses: list[int] = []
        while plan.ready:
            component = plan.ready.pop()
            key = self._key(plan, component)
            artifact = None if key is None else self.cache.get(key, stage="summary")
            if artifact is None:
                misses.append(component)
                continue
            self._record(plan, component, artifact, batch, computed=False)
            plan.land(component)
        plan.ready = sorted(misses)

    # -- result bookkeeping ---------------------------------------------------
    def _record(
        self,
        plan: _ProgramPlan,
        component: int,
        artifact: dict,
        batch: BatchReport,
        computed: bool,
    ) -> None:
        members = plan.cond.sccs[component]
        reports = component_reports(
            artifact, plan.program, plan.names, plan.lines, self.options
        )
        for name in members:
            entry = artifact["functions"][name]
            plan.summaries[name] = {
                "summary": entry["summary"],
                "return_type": entry["return_type"],
            }
            plan.summary_digests[name] = summary_digest(name, entry)
            plan.report.functions[name] = reports[name]
        stats = plan.stats
        if computed:
            stats.recomputed += len(members)
            stats.summaries_recomputed += len(members)
            batch.analyses_executed += len(members)
            return
        stats.reused += len(members)
        stats.summaries_reused += len(members)
        batch.cache_hits += len(members)
        if plan.dirty:
            stats.firewalled += sum(
                1
                for n in members
                if n not in plan.dirty and plan.graph.transitive_callees(n) & plan.dirty
            )

    def _record_computed(
        self, plan: _ProgramPlan, component: int, outcome: dict, batch: BatchReport
    ) -> str | None:
        """Store and record a task's artifact; returns its key."""
        for name, entry in outcome["resolved"].items():
            # a failed callee's summary, resolved from source by this task
            plan.summaries.setdefault(name, entry)
            plan.summary_digests.setdefault(name, summary_digest(name, entry))
        key = self._key(plan, component)
        if key is not None:
            self.cache.put(key, outcome["artifact"], stage="summary")
        plan.stats.fixpoints_run += outcome["fixpoints"]
        self._record(plan, component, outcome["artifact"], batch, computed=True)
        return key

    def _record_simulation(self, plan: _ProgramPlan, payload: dict) -> None:
        plan.report.simulation = payload
        if plan.sim_key is not None:
            self.cache.put(plan.sim_key, payload, stage="sim")
        plan.needs_simulation = False

    def _commit_manifest(self, plan: _ProgramPlan) -> None:
        """Record body and summary digests for the next run's dirty
        accounting (unchanged manifests are not rewritten)."""
        functions = {
            n: {"body": plan.bodies[n], "summary": plan.summary_digests.get(n)}
            for n in sorted(plan.bodies)
        }
        self.cache.put(plan.manifest_key, {"functions": functions}, stage="manifest")

    # -- execution (one scheduler, inline or pooled) ---------------------------
    def _run(self, plans: list[_ProgramPlan], batch: BatchReport) -> list[TaskTiming]:
        active = [plan for plan in plans if plan.ready or plan.needs_simulation]
        if not active:  # fully warm run: do not even start the pool
            batch.effective_jobs = 1
            return []
        timings: list[TaskTiming] = []
        task_ids = itertools.count(1)
        costs: dict[tuple[int, int], int] = {}

        def cost(plan: _ProgramPlan, component: int) -> int:
            key = (plan.index, component)
            if key not in costs:
                program = plan.program
                costs[key] = sum(
                    estimate_cost(program.function_named(n), program)
                    for n in plan.cond.sccs[component]
                )
            return costs[key]

        def analyze_task(plan: _ProgramPlan, components: list[int]) -> Task:
            sccs = plan.cond.sccs
            return Task(
                task_id=next(task_ids),
                kind="analyze",
                program_index=plan.index,
                program_name=plan.item.name,
                functions=[n for m in components for n in sccs[m]],
                components=components,
                work=[
                    (
                        sccs[m],
                        {
                            c: plan.summaries[c]
                            for c in plan.externals[m]
                            if c in plan.summaries
                        },
                    )
                    for m in components
                ],
                cost=sum(cost(plan, m) for m in components),
                attempts={
                    n: plan.crash_attempts.get(m, 0) for m in components for n in sccs[m]
                },
            )

        def simulate_task(plan: _ProgramPlan) -> Task:
            return Task(
                task_id=next(task_ids),
                kind="simulate",
                program_index=plan.index,
                program_name=plan.item.name,
                attempts={SIMULATE_TOKEN: plan.sim_attempts},
            )

        #: key -> components of other programs waiting for the one task
        #: computing it (content-identical components are computed once)
        claimed: dict[str, list[tuple[_ProgramPlan, int]]] = {}

        def make_tasks(plan: _ProgramPlan) -> list[Task]:
            """Pack ``plan``'s probed, missed components into chunk tasks."""
            components = []
            for component in plan.ready:
                key = self._key(plan, component)
                if key in claimed:
                    claimed[key].append((plan, component))
                    continue
                if key is not None:
                    claimed[key] = []
                components.append(component)
            plan.ready = []
            groups = [(plan.cond.sccs[i], cost(plan, i)) for i in components]
            return [
                analyze_task(plan, [components[g] for g in chunk])
                for chunk in pack_chunks(groups)
            ]

        def backoff(attempt: int) -> float:
            return self.retry_backoff_s * (2 ** max(0, attempt - 1))

        states: dict[int, ProgramState] = {}

        def run_inline(task: Task) -> dict:
            plan = plans[task.program_index]
            if task.kind == "simulate":
                return {"simulation": simulate_program(plan.item.source, self.options)}
            if task.program_index not in states:
                states.clear()  # one program at a time: its predecessor is done
                states[task.program_index] = ProgramState(plan.item.source, self.options)
            state = states[task.program_index]
            return {
                "results": [analyze_component(state, m, c) for m, c in task.work]
            }

        if self.jobs > 1:
            executor = PersistentExecutor(
                self.jobs,
                [plan.item.source for plan in plans],
                self.options,
                self.start_method,
                task_timeout=self.task_timeout,
                max_respawns=self.max_respawns,
            )
        else:
            executor = InlineExecutor(run_inline)
        with executor:
            batch.start_method = executor.start_method
            batch.effective_jobs = executor.jobs

            def land_and_refill(plan: _ProgramPlan, components: list[int]) -> None:
                for component in components:
                    plan.land(component)
                self._probe_ready(plan, batch)
                for new_task in make_tasks(plan):
                    executor.submit(new_task)

            def land_computed(plan: _ProgramPlan, task: Task, outcomes: list) -> None:
                for component, outcome in zip(task.components, outcomes):
                    key = self._record_computed(plan, component, outcome, batch)
                    for waiter_plan, waiter in claimed.pop(key, ()):
                        self._record(
                            waiter_plan, waiter, outcome["artifact"], batch, computed=False
                        )
                        land_and_refill(waiter_plan, [waiter])
                land_and_refill(plan, task.components)

            def mark_failed(
                plan: _ProgramPlan, components: list[int], status: str, detail: str
            ) -> None:
                """Give every function of ``components`` a failure payload and
                unblock dependents (their tasks resolve the missing summaries
                from source)."""
                for m in components:
                    for name in plan.cond.sccs[m]:
                        plan.report.functions[name] = _failure_payload(
                            name, status, detail
                        )
                        if status == "quarantined":
                            batch.resilience.quarantined += 1
                    # waiters on this component compute it themselves
                    for waiter_plan, waiter in claimed.pop(self._key(plan, m), ()):
                        waiter_plan.ready.append(waiter)
                        land_and_refill(waiter_plan, [])
                land_and_refill(plan, components)

            def bisect_and_resubmit(plan: _ProgramPlan, task: Task, delay: float) -> None:
                mid = len(task.components) // 2
                for half in (task.components[:mid], task.components[mid:]):
                    batch.resilience.retries += 1
                    executor.submit_delayed(analyze_task(plan, half), delay)

            def handle_done(task: Task, result: dict, timing: TaskTiming | None) -> None:
                if timing is not None:
                    timings.append(timing)
                plan = plans[task.program_index]
                if task.kind == "simulate":
                    self._record_simulation(plan, result["simulation"])
                    return
                land_computed(plan, task, result["results"])
            def handle_crashed(task: Task, exitcode: int | None) -> None:
                batch.resilience.worker_crashes += 1
                plan = plans[task.program_index]
                detail = f"worker died (exit {exitcode})"
                if task.kind == "simulate":
                    plan.sim_attempts += 1
                    if plan.sim_attempts <= self.max_retries:
                        batch.resilience.retries += 1
                        executor.submit_delayed(
                            simulate_task(plan), backoff(plan.sim_attempts)
                        )
                    else:
                        plan.report.simulation = {
                            "status": "crashed",
                            "entry": self.options.entry,
                            "error": f"{detail} after {plan.sim_attempts} attempt(s)",
                        }
                        plan.needs_simulation = False
                    return
                for m in task.components:
                    plan.crash_attempts[m] = plan.crash_attempts.get(m, 0) + 1
                if len(task.components) > 1:
                    # isolate the offender; innocents complete along the way
                    bisect_and_resubmit(plan, task, delay=0.0)
                    return
                (component,) = task.components
                attempts = plan.crash_attempts[component]
                if attempts <= self.max_retries:
                    batch.resilience.retries += 1
                    executor.submit_delayed(
                        analyze_task(plan, [component]), backoff(attempts)
                    )
                    return
                self._handle_exhausted(
                    plan, analyze_task(plan, [component]), exitcode, executor,
                    batch, land_computed, mark_failed,
                )

            def handle_timeout(task: Task) -> None:
                batch.resilience.timeouts += 1
                plan = plans[task.program_index]
                detail = (
                    f"killed by the deadline watchdog after "
                    f"{self.task_timeout:.0f}s"
                    if self.task_timeout is not None
                    else "killed by the deadline watchdog"
                )
                if task.kind == "simulate":
                    plan.report.simulation = {
                        "status": "timeout",
                        "entry": self.options.entry,
                        "error": detail,
                    }
                    plan.needs_simulation = False
                    return
                for m in task.components:
                    plan.crash_attempts[m] = plan.crash_attempts.get(m, 0) + 1
                if len(task.components) > 1:
                    # one hung function must not take its chunk-mates down:
                    # re-run the halves, each under a fresh deadline
                    bisect_and_resubmit(plan, task, delay=0.0)
                    return
                (component,) = task.components
                attempts = plan.crash_attempts[component]
                if attempts <= self.max_retries:
                    # a transient straggler (I/O stall, page-cache miss) may
                    # well finish within a fresh deadline — give it the same
                    # retry budget a crash gets
                    batch.resilience.retries += 1
                    executor.submit_delayed(
                        analyze_task(plan, [component]), backoff(attempts)
                    )
                    return
                mark_failed(
                    plan,
                    task.components,
                    "timeout",
                    f"{detail}; retries exhausted after {attempts} attempt(s)",
                )

            for plan in active:
                for task in make_tasks(plan):
                    executor.submit(task)
                if plan.needs_simulation:
                    # simulation re-derives everything from source, so it has
                    # no scheduling dependency: overlap it with analysis
                    executor.submit(simulate_task(plan))
            while True:
                events = executor.poll()
                if not events:
                    break
                for event in events:
                    if event.kind == "done":
                        handle_done(event.task, event.result, event.timing)
                    elif event.kind == "crashed":
                        handle_crashed(event.task, event.exitcode)
                    else:
                        handle_timeout(event.task)
            batch.resilience.worker_respawns = executor.respawns
        if isinstance(executor, InlineExecutor):
            # inline work profiles as one task
            busy = executor.busy_s
            timings.append(
                TaskTiming(
                    0, "inline", "*", batch.analyses_executed, analyze_s=busy, total_s=busy
                )
            )
        return timings

    # -- escalation: retries exhausted -----------------------------------------
    def _handle_exhausted(
        self,
        plan: _ProgramPlan,
        task: Task,
        exitcode: int | None,
        executor: PersistentExecutor,
        batch: BatchReport,
        land_computed,
        mark_failed,
    ) -> None:
        (component,) = task.components
        attempts = plan.crash_attempts[component]
        if not self.quarantine:
            mark_failed(
                plan,
                [component],
                "crashed",
                f"worker died (exit {exitcode}) {attempts} time(s); retries exhausted",
            )
            return
        # last chance: one run in a throwaway subprocess, so a repeat crash
        # costs nothing but the subprocess
        batch.resilience.sacrificial_runs += 1
        status, result = run_sacrificial(
            executor.ctx, plan.item.source, task, self.options, self.task_timeout
        )
        if status == "ok":
            land_computed(plan, task, result["results"])
            return
        if status == "timeout":
            mark_failed(
                plan,
                [component],
                "timeout",
                "sacrificial run killed by the deadline watchdog",
            )
            return
        detail = (
            f"poison task: killed {attempts} pool worker(s) and the "
            "sacrificial runner"
        )
        if self.quarantine_dir is not None:
            path = write_quarantine_record(
                self.quarantine_dir,
                plan.item.name,
                plan.item.source,
                task.functions,
                attempts,
                exitcode,
                self.options.key(),
            )
            detail += f"; record: {path}"
        mark_failed(plan, [component], "quarantined", detail)

    # -- profiling ------------------------------------------------------------
    def _aggregate_profile(self, timings: list[TaskTiming]) -> dict | None:
        if not timings:
            return None
        totals = {
            "tasks": len(timings),
            "functions": sum(t.functions for t in timings if t.kind != "simulate"),
            "queue_wait_s": sum(t.queue_wait_s for t in timings),
            "parse_s": sum(t.parse_s for t in timings),
            "analyze_s": sum(t.analyze_s for t in timings),
            "transfer_s": sum(t.transfer_s for t in timings),
        }
        # queue-wait is back-pressure (work waiting for a free core), not
        # waste; the overhead a serial run would not pay is worker-side
        # re-parsing plus result transfer
        busy = totals["analyze_s"]
        overhead = totals["parse_s"] + totals["transfer_s"]
        totals["overhead_fraction"] = (
            overhead / (busy + overhead) if busy + overhead > 0 else 0.0
        )
        profile = {"totals": totals}
        if self.profile:
            profile["tasks"] = [t.to_dict() for t in timings]
        return profile


def _failure_payload(name: str, status: str, detail: str) -> dict:
    """The report stub for a function the driver could not analyze.

    Shaped like a normal per-function report (``summary``/``analysis``/
    ``loops`` present) so report consumers need no special cases, with
    ``status`` naming the failure and ``fault`` carrying the story.  Never
    cached — the next run retries the function.
    """
    return {
        "function": name,
        "status": status,
        "fault": detail,
        "summary": None,
        "analysis": {"error": f"{status}: {detail}"},
        "loops": [],
    }
