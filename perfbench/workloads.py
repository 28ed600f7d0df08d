"""The benchmark's seeded inputs, its four workloads and their checks.

Every workload is a closed loop driven from one process: the next
operation (a whole batch over the corpus, one edit, one fuzz seed) is sent
only after the previous one returned.  Inputs come from the public
generators and depend only on the seed; seed 0 reproduces the driver's
``bench`` corpus exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.adds.library import standard_source
from repro.bench.stress import (
    call_web_program_source,
    deep_program_source,
    random_program_source,
    wide_program_source,
)
from repro.driver.batch import BatchDriver
from repro.driver.cache import ResultCache
from repro.driver.callgraph import build_call_graph
from repro.driver.corpus import CorpusItem, examples_corpus, paper_corpus
from repro.driver.executor import default_jobs
from repro.fuzz.harness import DIVERGENCE, INVALID, run_campaign
from repro.fuzz.generator import generate_program
from repro.lang.parser import parse_program
from repro.transform.dependence import find_while_loops

#: seed 0 is today's ``bench`` corpus; 2026 is held out for checking claims
DEFAULT_SEED = 0
HELD_OUT_SEED = 2026

#: simulation statuses that mean a program was actually simulated
SIMULATED_STATUSES = ("simulated", "limit", "error")

#: the programs the edit session edits
CALL_WEB = "stress/callweb_200"
BARNES_HUT = "paper/barnes_hut"

#: the edit kinds, repeated: ``pad-web``/``pad-bh`` are summary-preserving
#: declarations in the call web / Barnes-Hut, ``change`` a summary-changing
#: field write in the call web.  Fixed proportions, targets drawn from fixed
#: strata (see :meth:`EditSession._strata`) and whole cycles per run keep
#: the latency mix of every seed alike: the call-web edits are the cheap
#: four fifths, so the median falls among them, and the Barnes-Hut edits,
#: which re-simulate, are the dear fifth, so the 90th percentile is their
#: median rather than the edge between two kinds.
EDIT_CYCLE = ("pad-web", "pad-bh", "pad-web", "change", "pad-web")

#: transitive-caller counts a changing edit's target is drawn from, among
#: targets none of whose callers holds a loop: a cone of several functions
#: whose summaries and analyses are recomputed, with no loop to transform.
#: A cone holding loops re-runs transform applicability on them, which
#: costs 0.4 to 1.4 s per edit depending on the target and would put the
#: seed's draw of targets into the 90th percentile; ``cold_batch`` measures
#: the transforms.
CHANGE_CONE = (2, 10)

#: the fuzz generator's seeds whose programs the analyzer's verdict counts
#: are taken over: fixed, because a dozen programs drawn from a seeded range
#: vary too much in how many loops they hold
FUZZ_VERDICT_SEEDS = range(12)

_FUNCTION_RE = re.compile(r"^(?:function|procedure) (\w+)\(", re.M)
_DECLARATION_RE = re.compile(r"  var \w+;\n")


# -- seeded inputs ---------------------------------------------------------------
def corpus(seed: int, quick: bool = False) -> list[CorpusItem]:
    """The batch corpus for ``seed``: paper programs, the example files and
    generated stress programs.  Seed 0 gives ``corpus_named("bench")``;
    ``quick`` keeps only the paper and example programs.

    The seed draws the random programs.  The call webs stay the ``bench``
    ones: they take most of the batch's time, and a seeded call-graph
    shape moves that time by up to 15 % from seed to seed."""
    items = paper_corpus() + examples_corpus()
    if quick:
        return items
    if seed == DEFAULT_SEED:
        random_seeds = [1, 2, 3]
    else:
        rng = random.Random(seed)
        random_seeds = [rng.randrange(1 << 30) for _ in range(3)]
    prefix = standard_source("ListNode")
    items += [
        CorpusItem("stress/wide_24", prefix + wide_program_source(24)),
        CorpusItem("stress/deep_4", prefix + deep_program_source(4, 4, 12)),
        CorpusItem(
            "stress/callweb_48",
            prefix + call_web_program_source(48, seed=7, prefix="web"),
        ),
    ]
    items += [
        CorpusItem(f"stress/random_{s}", prefix + random_program_source(random.Random(s)))
        for s in random_seeds
    ]
    items.append(
        CorpusItem(
            CALL_WEB, prefix + call_web_program_source(200, seed=11, prefix="bw")
        )
    )
    return items


def edit_programs(quick: bool = False) -> list[CorpusItem]:
    """The edit session's programs: the ``bench`` call web and Barnes-Hut.
    The seed draws only the edits."""
    if quick:
        web = CorpusItem(
            CALL_WEB,
            standard_source("ListNode") + call_web_program_source(24, seed=11, prefix="bw"),
        )
    else:
        web = next(item for item in corpus(DEFAULT_SEED) if item.name == CALL_WEB)
    return [web, next(item for item in paper_corpus() if item.name == BARNES_HUT)]


def fuzz_start(seed: int) -> int:
    """First fuzz seed of the campaign; the campaign walks upward from it."""
    return 0 if seed == DEFAULT_SEED else random.Random(seed).randrange(1_000_000)


def source_functions(source: str) -> list[str]:
    return _FUNCTION_RE.findall(source)


def clear_process_caches() -> None:
    """Empty the analyzer's module-level memo caches (its ``*_CACHE``
    mappings), as they are in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in vars(module).items():
                if attr.endswith("_CACHE") and isinstance(value, dict):
                    value.clear()


# -- report accounting -------------------------------------------------------------
def program_digest(program) -> str:
    """Digest of one program's per-function reports and simulation."""
    blob = json.dumps(
        {"functions": program.functions, "simulation": program.simulation},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def report_digests(batch) -> dict[str, str]:
    return {program.name: program_digest(program) for program in batch.programs}


def simulation_failed(simulation: dict | None) -> bool:
    if simulation is None or simulation["status"] not in SIMULATED_STATUSES:
        return False
    return simulation["status"] != "simulated" or not simulation["heaps_match"]


def program_failures(program) -> tuple[int, int]:
    """``(attempted, failed)`` operations of one program report: its
    functions plus its simulation, if it was simulated."""
    attempted = len(program.functions)
    failed = sum(payload.get("status") != "ok" for payload in program.functions.values())
    if program.simulation is not None and program.simulation["status"] in SIMULATED_STATUSES:
        attempted += 1
        failed += simulation_failed(program.simulation)
    return attempted, failed


@dataclass
class Verdicts:
    """What the analyzer concluded about a set of programs."""

    parallel_loops: int = 0
    transforms_applied: int = 0
    speedups: list[float] = field(default_factory=list)

    def add(self, programs) -> None:
        for program in programs:
            for payload in program.functions.values():
                for loop in payload.get("loops", []):
                    if loop["transforms"]:
                        self.parallel_loops += 1
                        self.transforms_applied += sum(
                            t["applied"] for t in loop["transforms"].values()
                        )
            if program.simulation and program.simulation["status"] == "simulated":
                self.speedups.append(program.simulation["speedup"])

    @property
    def speedup_geomean(self) -> float:
        if not self.speedups:
            return 0.0
        return math.exp(sum(math.log(s) for s in self.speedups) / len(self.speedups))


# -- workloads -------------------------------------------------------------------
@dataclass
class OpResult:
    """One closed-loop operation: its latency and what it did."""

    latency_s: float
    functions: int
    programs: int
    attempted: int
    failed: int
    #: ``latency_s`` at the reference host's speed (see ``run.HostSpeed``)
    reference_s: float = 0.0
    #: peak resident memory so far, taken after the workload's first cycle
    peak_rss_mb: float = 0.0


class Workload:
    """Base class: ``prepare`` once, ``op(i)`` in a closed loop, ``check``."""

    #: a run performs a multiple of this many operations
    cycle = 1
    #: latencies are scaled to the reference host's speed (see
    #: ``run.HostSpeed``), probed between operations at most this often
    probe_interval_s = 0.5
    #: loop medians averaged into one probe
    probe_repeats = 1

    def __init__(self, seed: int, quick: bool, scratch: Path):
        self.seed = seed
        self.quick = quick
        self.scratch = scratch
        self.verdicts = Verdicts()
        self.problems: list[str] = []
        #: batch reports and caches of the operations since the last reset
        self.batches: list = []
        self.caches: list = []

    def prepare(self) -> None:
        """Work that belongs to set-up (timed as part of ``setup_s``)."""

    def reset(self) -> None:
        """Return to the state right after :meth:`prepare`."""
        self.batches, self.caches = [], []

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Untimed correctness checks; returns the problems found."""
        return self.problems

    def store_bytes(self) -> int:
        return 0


class BatchWorkload(Workload):
    """The whole corpus, cold: every operation runs on an empty store and
    with the analyzer's per-process caches empty, as a fresh ``repro
    analyze`` does.  Left filled, they let forked workers inherit parsed
    programs and analyses, and later parallel batches ran up to a quarter
    faster than the first."""

    #: a batch lasts seconds, over which the host's speed flips many
    #: times: a second of probing on each side follows its average
    probe_interval_s = 0.0
    probe_repeats = 25

    def __init__(self, seed, quick, scratch, jobs: int, reference_dir: Path):
        super().__init__(seed, quick, scratch)
        self.jobs = jobs
        self.items = corpus(seed, quick)
        self.reference_dir = reference_dir
        self.digests: list[dict[str, str]] = []
        self._bytes = 0

    def op(self, index: int) -> OpResult:
        store = self.scratch / f"store-{index}"
        driver = BatchDriver(jobs=self.jobs, cache_dir=store)
        clear_process_caches()
        started = time.perf_counter()
        batch = driver.analyze_corpus(self.items)
        latency = time.perf_counter() - started
        self._bytes = driver.cache.disk_usage()
        shutil.rmtree(store, ignore_errors=True)
        self.batches.append(batch)
        self.caches.append(driver.cache)
        self.digests.append(report_digests(batch))
        if len(self.digests) == 1:
            self.verdicts.add(batch.programs)
        attempted = failed = 0
        for program in batch.programs:
            a, f = program_failures(program)
            attempted += a
            failed += f
        return OpResult(
            latency, batch.function_count(), len(batch.programs), attempted, failed
        )

    def store_bytes(self) -> int:
        return self._bytes

    def _reference(self, first_failed: bool) -> dict[str, str]:
        """Per-program digests of a serial cold run of this corpus, computed
        once per source tree and corpus and kept under ``reference_dir``."""
        corpus_blob = json.dumps([[item.name, item.source] for item in self.items])
        path = self.reference_dir / f"{hashlib.sha256(corpus_blob.encode()).hexdigest()[:16]}.json"
        if path.exists():
            return json.loads(path.read_text())
        if self.jobs == 1 and not first_failed:
            reference = self.digests[0]
        else:
            store = self.scratch / "reference-store"
            batch = BatchDriver(jobs=1, cache_dir=store).analyze_corpus(self.items)
            shutil.rmtree(store, ignore_errors=True)
            if any(program_failures(p)[1] for p in batch.programs):
                self.problems.append("the serial reference run failed")
            reference = report_digests(batch)
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = self.scratch / path.name
        partial.write_text(json.dumps(reference, indent=1, sort_keys=True))
        partial.replace(path)
        return reference

    def check(self) -> list[str]:
        first = self.digests[0]
        for index, digests in enumerate(self.digests[1:], start=1):
            if digests != first:
                self.problems.append(f"batch {index} reports differ from batch 0")
        for batch in self.batches:
            for program in batch.programs:
                if program.error:
                    self.problems.append(f"{program.name}: {program.error}")
                if simulation_failed(program.simulation):
                    self.problems.append(f"{program.name}: simulation failed or heaps differ")
        first_failed = any(program_failures(p)[1] for p in self.batches[0].programs)
        reference = self._reference(first_failed)
        for name in sorted(set(reference) | set(first)):
            if reference.get(name) != first.get(name):
                self.problems.append(f"{name}: reports differ from the serial cold reference")
        return self.problems


class EditSession(Workload):
    """Single edits against one persistent store, each followed by an
    incremental re-analysis of the edited program."""

    cycle = len(EDIT_CYCLE)
    #: an edit lasts a quarter of a second, as long as the host's speed
    #: holds still: a probe right before and after each tracks it best
    probe_interval_s = 0.0

    def __init__(self, seed, quick, scratch):
        super().__init__(seed, quick, scratch)
        self.initial = {item.name: item.source for item in edit_programs(quick)}
        self.strata = self._strata()
        self.store = scratch / "store"
        self.snapshot = scratch / "store-after-fill"

    def prepare(self) -> None:
        items = [CorpusItem(name, src) for name, src in self.initial.items()]
        fill = BatchDriver(jobs=1, cache_dir=self.store).analyze_corpus(items)
        self.filled = {program.name: program for program in fill.programs}
        self.verdicts.add(fill.programs)
        for program in fill.programs:
            if program_failures(program)[1]:
                self.problems.append(f"{program.name}: the cold fill failed")
        shutil.copytree(self.store, self.snapshot)
        self.reset()

    def reset(self) -> None:
        super().reset()
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.snapshot, self.store)
        self.sources = dict(self.initial)
        self.latest = dict(self.filled)

    def _strata(self) -> dict[str, tuple[str, list[str]]]:
        """Edit kind -> (program, the functions its targets are drawn from)."""
        web = parse_program(self.initial[CALL_WEB])
        graph = build_call_graph(web)
        #: function -> its transitive callers
        cone = {f.name: set() for f in web.functions}
        for function in cone:
            for callee in graph.transitive_callees(function):
                cone[callee].add(function)
        loopy = {f for f in cone if find_while_loops(web, f)}
        loop_free = [f for f in sorted(cone) if f not in loopy]
        low, high = CHANGE_CONE
        coned = [f for f in loop_free if low <= len(cone[f]) <= high and not cone[f] & loopy]
        return {
            "pad-bh": (BARNES_HUT, source_functions(self.initial[BARNES_HUT])),
            "pad-web": (CALL_WEB, loop_free),
            "change": (CALL_WEB, coned),
        }

    def edit(self, index: int) -> str:
        """Apply edit ``index`` (drawn from the seed) to the sources and
        return the edited program's name."""
        kind = EDIT_CYCLE[index % len(EDIT_CYCLE)]
        name, targets = self.strata[kind]
        function = random.Random(f"{self.seed}/{index}").choice(targets)
        if kind == "change":
            # a write to the parameter's traversal field, after the locals
            addition, after_declarations = "  h->next = NULL;\n", True
        else:
            addition, after_declarations = f"  var pad_{index};\n", False
        source = self.sources[name]
        header = re.search(rf"^(?:function|procedure) {function}\(.*\)\n{{\n", source, re.M)
        if header is None:
            raise RuntimeError(f"edit {index}: no function {function} in {name}")
        at = header.end()
        while after_declarations and (declaration := _DECLARATION_RE.match(source, at)):
            at = declaration.end()
        self.sources[name] = source[:at] + addition + source[at:]
        return name

    def op(self, index: int) -> OpResult:
        name = self.edit(index)
        driver = BatchDriver(jobs=1, cache_dir=self.store)
        started = time.perf_counter()
        batch = driver.analyze_corpus([CorpusItem(name, self.sources[name])])
        latency = time.perf_counter() - started
        (program,) = batch.programs
        self.latest[name] = program
        self.batches.append(batch)
        self.caches.append(driver.cache)
        failed = program_failures(program)[1] > 0
        return OpResult(latency, len(program.functions), 1, 1, int(failed))

    def store_bytes(self) -> int:
        return ResultCache(self.store).disk_usage()

    def check(self) -> list[str]:
        items = [CorpusItem(name, src) for name, src in self.sources.items()]
        # pooled, to halve the check's time; pooled reports equal serial
        # ones, which the batch workloads check
        scratch = BatchDriver(jobs=max(2, default_jobs()), cache_dir=None).analyze_corpus(items)
        for program in scratch.programs:
            if program_digest(program) != program_digest(self.latest[program.name]):
                self.problems.append(
                    f"{program.name}: incremental report differs from a from-scratch run"
                )
            if simulation_failed(program.simulation):
                self.problems.append(f"{program.name}: simulation failed or heaps differ")
        return self.problems


class FuzzCampaign(Workload):
    """Differential fuzzing, one seed per operation, from a seeded start."""

    def __init__(self, seed, quick, scratch):
        super().__init__(seed, quick, scratch)
        self.start = fuzz_start(seed)

    def op(self, index: int) -> OpResult:
        started = time.perf_counter()
        report = run_campaign([self.start + index])
        latency = time.perf_counter() - started
        (case,) = report.cases
        failed = case.status in (DIVERGENCE, INVALID)
        if failed:
            self.problems.append(f"fuzz seed {case.seed}: {case.status}")
        return OpResult(latency, len(source_functions(case.source)), 1, 1, int(failed))

    def check(self) -> list[str]:
        seeds = FUZZ_VERDICT_SEEDS[:4] if self.quick else FUZZ_VERDICT_SEEDS
        items = [CorpusItem(f"fuzz/{s}", generate_program(s).source) for s in seeds]
        batch = BatchDriver(jobs=1, cache_dir=None).analyze_corpus(items)
        self.verdicts = Verdicts()
        self.verdicts.add(batch.programs)
        for program in batch.programs:
            if program_failures(program)[1]:
                self.problems.append(f"{program.name}: analysis or simulation failed")
        return self.problems


def make_workload(name: str, seed: int, quick: bool, scratch: Path, reference_dir: Path):
    if name == "cold_batch":
        return BatchWorkload(seed, quick, scratch, 1, reference_dir)
    if name == "parallel_batch":
        return BatchWorkload(seed, quick, scratch, max(2, default_jobs()), reference_dir)
    if name == "edit_session":
        return EditSession(seed, quick, scratch)
    if name == "fuzz_campaign":
        return FuzzCampaign(seed, quick, scratch)
    raise KeyError(name)


WORKLOAD_NAMES = ("cold_batch", "parallel_batch", "edit_session", "fuzz_campaign")


def inputs(name: str, seed: int, quick: bool) -> int:
    """Build the workload's generated inputs (the set-up the subprocess
    samples time); returns their size in characters."""
    if name in ("cold_batch", "parallel_batch"):
        return sum(len(item.source) for item in corpus(seed, quick))
    if name == "edit_session":
        return sum(len(item.source) for item in edit_programs(quick))
    return len(generate_program(fuzz_start(seed)).source)
