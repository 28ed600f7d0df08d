"""Batch driver acceptance tests: caching, parallel fan-out, fidelity.

The headline guarantees:

* the driver's per-function reports match the single-function API
  **bit-for-bit** on the paper examples,
* a warm second run over the same corpus executes **zero** analyses
  (everything is served from the on-disk cache),
* a parallel run produces exactly the serial run's reports.
"""

import pytest

from repro.driver.batch import BatchDriver
from repro.driver.cache import decode_entry
from repro.driver.corpus import CorpusItem, corpus_named, paper_corpus
from repro.driver.pipeline import PipelineOptions, simulate_program
from repro.lang.parser import parse_program
from repro.pathmatrix import PathMatrixAnalysis


@pytest.fixture(scope="module")
def paper_items():
    return paper_corpus()


def _function_payloads(report):
    """Only the per-function dicts, for whole-run equality comparisons."""
    return {p.name: p.functions for p in report.programs}


class TestFidelity:
    def test_driver_matches_single_function_api_bit_for_bit(self, paper_items):
        driver = BatchDriver(jobs=1, cache_dir=None, simulate=False)
        batch = driver.analyze_corpus(paper_items)
        for item in paper_items:
            program = parse_program(item.source)
            analysis = PathMatrixAnalysis(program)
            functions = batch.program(item.name).functions
            assert set(functions) == {f.name for f in program.functions}
            for func in program.functions:
                direct = analysis.analyze_function(func.name)
                reported = functions[func.name]["analysis"]
                assert reported["error"] is None
                assert reported["exit_matrix"] == direct.final_matrix().to_table()
                assert reported["iterations"] == direct.iterations
                assert reported["blocks_transferred"] == direct.blocks_transferred
                assert reported["violations"] == [str(v) for v in direct.violations()]

    def test_bhl_loops_classified_parallelizable(self, paper_items):
        driver = BatchDriver(jobs=1, cache_dir=None, simulate=False)
        batch = driver.analyze_corpus(paper_items)
        functions = batch.program("paper/barnes_hut").functions
        for name in ("bh_force_pass", "bh_update_pass"):
            (loop,) = functions[name]["loops"]
            assert loop["classification"] == "doall-after-traversal"
            assert loop["transforms"]["strip_mine"]["applied"]


class TestCaching:
    def test_warm_run_executes_no_analyses(self, tmp_path, paper_items):
        cold = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus(paper_items)
        assert cold.analyses_executed > 0

        warm_driver = BatchDriver(jobs=1, cache_dir=tmp_path)
        warm = warm_driver.analyze_corpus(paper_items)
        # the acceptance criterion: strictly fewer analyses on the warm run —
        # in fact none at all, and every simulation is served from cache too
        assert warm.analyses_executed < cold.analyses_executed
        assert warm.analyses_executed == 0
        assert warm.cache_hits == cold.analyses_executed + cold.cache_hits
        assert warm.simulation_cache_hits == len(paper_items)
        assert _function_payloads(warm) == _function_payloads(cold)
        for item in paper_items:
            assert warm.program(item.name).simulation == cold.program(item.name).simulation

    def test_warm_run_writes_nothing(self, tmp_path):
        """Nothing changed, so nothing is rewritten — not even the
        per-program manifests."""
        items = corpus_named("builtin")
        BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus(items)
        warm_driver = BatchDriver(jobs=1, cache_dir=tmp_path)
        warm = warm_driver.analyze_corpus(items)
        assert warm.analyses_executed == 0
        assert warm_driver.cache.writes == 0

    def _digests(self, src, store):
        """Function -> the store key of its component, from a cold run of
        ``src`` into the empty ``store``."""
        from repro.adds.library import standard_source

        source = standard_source("ListNode") + src
        BatchDriver(jobs=1, cache_dir=store, simulate=False).analyze_corpus(
            [CorpusItem(name="prog", source=source)]
        )
        return {
            name: path.stem
            for path in (store / "summary").glob("*.json")
            for name in decode_entry(path.read_text())["functions"]
        }

    BASE = """
    function leaf(p) { return p->next; }
    function caller(p) { return leaf(p); }
    function unrelated(q) { q->coef = 1; return q; }
    """

    def test_summary_changing_edit_invalidates_the_caller(self, tmp_path):
        edited = self.BASE.replace(
            "function leaf(p) { return p->next; }",
            "function leaf(p) { p->exp = 0; return p->next; }",
        )
        before = self._digests(self.BASE, tmp_path / "before")
        after = self._digests(edited, tmp_path / "after")
        assert before["leaf"] != after["leaf"]
        assert before["caller"] != after["caller"]  # callee summary changed
        assert before["unrelated"] == after["unrelated"]

    def test_identical_text_at_different_lines_shares_keys(self, tmp_path):
        """Cached payloads are stored line-relative (absolute lines are
        restored at probe time), so the same helper pasted into two files at
        different offsets shares one cache entry per component."""
        shifted = "\n\n\n\n" + self.BASE
        before = self._digests(self.BASE, tmp_path / "before")
        after = self._digests(shifted, tmp_path / "after")
        assert before == after

    def test_options_partition_the_cache(self, tmp_path, paper_items):
        item = [paper_items[0]]
        a = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus(item)
        b = BatchDriver(
            jobs=1,
            cache_dir=tmp_path,
            options=PipelineOptions(use_adds=False),
        ).analyze_corpus(item)
        # different options must not reuse each other's entries
        assert a.analyses_executed > 0 and b.analyses_executed > 0
        assert b.cache_hits == 0

    def test_disabled_cache_always_recomputes(self, paper_items):
        driver = BatchDriver(jobs=1, cache_dir=None)
        first = driver.analyze_corpus([paper_items[0]])
        second = driver.analyze_corpus([paper_items[0]])
        assert first.analyses_executed == second.analyses_executed > 0


class TestParallelExecution:
    def test_parallel_run_matches_serial(self, paper_items):
        serial = BatchDriver(jobs=1, cache_dir=None, simulate=False)
        parallel = BatchDriver(jobs=2, cache_dir=None, simulate=False)
        assert _function_payloads(parallel.analyze_corpus(paper_items)) == (
            _function_payloads(serial.analyze_corpus(paper_items))
        )

    @pytest.fixture(scope="class")
    def builtin_serial(self):
        items = corpus_named("builtin")
        return items, BatchDriver(jobs=1, cache_dir=None).analyze_corpus(items)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_full_corpus_bit_identical_under_both_start_methods(
        self, builtin_serial, start_method
    ):
        """The headline fidelity guarantee: over the whole built-in corpus a
        pooled run reproduces the serial reports bit for bit — including the
        simulation stage — whether workers inherit state (fork) or rebuild
        it from the shipped sources (spawn)."""
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        items, serial = builtin_serial
        parallel = BatchDriver(
            jobs=4, cache_dir=None, start_method=start_method
        ).analyze_corpus(items)
        assert not any(p.error for p in parallel.programs)
        assert parallel.function_count() >= 30
        assert _function_payloads(parallel) == _function_payloads(serial)
        for item in items:
            assert parallel.program(item.name).simulation == (
                serial.program(item.name).simulation
            ), item.name

    def test_work_stealing_still_lands_components_bottom_up(self, tmp_path):
        """With one slow program and one fast one sharing the pool, chunks
        complete in an order unrelated to submission; the per-function
        reports must still equal a serial run (callees settled first)."""
        items = [
            i
            for i in corpus_named("builtin")
            if i.name in ("stress/callweb_48", "examples/list_sum")
        ]
        assert len(items) == 2
        serial = BatchDriver(jobs=1, cache_dir=None, simulate=False).analyze_corpus(items)
        parallel = BatchDriver(jobs=3, cache_dir=None, simulate=False).analyze_corpus(items)
        assert _function_payloads(parallel) == _function_payloads(serial)


class TestSimulationStage:
    def test_polynomial_program_simulates_with_speedup(self, paper_items):
        item = next(i for i in paper_items if i.name == "paper/polynomial_scale")
        sim = simulate_program(item.source, PipelineOptions())
        assert sim["status"] == "simulated"
        assert sim["heaps_match"]
        assert sim["speedup"] > 1.0
        assert "scale" in sim["transformed_functions"]

    def test_program_without_entry_reports_no_entry(self, paper_items):
        item = next(i for i in paper_items if i.name == "paper/subtree_move")
        sim = simulate_program(item.source, PipelineOptions())
        assert sim["status"] == "no-entry"

    def test_program_without_parallel_loops(self):
        from repro.adds.library import standard_source

        source = standard_source("ListNode") + (
            "function main() { var p; p = new ListNode; p->coef = 1; return p; }"
        )
        sim = simulate_program(source, PipelineOptions())
        assert sim["status"] == "no-parallel-loops"


class TestRobustness:
    def test_parse_error_is_reported_not_raised(self, tmp_path):
        items = [CorpusItem(name="bad", source="function { nope")]
        batch = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus(items)
        report = batch.program("bad")
        assert report.error is not None and "parse" in report.error

    def test_bad_program_does_not_abort_the_batch(self, paper_items):
        items = [CorpusItem(name="bad", source="type T {")] + [paper_items[0]]
        batch = BatchDriver(jobs=1, cache_dir=None).analyze_corpus(items)
        assert batch.program("bad").error is not None
        assert batch.program(paper_items[0].name).functions
