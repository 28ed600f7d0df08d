"""The staged engine's incremental guarantees: summary-digest firewalling
(early cutoff), soundness of the firewall (summary- and return-type-changing
edits must invalidate callers), the store's stage layout, line-relative
artifact sharing across offsets, and the per-worker LRU bound.

The acceptance property throughout: an incremental run's report is
**bit-identical** to the same analysis from scratch — incrementality may
never change an answer, only skip work.
"""

import multiprocessing
from collections import OrderedDict

import pytest

from repro.driver.batch import BatchDriver
from repro.driver.cache import LEDGER_NAME
from repro.driver.corpus import CorpusItem
from repro.driver.pipeline import _CACHE_LIMIT, _bounded

TYPES = """
type ListNode [X]
{ int coef;
  int exp;
  ListNode *next is uniquely forward along X;
};
"""

BASE = TYPES + """
function leaf(p)
{ var s;
  s = 0;
  while p <> NULL
  { s = s + p->coef;
    p = p->next;
  }
  return s;
}

function caller(h)
{ var t;
  t = 0;
  while h <> NULL
  { t = t + leaf(h);
    h = h->next;
  }
  return t;
}

function unrelated(n)
{ var i;
  i = n + 1;
  return i;
}
"""


def _run(source, tmp_path, name="prog"):
    driver = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
    report = driver.analyze_corpus([CorpusItem(name=name, source=source)])
    return report


def _scratch(source, name="prog"):
    """The same analysis with no cache at all — the reference answer."""
    driver = BatchDriver(jobs=1, cache_dir=None, simulate=False)
    report = driver.analyze_corpus([CorpusItem(name=name, source=source)])
    return {p.name: p.functions for p in report.programs}


class TestEarlyCutoff:
    def test_summary_preserving_edit_firewalls_callers(self, tmp_path):
        cold = _run(BASE, tmp_path)
        assert cold.analyses_executed == 3
        assert cold.incremental["dirty"] == 3

        # a body edit that leaves leaf's effect summary, preservation
        # verdict, and return type untouched
        edited = BASE.replace("function leaf(p)\n{ var s;",
                              "function leaf(p)\n{ var s; var pad;")
        assert edited != BASE
        warm = _run(edited, tmp_path)
        inc = warm.incremental

        # exactly ONE fixpoint reruns: the edited leaf itself
        assert warm.analyses_executed == 1
        assert inc["recomputed"] == 1
        assert inc["dirty"] == 1
        assert inc["fixpoints_run"] == 1
        # caller is served from cache despite its callee's body changing —
        # that is the summary-digest firewall
        assert inc["reused"] == 2
        assert inc["firewalled"] == 1
        assert inc["summaries_recomputed"] == 1  # leaf's SCC only

        # and the firewalled report is bit-identical to a from-scratch run
        assert {p.name: p.functions for p in warm.programs} == _scratch(edited)

    def test_summary_changing_edit_invalidates_callers(self, tmp_path):
        _run(BASE, tmp_path)
        # leaf now writes a data field: its effect summary (hence artifact
        # digest) changes, so caller must re-analyze
        edited = BASE.replace("s = s + p->coef;",
                              "p->exp = 0;\n    s = s + p->coef;")
        warm = _run(edited, tmp_path)
        inc = warm.incremental

        assert inc["dirty"] == 1  # only leaf's body changed...
        assert inc["recomputed"] == 2  # ...but leaf AND caller rerun
        assert inc["firewalled"] == 0
        assert inc["reused"] == 1  # unrelated
        assert {p.name: p.functions for p in warm.programs} == _scratch(edited)

    def test_return_type_change_invalidates_callers(self, tmp_path):
        # identical *effect* summaries (allocate + return fresh) that differ
        # only in the record type returned: the caller's environment is
        # inferred from the callee's return type, so firewalling on effects
        # alone would serve a stale caller verdict
        two_types = TYPES + """
type TreeNode [Y]
{ int coef;
  int exp;
  TreeNode *next is uniquely forward along Y;
};

function mk()
{ var p;
  p = new ListNode;
  return p;
}

function use()
{ var q;
  q = mk();
  q->coef = 1;
  return q;
}
"""
        _run(two_types, tmp_path, name="rt")
        edited = two_types.replace("p = new ListNode;", "p = new TreeNode;")
        warm = _run(edited, tmp_path, name="rt")
        inc = warm.incremental

        assert inc["dirty"] == 1
        assert inc["recomputed"] == 2  # mk AND use — no stale firewall
        assert inc["firewalled"] == 0
        assert {p.name: p.functions for p in warm.programs} == _scratch(
            edited, name="rt"
        )


class TestPooledIncremental:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_summary_preserving_edit_under_the_pool(self, tmp_path, start_method):
        """The pool runs the same component tasks as the inline path, so the
        firewall holds there too: one recomputed function, callers served."""
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")

        def run(source):
            driver = BatchDriver(
                jobs=2, cache_dir=tmp_path, simulate=False, start_method=start_method
            )
            return driver.analyze_corpus([CorpusItem(name="prog", source=source)])

        assert run(BASE).incremental["recomputed"] == 3
        edited = BASE.replace("function leaf(p)\n{ var s;",
                              "function leaf(p)\n{ var s; var pad;")
        warm = run(edited)
        inc = warm.incremental

        assert warm.analyses_executed == 1
        assert inc["recomputed"] == 1
        assert inc["dirty"] == 1
        assert inc["fixpoints_run"] == 1
        assert inc["reused"] == 2
        assert inc["firewalled"] == 1
        assert {p.name: p.functions for p in warm.programs} == _scratch(edited)


class TestStoreLayout:
    def test_cold_run_writes_only_what_later_runs_read(self, tmp_path):
        _run(BASE, tmp_path)
        stages = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert stages == ["manifest", "summary"]
        assert {p.name for p in tmp_path.iterdir() if p.is_file()} == {
            LEDGER_NAME
        }
        # one artifact per call-graph component (each function is its own)
        assert len(list((tmp_path / "summary").glob("*.json"))) == 3

    def test_adding_an_unrelated_function_resolves_no_old_fixpoint(self, tmp_path):
        _run(BASE, tmp_path)
        # the function-name set keys the reports (transforms pick fresh
        # names against it), so every old report misses; each is
        # reassembled from its intact analysis artifact
        edited = BASE + """
function spare(m)
{ var k;
  k = m * 2;
  return k;
}
"""
        driver = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
        warm = driver.analyze_corpus([CorpusItem(name="prog", source=edited)])
        inc = warm.incremental

        assert inc["dirty"] == 1
        assert inc["reused"] == 3
        assert inc["recomputed"] == 1  # spare itself, analyzed for the first time
        assert inc["fixpoints_run"] == 1  # ...and nothing else solved
        assert inc["summaries_reused"] == 3
        assert driver.cache.stage_counters["summary"]["misses"] == 1
        assert driver.cache.stage_counters["summary"]["hits"] == 3
        assert {p.name: p.functions for p in warm.programs} == _scratch(edited)


class TestLineRelativeSharing:
    def test_shifted_program_reuses_every_artifact(self, tmp_path):
        cold = _run(BASE, tmp_path, name="orig")
        # the same bytes four lines further down, as a *different* program
        shifted = "\n\n\n\n" + BASE
        warm = _run(shifted, tmp_path, name="shifted")

        # nothing re-runs: every stage key is offset-independent
        assert warm.analyses_executed == 0
        assert warm.incremental["recomputed"] == 0
        assert warm.incremental["fixpoints_run"] == 0
        assert warm.cache_hits == 3

        # but the probed reports carry correct *absolute* diagnostics
        assert {p.name: p.functions for p in warm.programs} == _scratch(
            shifted, name="shifted"
        )
        orig_fns = {p.name: p.functions for p in cold.programs}["orig"]
        warm_fns = {p.name: p.functions for p in warm.programs}["shifted"]
        for fn in ("leaf", "caller"):
            (orig_loop,) = orig_fns[fn]["loops"]
            (shift_loop,) = warm_fns[fn]["loops"]
            assert shift_loop["line"] == orig_loop["line"] + 4

    def test_edit_in_one_function_leaves_shifted_neighbors_cached(self, tmp_path):
        """Inserting a line in ``leaf`` shifts every function below it; the
        neighbors' artifacts must still hit (this was PR 7's cache-miss bug,
        worked around then by keying on the offset)."""
        _run(BASE, tmp_path)
        edited = BASE.replace("function leaf(p)\n{ var s;",
                              "function leaf(p)\n{ var s;\n  var pad;")
        assert edited.count("\n") == BASE.count("\n") + 1
        warm = _run(edited, tmp_path)
        assert warm.incremental["dirty"] == 1
        assert warm.incremental["reused"] == 2
        assert {p.name: p.functions for p in warm.programs} == _scratch(edited)


class TestBoundedLRU:
    def test_hit_refreshes_and_overflow_evicts_only_the_oldest(self):
        cache = OrderedDict()
        for i in range(_CACHE_LIMIT):
            _bounded(cache, i, lambda i=i: f"v{i}")
        # a hit must not recompute, and must refresh recency
        assert _bounded(cache, 0, lambda: "recomputed") == "v0"
        # one insert past the limit evicts exactly one entry — the coldest
        # (key 1), not the just-refreshed key 0 and not the whole cache
        _bounded(cache, "fresh", lambda: "vf")
        assert len(cache) == _CACHE_LIMIT
        assert 0 in cache
        assert 1 not in cache
        assert "fresh" in cache

    def test_steady_state_keeps_working_set_warm(self):
        # the pre-fix behavior cleared *all* entries on overflow, so a scan
        # over limit+1 keys thrashed every one of them; real LRU keeps the
        # most recent limit keys resident
        cache = OrderedDict()
        for i in range(_CACHE_LIMIT + 10):
            _bounded(cache, i, lambda i=i: i)
        assert len(cache) == _CACHE_LIMIT
        assert set(cache) == set(range(10, _CACHE_LIMIT + 10))
