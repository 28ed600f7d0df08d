"""The transform-applicability stage skips the transforms' own dependence test.

The loops stage hands ``transforms_payload`` only the loops it found
parallelizable, with the engine's memoized analysis and the run's ADDS
setting.  Re-checking each loop inside the transforms would analyse the
whole program afresh to reach the same verdict, so the stage calls them
with ``check_dependences=False``.  These tests pin that the stage builds no
analysis of its own, that its verdicts equal the dependence-checked
transforms' with ADDS on and off, and that whole-program simulation leaves
the cached parse untouched.
"""

from pathlib import Path

import pytest

from repro.adds.library import standard_source
from repro.driver import pipeline, stages
from repro.driver.batch import BatchDriver
from repro.driver.corpus import CorpusItem, corpus_named
from repro.driver.pipeline import PipelineOptions, parsed_program, simulate_program
from repro.fuzz.harness import load_regression
from repro.lang.pretty import unparse
from repro.pathmatrix.analysis import PathMatrixAnalysis
from repro.transform.pipeline import software_pipeline_loop
from repro.transform.stripmine import strip_mine_loop

REGRESSION_DIR = Path(__file__).resolve().parents[1] / "fuzz_regressions"


#: a parallelizable traversal called from the entry point
SCALE_SRC = """
function build(n)
{ var head; var p; var i;
  head = NULL;
  i = 0;
  while i < n
  { p = new ListNode;
    p->coef = i + 1;
    p->next = head;
    head = p;
    i = i + 1;
  }
  return head;
}

function scale(head, c)
{ var p;
  p = head;
  while p <> NULL
  { p->coef = p->coef * c;
    p = p->next;
  }
  return head;
}

function main()
{ var h;
  h = build(8);
  h = scale(h, 3);
  return h;
}
"""


def corpus() -> list[CorpusItem]:
    """``--corpus builtin`` plus every program in ``tests/fuzz_regressions/``."""
    return corpus_named("builtin") + [
        CorpusItem(f"regression/{path.stem}", load_regression(path)["source"])
        for path in sorted(REGRESSION_DIR.glob("*.json"))
    ]


def staged_run(options: PipelineOptions, tmp_path):
    """A cold serial run recording every ``transforms_payload`` call and its
    result, and counting the analyses constructed inside those calls."""
    calls: list[tuple] = []
    constructed = [0]
    inside = [False]
    original_payload = stages.transforms_payload
    original_init = PathMatrixAnalysis.__init__

    def recording_payload(program, function, indices):
        inside[0] = True
        try:
            result = original_payload(program, function, indices)
        finally:
            inside[0] = False
        calls.append((program, function, list(indices), result))
        return result

    def counting_init(self, *args, **kwargs):
        if inside[0]:
            constructed[0] += 1
        original_init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stages, "transforms_payload", recording_payload)
        patch.setattr(PathMatrixAnalysis, "__init__", counting_init)
        BatchDriver(
            jobs=1, cache_dir=tmp_path / "store", options=options, simulate=False
        ).analyze_corpus(corpus())
    return calls, constructed[0]


def with_arguments(transform, **fixed):
    return lambda *args, **kwargs: transform(*args, **{**kwargs, **fixed})


@pytest.mark.parametrize("use_adds", [True, False], ids=["adds", "no-adds"])
def test_stage_builds_no_analysis_and_matches_checked_transforms(use_adds, tmp_path):
    calls, constructed = staged_run(PipelineOptions(use_adds=use_adds), tmp_path)
    assert constructed == 0
    checked = 0
    with pytest.MonkeyPatch.context() as patch:
        # the transforms as a direct caller gets them: each runs its own
        # dependence test on a fresh analysis
        patch.setattr(
            pipeline,
            "strip_mine_loop",
            with_arguments(strip_mine_loop, check_dependences=True, use_adds=use_adds),
        )
        patch.setattr(
            pipeline,
            "software_pipeline_loop",
            with_arguments(software_pipeline_loop, check_dependences=True),
        )
        for program, function, indices, result in calls:
            if indices:
                assert pipeline.transforms_payload(program, function, indices) == result
                checked += len(indices)
    # with ADDS the corpus holds over a dozen parallelizable loops; without
    # them the dependence test proves few traversals independent
    assert checked >= (10 if use_adds else 1)


def test_simulation_leaves_the_cached_parse_untouched():
    source = standard_source("ListNode") + "\n" + SCALE_SRC
    before = unparse(parsed_program(source))
    first = simulate_program(source, PipelineOptions())
    assert first["status"] == "simulated" and first["heaps_match"]
    assert unparse(parsed_program(source)) == before
    assert simulate_program(source, PipelineOptions()) == first
