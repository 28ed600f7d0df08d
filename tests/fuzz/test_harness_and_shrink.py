"""The differential harness end-to-end, and the structural shrinker."""

from repro.fuzz.harness import (
    DIVERGENCE,
    INVALID,
    PASS,
    run_campaign,
    run_seed,
    run_source,
    save_regression,
    load_regression,
    replay_regression,
)
from repro.fuzz.executors import REFERENCE, build_plans
from repro.fuzz.generator import generate_program
from repro.fuzz.shrink import shrink_source
from repro.lang.parser import parse_program
from repro.lang.pretty import unparse


class TestRunSource:
    def test_front_end_rejection_is_invalid_not_crash(self):
        case = run_source("function main( { return 0 }")
        assert case.status == INVALID
        assert "front end rejected" in case.note

    def test_reference_error_skips_the_seed(self):
        case = run_source("function main() { return missing(); }")
        assert case.status == "skipped"
        assert case.diverged is False

    def test_clean_program_passes_all_executors(self):
        case = run_seed(0)
        assert case.status == PASS, case.summary()
        assert case.executors["reference"] == "ok"


class TestBuildPlans:
    def test_reference_plan_is_not_mutated_by_the_variants(self):
        # the variants share untouched functions with the reference program;
        # patching their call sites must copy, never write through
        variants = set()
        for seed in range(12):
            program = parse_program(generate_program(seed).source)
            before = unparse(program)
            plans = build_plans(program)
            assert plans[0].name == REFERENCE
            assert unparse(plans[0].program) == before, seed
            variants.update(plan.name for plan in plans[1:])
        assert "strip-mine" in variants


class TestCampaign:
    def test_small_campaign_is_all_green(self):
        report = run_campaign(range(8))
        assert report.count(PASS) + report.count("skipped") == 8
        assert not report.failures
        assert "8 program(s)" in report.describe()

    def test_report_dict_shape(self):
        data = run_campaign(range(3)).to_dict()
        assert data["seeds"] == 3
        assert data["divergences"] == 0
        assert "generator_version" in data


class TestShrink:
    SOURCE = """
function helper(x)
{ return x + 1; }

function main()
{ var a; var b;
  a = 1;
  b = 2;
  if a > 0 then
  { a = a + b; }
  return a;
}
"""

    def test_shrinks_to_predicate_fixed_point(self):
        # predicate: "still defines main" — everything else should go
        def has_main(candidate: str) -> bool:
            try:
                program = parse_program(candidate)
            except Exception:
                return False
            return program.function_named("main") is not None

        reduced = shrink_source(self.SOURCE, predicate=has_main)
        assert "helper" not in reduced
        assert len(reduced) < len(self.SOURCE)
        assert parse_program(reduced).function_named("main") is not None

    def test_unshrinkable_source_is_returned_unchanged(self):
        source = "function main()\n{ return 7; }\n"

        def exact(candidate: str) -> bool:
            return "return 7" in candidate

        reduced = shrink_source(source, predicate=exact)
        assert "return 7" in reduced

    def test_invalid_source_passes_through(self):
        assert shrink_source("not a program", predicate=lambda s: True) == "not a program"


class TestRegressionStore:
    def test_save_load_replay_round_trip(self, tmp_path):
        case = run_seed(0)
        case.status = DIVERGENCE  # pretend, to exercise the store
        path = save_regression(case, tmp_path, name="example", description="round trip")
        assert path.name == "example.json"
        record = load_regression(path)
        assert record["seed"] == 0
        assert record["description"] == "round trip"
        replayed = replay_regression(path)
        assert replayed.status == PASS
