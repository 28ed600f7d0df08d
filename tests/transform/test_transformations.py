"""Tests for the dependence test and the three transformations.

Every transformation test checks two things: the transformed program has the
structure the paper describes, and it is semantics preserving (same heap as
the original when interpreted).
"""

import pytest

from repro.adds.library import merged_into
from repro.lang.ast_nodes import For, If, ParallelFor, While
from repro.lang.interpreter import run_program
from repro.lang.pretty import unparse
from repro.nbody.toy_program import BHL1_FUNCTION, BHL2_FUNCTION, barnes_hut_toy_program
from repro.transform import (
    LoopClassification,
    TransformationReport,
    classify_loop,
    pass_processor_count,
    software_pipeline_loop,
    strip_mine_loop,
    unroll_loop,
)
from repro.transform.stripmine import TransformError


def coef_multiset(interpreter):
    return sorted(
        cell.fields["coef"] for cell in interpreter.heap if "coef" in cell.fields
    )


def patch_call(program, callee: str, extra_arg: int):
    """``program`` with ``extra_arg`` appended to every call of ``callee``
    (supplies the PEs count); ``program`` itself is left untouched."""
    return pass_processor_count(program, [callee], extra_arg)


class TestClassifyLoop:
    def test_scale_loop_with_and_without_adds(self, scale_program):
        assert (
            classify_loop(scale_program, "scale").classification
            is LoopClassification.DOALL_AFTER_TRAVERSAL
        )
        assert (
            classify_loop(scale_program, "scale", use_adds=False).classification
            is LoopClassification.SEQUENTIAL
        )

    def test_barnes_hut_loops(self, bh_program):
        for fn in (BHL1_FUNCTION, BHL2_FUNCTION):
            assert classify_loop(bh_program, fn).parallelizable
            assert not classify_loop(bh_program, fn, use_adds=False).parallelizable

    def test_function_without_loops(self, scale_program):
        test = classify_loop(scale_program, "main")
        assert test.classification is LoopClassification.NO_TRAVERSAL

    def test_describe_lists_reasons(self, scale_program):
        text = classify_loop(scale_program, "scale").describe()
        assert "different node" in text


class TestStripMining:
    def test_transformed_structure_matches_paper(self, scale_program):
        result = strip_mine_loop(scale_program, "scale", pes_param="PEs")
        scale = result.program.function_named("scale")
        loop = next(s for s in scale.body.walk() if isinstance(s, While))
        kinds = [type(s) for s in loop.body.statements]
        assert kinds == [ParallelFor, For]  # parallel step then FOR1 skip-ahead
        proc = result.program.function_named(result.iteration_procedure)
        assert proc.is_procedure
        inner_kinds = [type(s) for s in proc.body.statements]
        assert inner_kinds == [For, If]  # FOR2 skip then guarded work
        assert "PEs" in {p.name for p in scale.params}

    def test_semantics_preserved_for_various_pe_counts(self, scale_program):
        _, original = run_program(scale_program)
        for pes in (1, 2, 3, 4, 7, 16):
            result = strip_mine_loop(scale_program, "scale", pes_param="PEs")
            patched = patch_call(result.program, "scale", pes)
            _, transformed = run_program(patched)
            assert coef_multiset(transformed) == coef_multiset(original), pes

    def test_refuses_unparallelizable_loop(self):
        source = """
        function reverse(head)
        { var p; var prev; var nxt;
          prev = NULL;
          p = head;
          while p <> NULL
          { nxt = p->next;
            p->next = prev;
            prev = p;
            p = nxt;
          }
          return prev;
        }
        """
        program = merged_into(source, "ListNode")
        with pytest.raises(TransformError):
            strip_mine_loop(program, "reverse")

    def test_unchecked_mode_still_transforms(self, scale_program):
        result = strip_mine_loop(scale_program, "scale", check_dependences=False)
        assert result.dependence is None
        assert result.program.function_named(result.iteration_procedure) is not None

    def test_free_variables_become_parameters(self, scale_program):
        result = strip_mine_loop(scale_program, "scale")
        proc = result.program.function_named(result.iteration_procedure)
        assert [p.name for p in proc.params][:2] == ["i", "p"]
        assert "c" in {p.name for p in proc.params}

    def test_barnes_hut_both_loops_transform_and_run(self, bh_program):
        _, original = run_program(bh_program)
        result = strip_mine_loop(bh_program, BHL1_FUNCTION)
        result = strip_mine_loop(result.program, BHL2_FUNCTION)
        patched = patch_call(result.program, BHL1_FUNCTION, 4)
        patched = patch_call(patched, BHL2_FUNCTION, 4)
        _, transformed = run_program(patched)
        orig_state = sorted(
            (round(c.fields.get("x", 0.0), 9), round(c.fields.get("force", 0.0), 9))
            for c in original.heap
        )
        new_state = sorted(
            (round(c.fields.get("x", 0.0), 9), round(c.fields.get("force", 0.0), 9))
            for c in transformed.heap
        )
        assert orig_state == new_state

    def test_original_program_is_untouched(self, scale_program):
        before = unparse(scale_program)
        strip_mine_loop(scale_program, "scale")
        assert unparse(scale_program) == before


class TestUnrolling:
    def test_unrolled_loop_has_guarded_copies(self, scale_program):
        result = unroll_loop(scale_program, "scale", factor=4)
        scale = result.program.function_named("scale")
        loop = next(s for s in scale.body.walk() if isinstance(s, While))
        guards = [s for s in loop.body.statements if isinstance(s, If)]
        assert len(guards) == 3

    @pytest.mark.parametrize("factor", [2, 3, 5])
    def test_semantics_preserved(self, scale_program, factor):
        _, original = run_program(scale_program)
        result = unroll_loop(scale_program, "scale", factor=factor)
        _, transformed = run_program(result.program)
        assert coef_multiset(transformed) == coef_multiset(original)

    def test_factor_below_two_rejected(self, scale_program):
        with pytest.raises(TransformError):
            unroll_loop(scale_program, "scale", factor=1)


class TestSoftwarePipelining:
    def test_pipelined_structure(self, scale_program):
        result = software_pipeline_loop(scale_program, "scale")
        scale = result.program.function_named("scale")
        text = unparse(scale)
        assert result.lookahead_var in text
        assert "while" in text

    def test_semantics_preserved(self, scale_program):
        _, original = run_program(scale_program)
        result = software_pipeline_loop(scale_program, "scale")
        _, transformed = run_program(result.program)
        assert coef_multiset(transformed) == coef_multiset(original)

    def test_single_element_list_handled(self):
        source = """
        function touch(head)
        { var p;
          p = head;
          while p <> NULL
          { p->coef = p->coef + 1;
            p = p->next;
          }
          return head;
        }
        function main()
        { var h;
          h = new ListNode;
          h->coef = 41;
          h = touch(h);
          return h;
        }
        """
        program = merged_into(source, "ListNode")
        result = software_pipeline_loop(program, "touch")
        out, interp = run_program(result.program)
        assert interp.heap.cell(out).fields["coef"] == 42

    def test_refuses_unparallelizable_loop(self, scale_program):
        assert (
            classify_loop(scale_program, "scale", use_adds=False).classification
            is LoopClassification.SEQUENTIAL
        )
        # pipelining checks dependences through the same classifier
        source = """
        function sum_into(head, acc)
        { var p;
          p = head;
          while p <> NULL
          { acc->coef = acc->coef + p->coef;
            p = p->next;
          }
          return acc;
        }
        """
        program = merged_into(source, "ListNode")
        with pytest.raises(TransformError):
            software_pipeline_loop(program, "sum_into")


class TestCopyOnWrite:
    """The transforms copy only the function they rewrite and share the
    rest with their input, so nothing downstream may patch in place."""

    TRANSFORMS = {
        "strip_mine": strip_mine_loop,
        "unroll": unroll_loop,
        "software_pipeline": software_pipeline_loop,
    }

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_input_program_is_untouched(self, scale_program, name):
        before = unparse(scale_program)
        self.TRANSFORMS[name](scale_program, "scale")
        assert unparse(scale_program) == before

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_only_the_target_function_is_copied(self, scale_program, name):
        result = self.TRANSFORMS[name](scale_program, "scale")
        for func in scale_program.functions:
            shared = result.program.function_named(func.name) is func
            assert shared == (func.name != "scale"), func.name
        assert result.program.functions is not scale_program.functions

    def test_pass_processor_count_patches_a_copy(self, scale_program):
        before = unparse(scale_program)
        result = strip_mine_loop(scale_program, "scale")
        patched = pass_processor_count(result.program, ["scale"], 4)
        assert unparse(scale_program) == before
        assert "scale(h, 3, 4)" in unparse(patched.function_named("main"))
        assert "scale(h, 3)" in unparse(result.program.function_named("main"))
        # functions without a patched call stay shared
        assert patched.function_named("build") is scale_program.function_named("build")

    def test_repeated_patching_does_not_accumulate(self, scale_program):
        # the pattern that broke in-place patching: one transform result,
        # patched for several processor counts in turn
        result = strip_mine_loop(scale_program, "scale")
        for pes in (2, 3):
            patched = pass_processor_count(result.program, ["scale"], pes)
            assert f"scale(h, 3, {pes});" in unparse(patched.function_named("main"))


class TestTransformationReport:
    def test_report_rendering(self, scale_program):
        result = strip_mine_loop(scale_program, "scale")
        report = TransformationReport(
            name="strip-mining",
            function_name="scale",
            original=scale_program,
            transformed=result.program,
            dependence=result.dependence,
            notes=result.notes,
        )
        text = report.render()
        assert "original" in text and "transformed" in text
        assert result.iteration_procedure in text
        assert "speculative traversability" in text
