#!/usr/bin/env python3
"""Quickstart: declare a structure with ADDS, analyze a loop, parallelize it.

This walks the paper's core pipeline end to end on the polynomial example of
section 3.3.2:

1. write a toy-language program whose list type carries an ADDS declaration,
2. run general path matrix analysis on its traversal loop,
3. compare against what a conventional compiler must assume,
4. strip-mine the loop (section 4.3.3) and check the transformed program
   computes the same heap,
5. replay the transformed program on the simulated multiprocessor.

Run:  python examples/quickstart.py
"""

from repro.adds import declaration, derive_properties
from repro.adds.library import merged_into
from repro.lang import Interpreter, run_program, unparse
from repro.machine import SEQUENT_LIKE, MachineSimulator
from repro.pathmatrix import analyze_loop_dependence
from repro.transform import classify_loop, pass_processor_count, strip_mine_loop


PROGRAM = """
function build(n)
{ var head; var p; var i;
  head = NULL;
  i = 0;
  while i < n
  { p = new ListNode;
    p->coef = i + 1;
    p->exp = i;
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
  h = build(64);
  h = scale(h, 3);
  return h;
}
"""


def main() -> None:
    # 1. the program: the ListNode type of the paper, with its ADDS declaration
    program = merged_into(PROGRAM, "ListNode")
    adds = declaration("ListNode")
    print("== the ADDS declaration ==")
    print(adds.describe())
    print()
    print("derived facts the compiler may rely on:")
    print(derive_properties(adds).summary())
    print()

    # 2. analyze the traversal loop of `scale`
    report = analyze_loop_dependence(program, "scale")
    print("== general path matrix analysis of the scale() loop ==")
    print(report.describe())
    print()
    print("path matrix after one loop body (p' is the previous iteration's p):")
    print(report.matrix_after_body.to_table(["head", "p", "p'"]))
    print()

    # 3. what a conventional compiler concludes (no ADDS information)
    conventional = classify_loop(program, "scale", use_adds=False)
    with_adds = classify_loop(program, "scale", use_adds=True)
    print(f"without ADDS the loop is: {conventional.classification}")
    print(f"with ADDS the loop is:    {with_adds.classification}")
    print()

    # 4. strip-mine the loop and check semantics are preserved
    result = strip_mine_loop(program, "scale", pes_param="PEs")
    print("== transformed program (section 4.3.3) ==")
    print(unparse(result.program.function_named("scale")))
    print(unparse(result.program.function_named(result.iteration_procedure)))

    _, original = run_program(program)
    transformed = pass_processor_count(result.program, ["scale"], 4)  # 4 processors

    interpreter = Interpreter(transformed)
    simulator = MachineSimulator(SEQUENT_LIKE.with_pes(4))
    executor = simulator.attach_to_interpreter(interpreter)
    interpreter.call_function("main")

    original_coefs = sorted(c.fields["coef"] for c in original.heap)
    transformed_coefs = sorted(c.fields["coef"] for c in interpreter.heap)
    print(f"same results as the sequential program: {original_coefs == transformed_coefs}")

    # 5. simulated parallel timing of the transformed loops
    trace = executor.trace
    speedup = executor.sequential_cost / trace.elapsed if trace.elapsed else 1.0
    print(
        f"simulated 4-PE execution: {trace.parallel_steps} parallel steps, "
        f"{trace.elapsed:.0f} work units vs {executor.sequential_cost:.0f} sequential "
        f"(speedup of the parallelized loops: {speedup:.2f})"
    )


if __name__ == "__main__":
    main()
