"""Experiment E7 — correctness and cost of the strip-mining transformation.

Checks that the transformed toy-language Barnes–Hut program computes exactly
the same heap as the original, and that the native strip-mined parallel
driver reproduces the sequential physics bit-for-bit for several processor
counts.  Benchmark targets measure the transformation itself and the
interpreted execution of the transformed program under the machine simulator.
"""

import copy

import pytest

from repro.lang.interpreter import Interpreter, run_program
from repro.machine import SEQUENT_LIKE, MachineSimulator
from repro.nbody import (
    BHL1_FUNCTION,
    BHL2_FUNCTION,
    BarnesHutSimulation,
    SimulationConfig,
    StripMinedParallelSimulation,
    barnes_hut_toy_program,
    make_particles,
)
from repro.transform import pass_processor_count, strip_mine_loop


def _transformed_program(pes: int):
    program = barnes_hut_toy_program()
    result = strip_mine_loop(program, BHL1_FUNCTION)
    result = strip_mine_loop(result.program, BHL2_FUNCTION)
    return pass_processor_count(result.program, (BHL1_FUNCTION, BHL2_FUNCTION), pes)


def _heap_physics(interp):
    return sorted(
        (round(c.fields.get("x", 0.0), 9), round(c.fields.get("force", 0.0), 9))
        for c in interp.heap
    )


@pytest.mark.parametrize("pes", [2, 4, 7])
def test_transformed_toy_program_is_semantics_preserving(pes):
    _, original = run_program(barnes_hut_toy_program())
    transformed = _transformed_program(pes)
    interp = Interpreter(transformed)
    MachineSimulator(SEQUENT_LIKE.with_pes(pes)).attach_to_interpreter(interp)
    interp.call_function("main")
    assert _heap_physics(interp) == _heap_physics(original)


@pytest.mark.parametrize("pes", [4, 7])
def test_native_parallel_driver_matches_sequential(pes, experiment_steps):
    config = SimulationConfig(n=96, steps=experiment_steps, theta=0.4,
                              distribution="uniform", seed=3)
    seq = BarnesHutSimulation(make_particles(96, "uniform", 3), config).run()
    par = StripMinedParallelSimulation(
        make_particles(96, "uniform", 3), config, SEQUENT_LIKE.with_pes(pes)
    ).run()
    assert par.final_states == seq.final_states
    assert 1.0 < par.speedup_against(seq.total_work) < pes


def test_benchmark_strip_mining_transformation(benchmark):
    program = barnes_hut_toy_program()

    def transform_both_loops():
        result = strip_mine_loop(program, BHL1_FUNCTION)
        return strip_mine_loop(result.program, BHL2_FUNCTION)

    result = benchmark(transform_both_loops)
    assert result.iteration_procedure.startswith("_")


def test_benchmark_interpreted_parallel_execution(benchmark):
    transformed = _transformed_program(4)

    def run_transformed():
        interp = Interpreter(copy.deepcopy(transformed))
        executor = MachineSimulator(SEQUENT_LIKE.with_pes(4)).attach_to_interpreter(interp)
        interp.call_function("main")
        return executor.trace

    trace = benchmark(run_transformed)
    assert trace.parallel_steps > 0
