"""Loop unrolling for pointer traversal loops (cited from [HG92]).

Unrolling a traversal loop by a factor ``k`` replicates the body ``k`` times,
renaming nothing but letting the traversal update carry the pointer forward
between copies::

    while p <> NULL              while p <> NULL
    { work(p);                   { work(p);
      p = p->next;        =>       p = p->next;
    }                              if p <> NULL { work(p); p = p->next; }
                                   ... (k-1 guarded copies)
                                 }

The guards on the 2nd..k-th copies are required because the list length need
not be a multiple of ``k``; each guard repeats the loop's *own* condition —
guarding with a mere NULL check would run the extra copies for a loop such
as ``while p->coef > 0`` past its actual exit point.  When the structure is
speculatively traversable *and* the work is known to be harmless on a NULL
node the guards could be dropped; we keep them for a semantics-preserving
transformation.

The transformation is legal for any loop (it does not reorder work between
iterations), but it is *useful* — exposes instruction-level parallelism —
exactly when the dependence test shows the per-node work of consecutive
iterations to be independent, which is the property ADDS establishes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.lang.ast_nodes import (
    Block,
    Call,
    If,
    New,
    Program,
    While,
    iter_statements,
)
from repro.transform.dependence import find_while_loops
# unused here since unrolling is never dependence-checked, but kept as a module
# global: perfbench/layers.py traces ``repro.transform.unroll.classify_loop``
from repro.transform.dependence import classify_loop  # noqa: F401
from repro.transform.stripmine import TransformError, _find_traversal_update, copy_function


@dataclass
class UnrollResult:
    """Outcome of unrolling one traversal loop."""

    program: Program
    function_name: str
    factor: int
    traversal_var: str
    traversal_field: str
    notes: list[str] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"unrolled loop in {self.function_name} by factor {self.factor} "
            f"(traversal {self.traversal_var}->{self.traversal_field})"
        )


def unroll_loop(
    program: Program,
    function_name: str,
    factor: int = 4,
    loop_index: int = 0,
) -> UnrollResult:
    """Unroll the ``loop_index``-th while loop of ``function_name`` ``factor`` times.

    The original AST is left untouched.  The result's program shares every
    untouched ``FunctionDecl`` with ``program`` (only ``function_name`` is
    copied), so callers must not mutate it in place; patch call sites with
    :func:`~repro.transform.stripmine.pass_processor_count`.

    Unrolling is legal for any loop, so it runs no dependence test.
    """
    if factor < 2:
        raise TransformError("unroll factor must be at least 2")
    loops = find_while_loops(program, function_name)
    if loop_index >= len(loops):
        raise TransformError(f"loop index {loop_index} out of range")

    new_program, func = copy_function(program, function_name)
    loop = [s for s in iter_statements(func.body) if isinstance(s, While)][loop_index]

    found = _find_traversal_update(loop.body)
    if found is None:
        raise TransformError("loop body has no traversal update p = p->f")
    _idx, traversal_var, traversal_field = found

    # the guards re-evaluate the loop condition between body copies, so the
    # condition must be pure — a call could observe the extra evaluation
    if any(isinstance(n, (Call, New)) for n in loop.cond.walk()):
        raise TransformError(
            "loop condition contains a call or allocation; unrolling would "
            "re-evaluate its side effects"
        )

    original_body = list(loop.body.statements)
    new_statements = list(copy.deepcopy(original_body))
    for _ in range(factor - 1):
        guarded = If(
            # the loop's own condition, not just `p <> NULL`: the 2nd..k-th
            # copies must stop exactly where the original loop would have
            cond=copy.deepcopy(loop.cond),
            then_body=Block(statements=copy.deepcopy(original_body)),
        )
        new_statements.append(guarded)
    loop.body = Block(statements=new_statements, line=loop.body.line)

    return UnrollResult(
        program=new_program,
        function_name=function_name,
        factor=factor,
        traversal_var=traversal_var,
        traversal_field=traversal_field,
        notes=[
            "copies 2..k are guarded by the loop's own condition because the "
            "trip count need not be a multiple of the unroll factor"
        ],
    )
