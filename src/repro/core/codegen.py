"""Code generation: from an access plan to a node + MP + I/O program.

The generated reduction programs mirror the paper's Figure 9 (column-slab
version) and Figure 12 (row-slab version): the loop structure, the placement
of the I/O calls, the global sum and the owner store are the same; only the
syntax is symbolic instead of Fortran.  Elementwise and transpose statements
generate the corresponding single-pass slab loops (with an all-to-all
exchange op for the transpose).

The static operation totals of the generated program are, by construction,
the counts the cost model predicts — a consistency the test suite checks.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple, TYPE_CHECKING

from repro.exceptions import CompilationError
from repro.core.analysis import (
    ElementwisePhaseResult,
    FusedElementwisePhase,
    InCorePhaseResult,
    PhaseResult,
    TransposePhaseResult,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ir import ProgramIR
    from repro.core.pipeline import CompiledProgram
from repro.core.node_program import (
    AllToAllOp,
    ComputeOp,
    GlobalSumOp,
    IOReadOp,
    IOWriteOp,
    LoopOp,
    NodeProgram,
    OwnerStoreOp,
)
from repro.core.reorganize import AccessPlan
from repro.runtime.slab import SlabbingStrategy

__all__ = ["generate_node_program", "ScheduleStep", "ProgramSchedule", "generate_program_schedule"]


def _result_column_length(analysis: InCorePhaseResult) -> int:
    result_desc = analysis.program.arrays[analysis.result]
    full_dims = analysis.access[analysis.result].full_dims
    return int(result_desc.shape[full_dims[0]]) if full_dims else 1


def _generate_elementwise(analysis: ElementwisePhaseResult, plan: AccessPlan) -> NodeProgram:
    """One fused slab loop: read both operand slabs, compute, write the result slab."""
    lhs, rhs = analysis.operands
    lhs_entry = plan.entry(lhs)
    rhs_entry = plan.entry(rhs)
    result_entry = plan.entry(analysis.result)
    flops_per_slab = float(result_entry.slab_elements)
    body = LoopOp(
        "s",
        result_entry.num_slabs,
        [
            IOReadOp(lhs, "slab", float(lhs_entry.slab_elements)),
            IOReadOp(rhs, "slab", float(rhs_entry.slab_elements)),
            ComputeOp(
                f"{analysis.op} of {lhs} and {rhs} slabs",
                flops_per_slab,
                per_slab_of=analysis.result,
            ),
            IOWriteOp(analysis.result, "slab", float(result_entry.slab_elements)),
        ],
        comment="slabs of the local arrays",
        slabs_of=analysis.result,
    )
    return NodeProgram(
        analysis.program.name, f"{plan.strategy.value}-slab elementwise", [body]
    )


def _generate_fused(analysis: FusedElementwisePhase, plan: AccessPlan) -> NodeProgram:
    """One slab loop running both statements' per-slab work back to back.

    The producer's result slab stays in its compute buffer and feeds the
    consumer's compute op directly: the loop body carries *no* I/O op for the
    intermediate, so the generated program's static operation totals — and
    therefore the verifier's symbolic ledger — charge it zero requests and
    zero bytes, matching the fused rows of :meth:`CostModel.estimate`.
    """
    p, c = analysis.producer, analysis.consumer
    p_lhs, p_rhs = p.operands
    other = tuple(name for name in c.operands if name != analysis.intermediate)
    result_entry = plan.entry(analysis.result)
    body_ops = [
        IOReadOp(p_lhs, "slab", float(plan.entry(p_lhs).slab_elements)),
        IOReadOp(p_rhs, "slab", float(plan.entry(p_rhs).slab_elements)),
        ComputeOp(
            f"{p.op} of {p_lhs} and {p_rhs} slabs into resident {analysis.intermediate}",
            float(plan.entry(analysis.intermediate).slab_elements),
            per_slab_of=analysis.intermediate,
        ),
    ]
    for name in other:
        body_ops.append(IOReadOp(name, "slab", float(plan.entry(name).slab_elements)))
    body_ops.append(
        ComputeOp(
            f"{c.op} of {' and '.join(c.operands)} slabs",
            float(result_entry.slab_elements),
            per_slab_of=analysis.result,
        )
    )
    body_ops.append(IOWriteOp(analysis.result, "slab", float(result_entry.slab_elements)))
    body = LoopOp(
        "s",
        result_entry.num_slabs,
        body_ops,
        comment=f"slabs of the local arrays ({analysis.intermediate} stays resident)",
        slabs_of=analysis.result,
    )
    return NodeProgram(
        analysis.program.name, f"fused {plan.strategy.value}-slab elementwise", [body]
    )


def _generate_transpose(analysis: TransposePhaseResult, plan: AccessPlan) -> NodeProgram:
    """Stream source slabs through an all-to-all exchange, then write target slabs."""
    src_entry = plan.entry(analysis.source)
    dst_entry = plan.entry(analysis.target)
    nprocs = analysis.program.nprocs()
    exchange = AllToAllOp(
        elements_per_pair=float(src_entry.slab_elements) / max(nprocs, 1),
        target=f"columns of {analysis.target}",
        per_slab_of=analysis.source,
    )
    body = LoopOp(
        "s",
        src_entry.num_slabs,
        [IOReadOp(analysis.source, "slab", float(src_entry.slab_elements)), exchange],
        comment=f"slabs of {analysis.source}",
        slabs_of=analysis.source,
    )
    flush = LoopOp(
        "w",
        dst_entry.num_slabs,
        [IOWriteOp(analysis.target, "slab", float(dst_entry.slab_elements))],
        comment=f"write the exchanged slabs of {analysis.target}",
        slabs_of=analysis.target,
    )
    return NodeProgram(analysis.program.name, "column-slab transpose", [body, flush])


@dataclasses.dataclass(frozen=True)
class ScheduleStep:
    """One statement of a whole-program schedule.

    ``laf_inputs`` names the operand arrays this statement reads straight from
    the Local Array Files a *previous* step produced — the inter-statement
    reuse that makes an intermediate's I/O get charged exactly once (one write
    pass by its producer, one read pass here, no regeneration).
    ``fresh_inputs`` are operands staged from the program's external inputs.
    """

    index: int
    statement_name: str
    node_program: NodeProgram
    writes: str
    laf_inputs: Tuple[str, ...]
    fresh_inputs: Tuple[str, ...]
    #: intermediates this step fuses away — consumed in their producer's
    #: compute buffer, never written to (or read back from) their LAFs
    fused: Tuple[str, ...] = ()

    def pretty(self) -> str:
        lines = [f"! step {self.index + 1}: {self.statement_name}"]
        for name in self.laf_inputs:
            lines.append(f"!   operand {name}: reuse LAF written by an earlier step")
        for name in self.fresh_inputs:
            lines.append(f"!   operand {name}: program input")
        for name in self.fused:
            lines.append(f"!   intermediate {name}: fused away (never materialized)")
        lines.append(self.node_program.pretty())
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class ProgramSchedule:
    """The generated whole-program schedule: one node program per statement."""

    name: str
    steps: Tuple[ScheduleStep, ...]
    intermediates: Tuple[str, ...]

    def step(self, index: int) -> ScheduleStep:
        return self.steps[index]

    def pretty(self) -> str:
        lines = [
            f"! whole-program schedule for {self.name} "
            f"({len(self.steps)} statements)"
        ]
        if self.intermediates:
            lines.append(
                "! intermediates kept in their Local Array Files between "
                f"statements: {', '.join(self.intermediates)}"
            )
        for step in self.steps:
            lines.append(step.pretty())
        return "\n".join(lines)


def generate_program_schedule(
    program: "ProgramIR", compiled_statements: Sequence["CompiledProgram"]
) -> ProgramSchedule:
    """Assemble the compiled units' node programs into a :class:`ProgramSchedule`.

    A fused unit (its analysis is a :class:`FusedElementwisePhase`) covers two
    consecutive IR statements with one node program, so there may be fewer
    steps than statements; every statement must still be covered exactly once.
    """
    covered = sum(
        2 if isinstance(unit.analysis, FusedElementwisePhase) else 1
        for unit in compiled_statements
    )
    if covered != len(program.statements):
        raise CompilationError(
            f"{len(program.statements)} statements but the "
            f"{len(compiled_statements)} compiled units cover {covered}"
        )
    produced: set = set()
    steps = []
    cursor = 0
    for index, compiled in enumerate(compiled_statements):
        fused = isinstance(compiled.analysis, FusedElementwisePhase)
        span = program.statements[cursor : cursor + (2 if fused else 1)]
        cursor += len(span)
        fused_away = (compiled.analysis.intermediate,) if fused else ()
        operand_names = []
        for statement in span:
            for ref in statement.operands:
                if ref.array not in operand_names and ref.array not in fused_away:
                    operand_names.append(ref.array)
        laf_inputs = tuple(n for n in operand_names if n in produced)
        fresh_inputs = tuple(n for n in operand_names if n not in produced)
        steps.append(
            ScheduleStep(
                index=index,
                statement_name="; ".join(s.describe() for s in span),
                node_program=compiled.node_program,
                writes=span[-1].result.array,
                laf_inputs=laf_inputs,
                fresh_inputs=fresh_inputs,
                fused=fused_away,
            )
        )
        produced.add(span[-1].result.array)
    return ProgramSchedule(
        name=program.name,
        steps=tuple(steps),
        intermediates=program.intermediate_arrays(),
    )


def generate_node_program(analysis: PhaseResult, plan: AccessPlan) -> NodeProgram:
    """Generate the node program implementing ``plan`` for the analyzed statement."""
    if isinstance(analysis, ElementwisePhaseResult):
        return _generate_elementwise(analysis, plan)
    if isinstance(analysis, FusedElementwisePhase):
        return _generate_fused(analysis, plan)
    if isinstance(analysis, TransposePhaseResult):
        return _generate_transpose(analysis, plan)
    if not isinstance(analysis, InCorePhaseResult):
        raise CompilationError(
            f"cannot generate code for analysis of type {type(analysis).__name__}"
        )
    streamed = analysis.streamed
    coefficient = analysis.coefficient
    result = analysis.result
    s_entry = plan.entry(streamed)
    b_entry = plan.entry(coefficient)
    c_entry = plan.entry(result)

    column_length = _result_column_length(analysis)
    cols_per_b_slab = b_entry.lines_per_slab
    flops_per_slab = 2.0 * s_entry.slab_elements
    c_slab_elements = float(c_entry.slab_elements)

    if plan.strategy is SlabbingStrategy.COLUMN:
        # Figure 9: for every column of the coefficient array, sweep all slabs
        # of the streamed array, then reduce and store the result column.
        inner_a = LoopOp(
            "n",
            s_entry.num_slabs,
            [
                IOReadOp(streamed, "slab", float(s_entry.slab_elements)),
                ComputeOp(
                    f"partial products of {streamed} slab",
                    flops_per_slab,
                    per_slab_of=streamed,
                ),
            ],
            comment=f"all slabs of {streamed}",
            slabs_of=streamed,
        )
        if streamed == coefficient:
            # Degenerate single-operand statement: the coefficient columns of
            # ``a`` are distributed with the streamed array, so each rank holds
            # only n/P of them and the conformal two-operand nest (coefficient
            # slabs around local columns) would visit a mere fraction of the
            # result.  The executable schedule stages the local part once and
            # then walks ALL result columns, broadcasting each coefficient
            # column from its owner — so the per-column loop runs over the
            # full outer extent, matching the cost model's re-read charges.
            stage = LoopOp(
                "l",
                b_entry.num_slabs,
                [IOReadOp(coefficient, "slab", float(b_entry.slab_elements))],
                comment=f"stage local slabs of {coefficient}",
                slabs_of=coefficient,
            )
            per_column = LoopOp(
                "m",
                int(analysis.outer_loop.extent),
                [
                    inner_a,
                    GlobalSumOp(float(column_length), target=f"column of {result}"),
                    OwnerStoreOp(result, "column"),
                ],
                comment=f"all result columns of {result} (broadcast schedule)",
            )
            body_ops = [stage, per_column]
        else:
            per_column = LoopOp(
                "m",
                cols_per_b_slab,
                [
                    inner_a,
                    GlobalSumOp(float(column_length), target=f"column of {result}"),
                    OwnerStoreOp(result, "column"),
                ],
                comment=f"columns in the {coefficient} slab",
                lines_of=coefficient,
            )
            body_ops = [
                LoopOp(
                    "l",
                    b_entry.num_slabs,
                    [IOReadOp(coefficient, "slab", float(b_entry.slab_elements)), per_column],
                    comment=f"slabs of {coefficient}",
                    slabs_of=coefficient,
                )
            ]
        flush = LoopOp(
            "w",
            c_entry.num_slabs,
            [IOWriteOp(result, "slab", c_slab_elements)],
            comment=f"flush ICLAs of {result} (performed as each fills)",
            slabs_of=result,
        )
        return NodeProgram(analysis.program.name, "column-slab", [*body_ops, flush])

    if plan.strategy is SlabbingStrategy.ROW:
        # Figure 12: fetch each row slab of the streamed array once, re-stream
        # the coefficient array against it, reduce subcolumns of the result.
        subcolumn = s_entry.lines_per_slab
        per_column = LoopOp(
            "m",
            cols_per_b_slab,
            [
                ComputeOp(
                    f"partial products of {streamed} slab",
                    flops_per_slab,
                    per_slab_of=streamed,
                ),
                GlobalSumOp(
                    float(subcolumn),
                    target=f"subcolumn of {result}",
                    per_line_of=streamed,
                ),
                OwnerStoreOp(result, "subcolumn"),
            ],
            comment=f"columns in the {coefficient} slab",
            lines_of=coefficient,
        )
        inner_b = LoopOp(
            "n",
            b_entry.num_slabs,
            [IOReadOp(coefficient, "slab", float(b_entry.slab_elements)), per_column],
            comment=f"slabs of {coefficient}",
            slabs_of=coefficient,
        )
        body = LoopOp(
            "l",
            s_entry.num_slabs,
            [IOReadOp(streamed, "slab", float(s_entry.slab_elements)), inner_b],
            comment=f"row slabs of {streamed}",
            slabs_of=streamed,
        )
        flush = LoopOp(
            "w",
            c_entry.num_slabs,
            [IOWriteOp(result, "slab", c_slab_elements)],
            comment=f"flush ICLAs of {result} (performed as each fills)",
            slabs_of=result,
        )
        return NodeProgram(analysis.program.name, "row-slab", [body, flush])

    raise CompilationError(f"cannot generate code for strategy {plan.strategy!r}")
