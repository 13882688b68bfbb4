"""The out-of-core compiler (the paper's primary contribution).

Compilation proceeds in the two phases of Figure 7 of the paper:

1. **In-core phase** (:mod:`repro.core.analysis`) — partition arrays using the
   distribution directives, compute local bounds, classify how each array is
   accessed by the loop nest and detect the communication the statement needs.
2. **Out-of-core phase** — strip-mine the local computation into slabs sized
   by the node memory budget (:mod:`repro.core.stripmine`), estimate the I/O
   cost of every candidate slabbing (:mod:`repro.core.cost_model`), reorganize
   the data accesses by picking the cheapest candidate
   (:mod:`repro.core.reorganize`), divide the memory budget between the
   competing out-of-core arrays (:mod:`repro.core.memory_alloc`), and emit the
   node + message-passing + I/O program (:mod:`repro.core.codegen`,
   :mod:`repro.core.node_program`).

:mod:`repro.core.pipeline` drives the whole sequence in two steps:
:func:`~repro.core.pipeline.plan_statement` *prices* a statement (everything
above up to the chosen :class:`~repro.core.reorganize.AccessPlan` and its
predicted cost — :meth:`CostModel.price` is the scalar arithmetic the
allocation policies and the plan search compare candidates with), and
:func:`~repro.core.pipeline.lower` turns the priced plan into the node program
and returns a :class:`~repro.core.pipeline.CompiledProgram`.
``compile_program`` is the two in sequence.
"""

from repro.core.ir import (
    ArrayRef,
    Constant,
    ElementwiseStatement,
    FullRange,
    Loop,
    LoopIndex,
    LoopKind,
    ProgramIR,
    ReductionStatement,
    TransposeStatement,
    build_gaxpy_ir,
    build_pipeline_ir,
)
from repro.core.analysis import ArrayRole, InCorePhaseResult, analyze_program
from repro.core.stripmine import SlabPlanEntry, slab_elements_from_ratio, slab_elements_from_bytes
from repro.core.cost_model import ArrayIOCost, PlanCost, Price, CostModel
from repro.core.memory_alloc import (
    AllocationPolicy,
    EqualAllocation,
    ProportionalAllocation,
    SearchAllocation,
)
from repro.core.reorganize import AccessPlan, ReorganizationDecision, reorganize
from repro.core.node_program import NodeProgram, NodeOp
from repro.core.codegen import ProgramSchedule, generate_node_program, generate_program_schedule
from repro.core.pipeline import (
    CompiledProgram,
    CompiledWholeProgram,
    StatementPlan,
    compile_program,
    compile_whole_program,
    compile_gaxpy,
    lower,
    plan_statement,
)

__all__ = [
    "ArrayRef",
    "Constant",
    "FullRange",
    "Loop",
    "LoopIndex",
    "LoopKind",
    "ProgramIR",
    "ReductionStatement",
    "ElementwiseStatement",
    "TransposeStatement",
    "build_gaxpy_ir",
    "build_pipeline_ir",
    "ArrayRole",
    "InCorePhaseResult",
    "analyze_program",
    "SlabPlanEntry",
    "slab_elements_from_ratio",
    "slab_elements_from_bytes",
    "ArrayIOCost",
    "PlanCost",
    "Price",
    "CostModel",
    "AllocationPolicy",
    "EqualAllocation",
    "ProportionalAllocation",
    "SearchAllocation",
    "AccessPlan",
    "ReorganizationDecision",
    "reorganize",
    "NodeProgram",
    "NodeOp",
    "generate_node_program",
    "ProgramSchedule",
    "generate_program_schedule",
    "StatementPlan",
    "CompiledProgram",
    "CompiledWholeProgram",
    "plan_statement",
    "lower",
    "compile_program",
    "compile_whole_program",
    "compile_gaxpy",
]
