"""The in-core compilation phase.

This is phase one of Figure 7: using the distribution directives the
compiler partitions the arrays, computes local bounds, and analyzes the array
operation to classify access patterns and detect communication.  The result
feeds the out-of-core phase (strip-mining, cost estimation, reorganization).

Access-pattern classification
-----------------------------
Within a reduction statement each referenced array plays one of three roles,
derived purely from its symbolic subscripts (the paper: "use index variables
to analyze access patterns"):

``RESULT``
    The left-hand side array (``c`` in GAXPY).  Written once; its distributed
    dimension indexed by an outer sequential loop determines the *owner* that
    stores each result column.

``STREAMED``
    An operand with a full-range subscript in one dimension and the reduction
    index in another (``a(:, k)``).  Its entire local part participates in
    producing every result column, which is what makes its I/O cost dominant
    and is exactly the access the paper's reorganization targets.

``COEFFICIENT``
    An operand subscripted only by loop indices (``b(k, j)``): one element per
    innermost iteration, streamed once per sweep of the loops that index it.

Communication detection
-----------------------
The reduction runs over a loop index that subscripts a *distributed*
dimension of the streamed array, so each processor only produces a partial
sum and a global sum (reduction) is required; the result column is then
stored by its owner (owner-computes rule applied to the LHS).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Dict, Optional, Tuple, Union

from repro.exceptions import CompilationError
from repro.core.ir import (
    ArrayRef,
    ElementwiseStatement,
    Loop,
    LoopKind,
    ProgramIR,
    ReductionStatement,
    TransposeStatement,
)

__all__ = [
    "ArrayRole",
    "ArrayAccessInfo",
    "InCorePhaseResult",
    "ElementwisePhaseResult",
    "FusedElementwisePhase",
    "TransposePhaseResult",
    "PhaseResult",
    "analyze_program",
]


class ArrayRole(enum.Enum):
    """Role an array plays in the reduction statement."""

    RESULT = "result"
    STREAMED = "streamed"
    COEFFICIENT = "coefficient"


@dataclasses.dataclass(frozen=True)
class ArrayAccessInfo:
    """Per-array facts gathered by the in-core phase."""

    name: str
    role: ArrayRole
    ref: ArrayRef
    #: dimension subscripted by the reduction index (None when not used)
    reduce_dim: Optional[int]
    #: dimension subscripted by the outer sequential loop index (None when not used)
    outer_dim: Optional[int]
    #: dimensions accessed with a full-range subscript
    full_dims: Tuple[int, ...]
    #: the array's distributed dimensions (from its descriptor)
    distributed_dims: Tuple[int, ...]
    #: maximum local element count over processors
    max_local_elements: int


@dataclasses.dataclass
class InCorePhaseResult:
    """Everything the out-of-core phase needs from the in-core phase."""

    program: ProgramIR
    access: Dict[str, ArrayAccessInfo]
    #: name of the streamed array (``a``), the coefficient array (``b``) and result (``c``)
    streamed: str
    coefficient: str
    result: str
    #: the outer sequential loop driving result columns and the reduction loop
    outer_loop: Loop
    reduce_loop: Loop
    #: True when the reduction needs an inter-processor global sum
    needs_global_sum: bool
    #: True when storing a result column requires identifying its owner
    needs_owner_store: bool
    #: floating point operations per processor for the whole computation
    flops_per_proc: float

    def roles(self) -> Dict[str, ArrayRole]:
        return {name: info.role for name, info in self.access.items()}

    def describe(self) -> str:
        lines = [f"in-core phase of {self.program.name}"]
        for name, info in self.access.items():
            lines.append(
                f"  {name}: role={info.role.value}, reduce_dim={info.reduce_dim}, "
                f"outer_dim={info.outer_dim}, full_dims={list(info.full_dims)}, "
                f"distributed_dims={list(info.distributed_dims)}"
            )
        lines.append(f"  global sum required: {self.needs_global_sum}")
        lines.append(f"  owner store required: {self.needs_owner_store}")
        lines.append(f"  flops per processor: {self.flops_per_proc:.3e}")
        return "\n".join(lines)


@dataclasses.dataclass
class ElementwisePhaseResult:
    """In-core-phase facts for an elementwise statement ``c = op(a, b)``.

    All arrays conform and share one distribution, so no communication is
    required; the only out-of-core decision left is the slabbing.
    """

    program: ProgramIR
    result: str
    operands: Tuple[str, str]
    op: str
    #: maximum local element count over processors (shared by all arrays)
    max_local_elements: int
    #: one scalar operation per local element
    flops_per_proc: float

    def describe(self) -> str:
        return (
            f"in-core phase of {self.program.name}: elementwise {self.op} of "
            f"{self.operands[0]} and {self.operands[1]} into {self.result}, "
            f"no communication, {self.flops_per_proc:.3e} flops per processor"
        )


@dataclasses.dataclass
class FusedElementwisePhase:
    """In-core-phase facts for a fused elementwise pair.

    The producer's result (``intermediate``) flows straight from its compute
    buffer into the consumer's per-slab work — it is never written to, nor
    read back from, its Local Array Files.  Both member analyses are kept so
    downstream phases can reason about either statement individually.
    """

    #: the two-statement mini program (producer first, consumer second)
    program: ProgramIR
    producer: ElementwisePhaseResult
    consumer: ElementwisePhaseResult
    #: the producer result the fusion keeps in memory
    intermediate: str

    @property
    def result(self) -> str:
        """The fused unit's materialized result: the consumer's result."""
        return self.consumer.result

    @property
    def max_local_elements(self) -> int:
        return max(self.producer.max_local_elements, self.consumer.max_local_elements)

    @property
    def flops_per_proc(self) -> float:
        return self.producer.flops_per_proc + self.consumer.flops_per_proc

    def describe(self) -> str:
        return (
            f"in-core phase of {self.program.name}: fused elementwise "
            f"{self.producer.op} into {self.intermediate} (never materialized) "
            f"feeding {self.consumer.op} into {self.consumer.result}, "
            f"no communication, {self.flops_per_proc:.3e} flops per processor"
        )


@dataclasses.dataclass
class TransposePhaseResult:
    """In-core-phase facts for a transpose statement ``dst = src^T``.

    With source and target identically column-block distributed, the columns
    of the target owned by one processor are built from rows spread over
    every processor's local array — an all-to-all exchange per streamed slab.
    """

    program: ProgramIR
    source: str
    target: str
    #: maximum local element count over processors
    max_local_elements: int
    #: True when the exchange crosses processors (nprocs > 1)
    needs_exchange: bool

    def describe(self) -> str:
        return (
            f"in-core phase of {self.program.name}: transpose of {self.source} "
            f"into {self.target}, all-to-all exchange required: {self.needs_exchange}"
        )


#: any statement kind's analysis result — what the downstream lowering phases
#: (strip-mining, cost model, codegen) dispatch on
PhaseResult = Union[
    InCorePhaseResult,
    ElementwisePhaseResult,
    FusedElementwisePhase,
    TransposePhaseResult,
]


def _analyze_elementwise(program: ProgramIR) -> ElementwisePhaseResult:
    statement: ElementwiseStatement = program.statement
    result = statement.result.array
    operands = tuple(ref.array for ref in statement.operands)
    shapes = {program.arrays[name].shape for name in (result, *operands)}
    if len(shapes) != 1:
        raise CompilationError(
            f"elementwise arrays must conform; found shapes {sorted(shapes)}"
        )
    result_desc = program.arrays[result]
    if result_desc.ndim != 2:
        raise CompilationError("the elementwise lowering handles two-dimensional arrays")
    local = math.prod(result_desc.max_local_shape())
    return ElementwisePhaseResult(
        program=program,
        result=result,
        operands=operands,
        op=statement.op,
        max_local_elements=local,
        flops_per_proc=float(local),
    )


def _analyze_transpose(program: ProgramIR) -> TransposePhaseResult:
    statement: TransposeStatement = program.statement
    source = statement.operand.array
    target = statement.result.array
    src_desc = program.arrays[source]
    dst_desc = program.arrays[target]
    if src_desc.ndim != 2 or src_desc.shape[0] != src_desc.shape[1]:
        raise CompilationError("the transpose lowering handles square two-dimensional arrays")
    if dst_desc.shape != src_desc.shape:
        raise CompilationError(
            f"transpose target {target!r} must conform with source {source!r}"
        )
    local = math.prod(src_desc.max_local_shape())
    return TransposePhaseResult(
        program=program,
        source=source,
        target=target,
        max_local_elements=local,
        needs_exchange=program.nprocs() > 1,
    )


def _classify_operand(ref: ArrayRef, reduce_index: str) -> ArrayRole:
    if ref.full_range_dims() and ref.uses_index(reduce_index):
        return ArrayRole.STREAMED
    return ArrayRole.COEFFICIENT


def _single(values: Tuple[int, ...], what: str, ref: ArrayRef) -> Optional[int]:
    if not values:
        return None
    if len(values) > 1:
        raise CompilationError(
            f"{what} appears in more than one dimension of {ref.describe()}; "
            "the compiler handles one occurrence per reference"
        )
    return values[0]


def analyze_program(program: ProgramIR) -> PhaseResult:
    """Run the in-core phase on ``program`` and return its result.

    Dispatches on the statement kind: reduction statements produce the
    paper's :class:`InCorePhaseResult`; elementwise and transpose statements
    produce their own (simpler) phase results.  Every result feeds the same
    out-of-core pipeline (:func:`repro.core.pipeline.compile_program`).
    """
    if isinstance(program.statement, ElementwiseStatement):
        return _analyze_elementwise(program)
    if isinstance(program.statement, TransposeStatement):
        return _analyze_transpose(program)
    if not isinstance(program.statement, ReductionStatement):
        raise CompilationError(
            f"cannot analyze statement of type {type(program.statement).__name__}"
        )
    statement: ReductionStatement = program.statement
    reduce_loop = program.loop(statement.reduce_index)

    # The outer sequential loop that drives result columns: the sequential loop
    # whose index subscripts the result reference.
    outer_loop: Optional[Loop] = None
    for loop in program.sequential_loops():
        if statement.result.uses_index(loop.index):
            outer_loop = loop
            break
    if outer_loop is None:
        # A single FORALL with no sequential driver (e.g. a pure elementwise
        # statement); treat the reduction loop as the driver with one sweep.
        outer_loop = Loop(index="__once__", extent=1, kind=LoopKind.SEQUENTIAL)

    access: Dict[str, ArrayAccessInfo] = {}
    streamed_name: Optional[str] = None
    coefficient_name: Optional[str] = None

    def build_info(ref: ArrayRef, role: ArrayRole) -> ArrayAccessInfo:
        descriptor = program.arrays[ref.array]
        reduce_dim = _single(ref.dims_with_index(statement.reduce_index), "the reduction index", ref)
        outer_dim = _single(ref.dims_with_index(outer_loop.index), "the outer loop index", ref)
        return ArrayAccessInfo(
            name=ref.array,
            role=role,
            ref=ref,
            reduce_dim=reduce_dim,
            outer_dim=outer_dim,
            full_dims=ref.full_range_dims(),
            distributed_dims=descriptor.distributed_dims(),
            max_local_elements=math.prod(descriptor.max_local_shape()),
        )

    access[statement.result.array] = build_info(statement.result, ArrayRole.RESULT)
    for ref in statement.operands:
        role = _classify_operand(ref, statement.reduce_index)
        info = build_info(ref, role)
        if role is ArrayRole.STREAMED:
            if streamed_name is not None and streamed_name != ref.array:
                raise CompilationError(
                    "the compiler handles one streamed operand per statement; "
                    f"found both {streamed_name!r} and {ref.array!r}"
                )
            streamed_name = ref.array
        else:
            coefficient_name = ref.array
        # A single-operand reduction references the same array in both roles;
        # the streamed-role view must win (its reduce_dim drives the
        # communication detection below), so never let a later
        # coefficient-role reference overwrite it.
        existing = access.get(ref.array)
        if existing is None or existing.role is not ArrayRole.STREAMED:
            access[ref.array] = info

    if streamed_name is None:
        raise CompilationError(
            "no streamed operand (full-range + reduction-index subscript) found; "
            "the out-of-core reorganization does not apply"
        )
    if coefficient_name is None:
        # Degenerate but legal: a reduction of a single streamed array.
        coefficient_name = streamed_name

    result_name = statement.result.array

    # Communication detection.
    streamed_info = access[streamed_name]
    needs_global_sum = (
        streamed_info.reduce_dim is not None
        and streamed_info.reduce_dim in streamed_info.distributed_dims
        and program.nprocs() > 1
    )
    result_info = access[result_name]
    needs_owner_store = (
        result_info.outer_dim is not None
        and result_info.outer_dim in result_info.distributed_dims
        and program.nprocs() > 1
    )

    # Work estimate: one multiply and one add per element of the streamed
    # array's local part, for every iteration of the outer loop.
    flops_per_proc = 2.0 * outer_loop.extent * streamed_info.max_local_elements

    return InCorePhaseResult(
        program=program,
        access=access,
        streamed=streamed_name,
        coefficient=coefficient_name,
        result=result_name,
        outer_loop=outer_loop,
        reduce_loop=reduce_loop,
        needs_global_sum=needs_global_sum,
        needs_owner_store=needs_owner_store,
        flops_per_proc=flops_per_proc,
    )
