"""The generic executor for compiled node programs.

The executor is the bridge between the compiler (:mod:`repro.core`) and the
runtime.  Every workload — the paper's GAXPY reduction, elementwise
statements, transposes, and arbitrary programs entering through the mini-HPF
frontend — compiles to a :class:`~repro.core.pipeline.CompiledProgram`, and
this module runs it:

* :meth:`NodeProgramExecutor.execute` **executes** the program on a
  :class:`~repro.runtime.vm.VirtualMachine` (real Local Array Files, real
  NumPy arithmetic, verified result), driving the slab loops of the
  compiled access plan with the BLAS-3 batched inner kernels of the fast
  path; and
* :meth:`NodeProgramExecutor.estimate` **estimates** the program by charging
  the machine model with the statically counted operations of the generated
  node program (reduction statements) or by driving the same slab loops in
  charge-only mode (elementwise and transpose statements, whose loop
  structure *is* the cost model) — the fast path used to regenerate the
  paper-scale experiments without moving gigabytes through the filesystem.

Both paths report the same :class:`ExecutionResult` structure so experiment
harnesses can switch between them freely.  The engine functions
(:func:`run_reduction_column` and friends) are generic over the statement's
array names — they read the roles from the compiled analysis — so any
program of the right class runs through them.  Whatever ran, one routine
(:func:`verify_outputs`) decides whether its gathered result is correct.

Multi-statement programs run through :class:`ProgramExecutor`, which drives
the per-statement engines in order on one virtual machine so intermediates
are consumed straight from the Local Array Files their producers wrote
(charged once, never regenerated), and verifies the whole statement list
against the in-core NumPy oracle (:func:`program_reference`).
"""

from __future__ import annotations

import dataclasses
import os
import signal
from pathlib import Path
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING,
)

import numpy as np

from repro.config import ExecutionMode, RunConfig
from repro.exceptions import RuntimeExecutionError, SlabCorruptionError
from repro.hpf.array_desc import ArrayDescriptor
from repro.machine.cluster import Machine
from repro.resilience.checksums import SlabManifest
from repro.resilience.journal import program_fingerprint
from repro.runtime.laf import LocalArrayFile
from repro.runtime.ocla import OutOfCoreLocalArray
from repro.runtime.slab import Slab, SlabbingStrategy, column_slabs, make_slabs, row_slabs
from repro.runtime.vm import OutOfCoreArray, VirtualMachine

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.core.ir import ProgramIR
    from repro.core.pipeline import CompiledProgram, CompiledWholeProgram
    from repro.core.reorganize import AccessPlan

__all__ = [
    "ExecutionResult",
    "ReductionInputs",
    "reduction_reference",
    "program_reference",
    "verify_outputs",
    "NodeProgramExecutor",
    "ProgramExecutor",
    "run_reduction_column",
    "run_reduction_row",
    "run_reduction_incore",
    "run_reduction_single_operand",
    "run_elementwise_plan",
    "run_fused_elementwise_plan",
    "run_transpose_plan",
]


# ---------------------------------------------------------------------------
# inputs, references, results
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class ReductionInputs:
    """Dense input operands for one reduction (GAXPY-class) run.

    For single-operand statements (``c = a @ a``) ``streamed`` and
    ``coefficient`` are the same array.
    """

    streamed: np.ndarray     # the matrix whose columns are combined (A)
    coefficient: np.ndarray  # the matrix providing the combination weights (B)

    @property
    def n(self) -> int:
        return self.streamed.shape[0]


#: bytes of float64 reference in one oracle panel (256 result columns at
#: N = 1024): the oracle computes, and the comparison holds, a panel at a time
_PANEL_BYTES = 2 << 20

#: ``(result array, its column slice, freshly allocated float64 reference panel)``
_Panels = Iterator[Tuple[str, slice, np.ndarray]]


def _column_panels(shape: Tuple[int, int]) -> Iterator[slice]:
    """Column slices covering a ``shape`` result, ``_PANEL_BYTES`` of float64 each."""
    rows, cols = shape
    width = max(1, _PANEL_BYTES // (8 * max(rows, 1)))
    for start in range(0, cols, width):
        yield slice(start, min(start + width, cols))


def _float64(array: np.ndarray) -> np.ndarray:
    return np.asarray(array, dtype=np.float64)


def _reduction_panels(name: str, streamed: np.ndarray, coefficient: np.ndarray) -> _Panels:
    """``A B`` (equation 1): one float64 BLAS-3 GEMM per column panel of ``B``,
    past the float64 copy of ``A`` — the oracle's one operand-sized allocation."""
    streamed = _float64(streamed)
    for cols in _column_panels((streamed.shape[0], coefficient.shape[1])):
        yield name, cols, streamed @ _float64(coefficient[:, cols])


def _elementwise_panels(
    name: str, op: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lhs: np.ndarray, rhs: np.ndarray,
) -> _Panels:
    for cols in _column_panels(lhs.shape):
        yield name, cols, op(_float64(lhs[:, cols]), _float64(rhs[:, cols]))


def _transpose_panels(name: str, source: np.ndarray) -> _Panels:
    for cols in _column_panels(source.shape[::-1]):
        yield name, cols, source[cols, :].T.astype(np.float64)  # a copy, never a view


def reduction_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense float64 GAXPY product ``C = A B`` (equation 1), assembled from
    the column-panel GEMMs :func:`verify_outputs` folds over."""
    a, b = np.asarray(a), np.asarray(b)
    c = np.empty((a.shape[0], b.shape[1]), dtype=np.float64)
    for _, cols, panel in _reduction_panels("c", a, b):
        c[:, cols] = panel
    return c


_ELEMENTWISE_OPS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "add": np.add,
    "multiply": np.multiply,
    "subtract": np.subtract,
}


def _reference_panels(program: "ProgramIR", env: Dict[str, np.ndarray]) -> _Panels:
    """The in-core NumPy oracle, streamed: every statement result in panels.

    Evaluates the statement list in order on ``env`` (array name -> dense
    data of any dtype); each panel is the consumer's to overwrite.  Only a
    result a later statement reads is also assembled densely, in ``env``,
    which drops every array after its last reader.
    """
    from repro.core.ir import ElementwiseStatement, ReductionStatement, TransposeStatement

    last_reader = {
        ref.array: index
        for index, statement in enumerate(program.statements)
        for ref in statement.operands
    }
    for index, statement in enumerate(program.statements):
        missing = [ref.array for ref in statement.operands if ref.array not in env]
        if missing:
            raise RuntimeExecutionError(
                f"program_reference is missing dense data for {sorted(set(missing))} "
                f"(statement {statement.describe()})"
            )
        name = statement.result.array
        if isinstance(statement, ReductionStatement):
            streamed = next(
                (
                    ref.array
                    for ref in statement.operands
                    if ref.full_range_dims() and ref.uses_index(statement.reduce_index)
                ),
                statement.operands[0].array,
            )
            others = [ref.array for ref in statement.operands if ref.array != streamed]
            coefficient = others[0] if others else streamed
            panels = _reduction_panels(name, env[streamed], env[coefficient])
        elif isinstance(statement, ElementwiseStatement):
            lhs, rhs = statement.operands
            panels = _elementwise_panels(
                name, _ELEMENTWISE_OPS[statement.op], env[lhs.array], env[rhs.array]
            )
        elif isinstance(statement, TransposeStatement):
            panels = _transpose_panels(name, env[statement.operand.array])
        else:
            raise RuntimeExecutionError(
                f"no reference evaluation for statement of type {type(statement).__name__}"
            )
        if last_reader.get(name, -1) > index:
            env[name] = np.empty(program.arrays[name].shape, dtype=np.float64)
            for _, cols, panel in panels:
                env[name][:, cols] = panel
                yield name, cols, panel
        else:
            yield from panels
        for operand in [n for n, reader in last_reader.items() if reader == index]:
            del env[operand]


def program_reference(
    program: "ProgramIR", inputs: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """The in-core NumPy oracle: evaluate the statement list on dense inputs.

    Returns the environment after the last statement — program inputs (cast to
    ``float64``) plus every statement result.  This is what the differential
    tests compare against; :func:`verify_outputs` folds over the same panels
    (:func:`_reference_panels`) without assembling them.
    """
    env = {name: _float64(value) for name, value in inputs.items()}
    for name in program.result_arrays():
        env[name] = np.empty(program.arrays[name].shape, dtype=np.float64)
    for name, cols, panel in _reference_panels(program, dict(inputs)):
        env[name][:, cols] = panel
    return env


def _statement_kind(compiled: "CompiledProgram") -> str:
    """Which engine (and which verification tolerance) a compiled statement gets."""
    from repro.core.analysis import FusedElementwisePhase
    from repro.core.ir import ElementwiseStatement, ReductionStatement, TransposeStatement

    if isinstance(compiled.analysis, FusedElementwisePhase):
        return "fused-elementwise"
    statement = compiled.program.statement
    if isinstance(statement, ReductionStatement):
        return "reduction"
    if isinstance(statement, ElementwiseStatement):
        return "elementwise"
    if isinstance(statement, TransposeStatement):
        return "transpose"
    raise RuntimeExecutionError(
        f"no executor for statement of type {type(statement).__name__}"
    )


#: the kinds compared with ``allclose`` (they report no ``max_abs_error``)
_ALLCLOSE_TOLERANCE = {"elementwise": 1e-4, "fused-elementwise": 1e-4, "transpose": 1e-5}


def _fold_panels(
    kind: str, panels: _Panels, outputs: Mapping[str, np.ndarray]
) -> Tuple[bool, Optional[float]]:
    """Compare gathered ``outputs`` with the oracle's reference ``panels``.

    The tolerance half of :func:`verify_outputs`, one panel at a time: a
    panel is overwritten with its own error, and only the verdict and each
    array's running maximum error and reference scale outlive it.
    Reductions and whole programs bound the maximum absolute error relative
    to the reference's scale and report it: ``1e-3`` for a lone reduction,
    and per array of a whole program ``1e-3`` for items of at most four
    bytes, ``1e-9`` above.  The maxima fold with ``np.maximum``: unlike
    ``max`` it keeps a NaN.
    """
    allclose = _ALLCLOSE_TOLERANCE.get(kind)
    close = True
    error = dict.fromkeys(outputs, 0.0)
    scale = dict.fromkeys(outputs, 0.0)
    unchecked = set(outputs)
    for name, cols, reference in panels:
        if name not in outputs:
            continue
        unchecked.discard(name)
        gathered = outputs[name][:, cols]
        if allclose is not None:
            close = close and bool(np.allclose(gathered, reference, rtol=allclose, atol=allclose))
            continue
        scale[name] = np.maximum(scale[name], np.maximum(reference.max(), -reference.min()))
        np.subtract(reference, gathered, out=reference)
        np.abs(reference, out=reference)
        error[name] = np.maximum(error[name], reference.max())
    if unchecked:
        raise RuntimeExecutionError(f"the oracle computes no array named {sorted(unchecked)}")
    if allclose is not None:
        return close, None
    verified = True
    for name, result in outputs.items():
        tolerance = 1e-3 if kind == "reduction" or result.dtype.itemsize <= 4 else 1e-9
        verified = verified and bool(error[name] <= tolerance * (scale[name] or 1.0))  # NaN fails
    return verified, float(np.max([0.0, *error.values()]))  # ... and is reported as NaN


def verify_outputs(
    compiled: "CompiledProgram | CompiledWholeProgram",
    inputs: "ReductionInputs | Mapping[str, np.ndarray]",
    outputs: Mapping[str, np.ndarray],
) -> Tuple[bool, Optional[float]]:
    """Whether what a run of ``compiled`` on ``inputs`` gathered is correct.

    The one oracle-and-tolerance routine behind every ``verified`` flag —
    the engines that run a compiled program, :class:`ProgramExecutor` and
    the distributed backend's parent all call it, so their records agree
    field for field.  ``outputs`` maps result array names to gathered dense
    data.  Every element of every output is compared with an independent
    float64 NumPy evaluation of the statement list on the dense inputs,
    streamed in column panels (:func:`_reference_panels`) so that it
    allocates the float64 copy of a reduction's streamed operand, the
    intermediates later statements still read and a constant number of
    panels — never a whole reference or difference.  Returns ``(verified,
    max_abs_error)`` under the statement kind's tolerance (:func:`_fold_panels`,
    which the two descriptor-driven engines call with their own oracle's
    panels).
    """
    from repro.core.pipeline import CompiledWholeProgram

    if isinstance(compiled, CompiledWholeProgram):
        kind = "program"
    else:
        kind = _statement_kind(compiled)
    if kind == "reduction":
        analysis = compiled.analysis
        env = {analysis.streamed: inputs.streamed, analysis.coefficient: inputs.coefficient}
    else:
        env = dict(inputs)
    return _fold_panels(kind, _reference_panels(compiled.program, env), outputs)


@dataclasses.dataclass
class ExecutionResult:
    """Outcome of running (or estimating) one compiled program.

    Whole-program runs additionally carry ``statements`` — one mapping of
    charged-cost deltas per statement — and ``outputs``, the gathered dense
    result of every statement (``EXECUTE`` mode only); ``result`` is then the
    final statement's output.
    """

    strategy: str
    mode: ExecutionMode
    simulated_seconds: float
    time_breakdown: Dict[str, float]
    io_statistics: Dict[str, float]
    result: Optional[np.ndarray] = None
    verified: Optional[bool] = None
    max_abs_error: Optional[float] = None
    statements: Tuple[Dict[str, float], ...] = ()
    outputs: Optional[Dict[str, np.ndarray]] = None
    #: host-side resilience counters of the run (retries, corruptions
    #: detected/recovered, statements skipped by a resume) — never part of
    #: the charged statistics; ``None`` for analytic estimates.
    resilience: Optional[Dict[str, float]] = None
    #: cumulative charge totals at each statement boundary of a
    #: whole-program run: ``{"elapsed", "time", "io"}`` per statement.  The
    #: distributed backend merges these across rank workers (field-wise max,
    #: the critical-path convention) and re-derives the per-statement deltas
    #: of ``statements`` bit-identically to the simulator.
    statement_totals: Tuple[Dict[str, object], ...] = ()

    def describe(self) -> str:
        lines = [
            f"{self.strategy} [{self.mode.value}]: {self.simulated_seconds:.2f} simulated seconds",
            f"  io={self.time_breakdown.get('io', 0.0):.2f}s "
            f"compute={self.time_breakdown.get('compute', 0.0):.2f}s "
            f"comm={self.time_breakdown.get('comm', 0.0):.2f}s",
            f"  I/O requests/proc={self.io_statistics.get('io_requests_per_proc', 0):.0f}",
        ]
        if self.verified is not None:
            lines.append(f"  verified: {self.verified}")
        return "\n".join(lines)


def _mode(vm: VirtualMachine) -> ExecutionMode:
    return ExecutionMode.EXECUTE if vm.perform_io else ExecutionMode.ESTIMATE


def _recovery_budget(vm: VirtualMachine, narrays: int) -> int:
    """Attempt budget of a corruption repair-and-retry loop.

    The injector's corruption supply is finite: each of the two corruption
    kinds (torn write, bit flip) fires at most ``max_failures_per_site``
    times per site, and a program touching ``narrays`` arrays on ``nprocs``
    processors has ``narrays * nprocs`` sites.  Every failed attempt
    consumes at least one injected corruption, so a budget covering the
    whole supply (plus the transient margin) provably converges.
    """
    budget = max(1, vm.config.io_retries + 4)
    injector = vm.fault_injector
    if injector is not None and injector.policy.active:
        budget += 2 * injector.policy.max_failures_per_site * vm.nprocs * narrays
    return budget


# ---------------------------------------------------------------------------
# shared reduction helpers
# ---------------------------------------------------------------------------
def _uniform_local_shape(descriptor: ArrayDescriptor) -> Tuple[int, int]:
    shapes = set(descriptor.local_shapes())
    if len(shapes) != 1:
        raise RuntimeExecutionError(
            f"the executable kernels require identical local shapes on every processor; "
            f"array {descriptor.name!r} has {sorted(shapes)} "
            "(choose an extent divisible by the number of processors)"
        )
    return next(iter(shapes))


def _column_owner_table(descriptor: ArrayDescriptor) -> Tuple[list, list]:
    """``(owner rank, owner-local column)`` per global column, built once per statement."""
    owners, local_cols = descriptor.owner_table(1)
    return owners.tolist(), local_cols.tolist()


def _column_blocks(
    c_desc: ArrayDescriptor,
    column_ranges: Sequence[Tuple[int, int]],
    c_lines_per_slab: Optional[int] = None,
) -> List[List[Tuple[int, int, int, int]]]:
    """The column blocks of a reduction, one list per range of result columns.

    A block ``(lo, hi, owner, local_lo)`` is a maximal run of global result
    columns ``lo:hi`` inside one of ``column_ranges`` (the columns of one
    coefficient slab) that one rank owns as the consecutive local columns
    ``local_lo:local_lo + hi - lo`` and — when the result is written in
    column slabs of ``c_lines_per_slab`` columns — that lie in one result
    slab.  Blocks end there because that is where the per-column schedule
    does something else than "steps, global sum": the owner's ``store_slab``
    is charged between the last column of a result slab and the next, and the
    summed block lands in one owner's buffer with one assignment.
    """
    owners, local_cols = c_desc.owner_table(1)
    cut = (np.diff(owners) != 0) | (np.diff(local_cols) != 1)
    if c_lines_per_slab is not None:
        cut |= np.diff(local_cols // c_lines_per_slab) != 0
    starts = np.flatnonzero(cut) + 1
    blocks = []
    for start, stop in column_ranges:
        inner = starts[(starts > start) & (starts < stop)].tolist()
        edges = [start, *inner, stop]
        blocks.append([
            (lo, hi, int(owners[lo]), int(local_cols[lo]))
            for lo, hi in zip(edges, edges[1:], strict=False)
            if hi > lo
        ])
    return blocks


def _reduce_column_block(
    vm: VirtualMachine,
    block: Tuple[int, int, int, int],
    steps: Dict[int, list],
    products: Dict[int, np.ndarray],
    first_col: int,
    buffers: Dict[int, np.ndarray],
    *,
    rows: int,
    itemsize: int,
) -> None:
    """Charge one column block, sum it and deliver it to its owner's buffer.

    ``products[rank][:, j - first_col]`` is the rank's contribution to global
    result column ``j`` (EXECUTE only); the summed ``rows x ncols`` block is
    assigned to the owner's local columns in ``buffers`` in one go.
    """
    lo, hi, owner, local_lo = block
    perform = vm.perform_io
    summed = vm.comm.global_sum_columns(
        {rank: products[rank][:, lo - first_col: hi - first_col] for rank in vm.ranks}
        if perform else None,
        steps,
        ncols=hi - lo,
        rows=rows,
        itemsize=itemsize,
        prefetch=vm.prefetch_policy,
    )
    if perform and owner in buffers:
        buffers[owner][:, local_lo: local_lo + hi - lo] = summed


def _plan_for(compiled: "CompiledProgram", strategy: SlabbingStrategy) -> "AccessPlan":
    """The compiled plan for ``strategy``, falling back through the decision."""
    if compiled.plan.strategy is strategy:
        return compiled.plan
    if compiled.decision is not None:
        return compiled.decision.candidate(strategy)
    return compiled.plan


def _require_distinct_operands(compiled: "CompiledProgram") -> None:
    """Guard the two-operand engines against single-operand programs.

    The conformal-distribution schedule assumes the coefficient's reduce
    dimension is local; with one array in both roles that does not hold, so
    those programs must go through :func:`run_reduction_single_operand`
    (which the dispatchers do automatically).
    """
    analysis = compiled.analysis
    if analysis.coefficient == analysis.streamed:
        raise RuntimeExecutionError(
            "the two-operand reduction engines need distinct streamed and "
            f"coefficient arrays; {analysis.streamed!r} plays both roles — "
            "use run_reduction_single_operand (or NodeProgramExecutor, "
            "which selects it automatically)"
        )


def _setup_reduction_arrays(
    vm: VirtualMachine,
    compiled: "CompiledProgram",
    inputs: Optional[ReductionInputs],
    result_order: str,
    streamed_order: str,
) -> Tuple[OutOfCoreArray, OutOfCoreArray, OutOfCoreArray]:
    analysis = compiled.analysis
    arrays = compiled.program.arrays
    s_desc = arrays[analysis.streamed]
    b_desc = arrays[analysis.coefficient]
    c_desc = arrays[analysis.result]
    for desc in (s_desc, b_desc, c_desc):
        _uniform_local_shape(desc)
    if c_desc.name in (s_desc.name, b_desc.name):
        raise RuntimeExecutionError(
            f"the result array {c_desc.name!r} aliases an operand; in-place "
            "reductions are not executable"
        )
    streamed_dense = inputs.streamed if inputs is not None else None
    coefficient_dense = inputs.coefficient if inputs is not None else None
    # ensure_array (not create_array): in a whole-program run an operand that
    # is a previous statement's result already lives in its LAFs and is reused.
    ooc_s = vm.ensure_array(s_desc, initial=streamed_dense, storage_order=streamed_order)
    if b_desc.name == s_desc.name:
        # Single-operand statement: one array plays both roles.
        ooc_b = ooc_s
    else:
        ooc_b = vm.ensure_array(b_desc, initial=coefficient_dense, storage_order="F")
    # No initial data: a new LAF is created zero-filled and the engine
    # overwrites every slab of its result.
    ooc_c = vm.ensure_array(c_desc, initial=None, storage_order=result_order)
    return ooc_s, ooc_b, ooc_c


def _finish_reduction(
    vm: VirtualMachine,
    compiled: "CompiledProgram",
    strategy: str,
    ooc_c: OutOfCoreArray,
    inputs: Optional[ReductionInputs],
    verify: bool,
) -> ExecutionResult:
    result_dense: Optional[np.ndarray] = None
    verified: Optional[bool] = None
    max_err: Optional[float] = None
    # A rank worker of the distributed backend (vm.rank set) owns only its
    # own local files — the parent gathers and verifies instead.
    if vm.perform_io and vm.rank is None:
        result_dense = vm.to_dense(ooc_c)
        if verify and inputs is not None:
            verified, max_err = verify_outputs(
                compiled, inputs, {ooc_c.descriptor.name: result_dense}
            )
    return ExecutionResult(
        strategy=strategy,
        mode=_mode(vm),
        simulated_seconds=vm.elapsed(),
        time_breakdown=vm.time_breakdown(),
        io_statistics=vm.io_statistics(),
        result=result_dense,
        verified=verified,
        max_abs_error=max_err,
    )


# ---------------------------------------------------------------------------
# reduction engine: column-slab version (Figure 9)
# ---------------------------------------------------------------------------
def run_reduction_column(
    vm: VirtualMachine,
    compiled: "CompiledProgram",
    inputs: Optional[ReductionInputs] = None,
    verify: bool = True,
) -> ExecutionResult:
    """Execute the column-slab (naive) out-of-core reduction node program."""
    _require_distinct_operands(compiled)
    analysis = compiled.analysis
    plan = _plan_for(compiled, SlabbingStrategy.COLUMN)
    s_entry = plan.entry(analysis.streamed)
    b_entry = plan.entry(analysis.coefficient)
    c_entry = plan.entry(analysis.result)

    ooc_s, ooc_b, ooc_c = _setup_reduction_arrays(vm, compiled, inputs,
                                                  result_order="F", streamed_order="F")
    s_desc, c_desc = ooc_s.descriptor, ooc_c.descriptor
    s_shape = _uniform_local_shape(s_desc)
    b_shape = _uniform_local_shape(ooc_b.descriptor)
    c_shape = _uniform_local_shape(c_desc)
    nprocs = vm.nprocs
    n_rows = c_desc.shape[0]
    itemsize = c_desc.itemsize

    s_slabs = column_slabs(s_shape, s_entry.lines_per_slab)
    b_slabs = column_slabs(b_shape, b_entry.lines_per_slab)
    c_slabs = column_slabs(c_shape, c_entry.lines_per_slab)
    blocks = _column_blocks(
        c_desc, [(slab.col_start, slab.col_stop) for slab in b_slabs], c_entry.lines_per_slab
    )

    perform = vm.perform_io
    c_buffers: Dict[int, np.ndarray] = {
        rank: np.zeros(c_shape, dtype=c_desc.dtype) for rank in vm.ranks
    } if perform else {}

    # What every result column charges each rank (Figure 9's inner loop):
    # re-stream each slab of the streamed array and multiply it in.
    steps = {
        rank: [
            step
            for s_slab in s_slabs
            for step in (ooc_s.local(rank).fetch_step(s_slab),
                         ("compute", 2.0 * s_slab.nelements))
        ]
        for rank in vm.ranks
    }

    # Fast path: the streamed array is read-only, so each slab is really read
    # once, into a float64 staging buffer; that read and every re-stream of
    # the slab are charged by the column blocks (identically to real
    # re-reads) and served from memory.  The arithmetic for all columns of a
    # coefficient slab is then one BLAS-3 GEMM per rank instead of ncols
    # BLAS-2 matvecs.
    a64: Dict[int, np.ndarray] = {}
    products64: Dict[int, np.ndarray] = {}
    if perform:
        max_b_cols = max(slab.ncols for slab in b_slabs)
        a64 = {rank: np.empty(s_shape, dtype=np.float64) for rank in vm.ranks}
        products64 = {
            rank: np.empty((n_rows, max_b_cols), dtype=np.float64) for rank in vm.ranks
        }
        for s_slab in s_slabs:
            for rank in vm.ranks:
                a64[rank][:, s_slab.col_slice] = ooc_s.local(rank).load_slab(s_slab)

    for b_slab, b_blocks in zip(b_slabs, blocks, strict=True):
        b_data = {rank: ooc_b.local(rank).fetch_slab(b_slab) for rank in vm.ranks}
        products: Dict[int, np.ndarray] = {}
        if perform:
            products = {
                rank: np.matmul(a64[rank], b_data[rank].astype(np.float64),
                                out=products64[rank][:, : b_slab.ncols])
                for rank in vm.ranks
            }
        for block in b_blocks:
            _reduce_column_block(vm, block, steps, products, b_slab.col_start, c_buffers,
                                 rows=n_rows, itemsize=itemsize)
            lo, hi, owner, local_lo = block
            c_slab = c_slabs[local_lo // c_entry.lines_per_slab]
            if local_lo + hi - lo < c_slab.col_stop:
                continue
            # the block completed a column slab of the result: its owner stores it
            if perform and owner in c_buffers:
                ooc_c.local(owner).store_slab(c_slab, c_buffers[owner][:, c_slab.col_slice])
            elif not perform:
                ooc_c.local(owner).store_slab(c_slab, None)

    return _finish_reduction(vm, compiled, "column-slab", ooc_c, inputs, verify)


# ---------------------------------------------------------------------------
# reduction engine: row-slab version (Figure 12)
# ---------------------------------------------------------------------------
def run_reduction_row(
    vm: VirtualMachine,
    compiled: "CompiledProgram",
    inputs: Optional[ReductionInputs] = None,
    verify: bool = True,
) -> ExecutionResult:
    """Execute the reorganized (row-slab) out-of-core reduction node program."""
    _require_distinct_operands(compiled)
    analysis = compiled.analysis
    plan = _plan_for(compiled, SlabbingStrategy.ROW)
    s_entry = plan.entry(analysis.streamed)
    b_entry = plan.entry(analysis.coefficient)

    ooc_s, ooc_b, ooc_c = _setup_reduction_arrays(vm, compiled, inputs,
                                                  result_order="C", streamed_order="C")
    s_desc, c_desc = ooc_s.descriptor, ooc_c.descriptor
    s_shape = _uniform_local_shape(s_desc)
    b_shape = _uniform_local_shape(ooc_b.descriptor)
    c_shape = _uniform_local_shape(c_desc)
    nprocs = vm.nprocs
    itemsize = c_desc.itemsize

    s_slabs = row_slabs(s_shape, s_entry.lines_per_slab)
    b_slabs = column_slabs(b_shape, b_entry.lines_per_slab)

    blocks = _column_blocks(c_desc, [(slab.col_start, slab.col_stop) for slab in b_slabs])

    perform = vm.perform_io

    # Preallocated per-rank GEMM output buffers, reused across every
    # (streamed slab, coefficient slab) pair.
    products64: Dict[int, np.ndarray] = {}
    if perform:
        max_s_rows = max(slab.nrows for slab in s_slabs)
        max_b_cols = max(slab.ncols for slab in b_slabs)
        products64 = {
            rank: np.empty((max_s_rows, max_b_cols), dtype=np.float64)
            for rank in vm.ranks
        }

    for s_slab in s_slabs:
        a_data = {rank: ooc_s.local(rank).fetch_slab(s_slab) for rank in vm.ranks}
        c_buffer: Dict[int, np.ndarray] = {}
        a64: Dict[int, np.ndarray] = {}
        if perform:
            # Hoisted conversions: one astype per fetched slab, not per column.
            a64 = {rank: a_data[rank].astype(np.float64) for rank in vm.ranks}
            c_buffer = {
                rank: np.zeros((s_slab.nrows, c_shape[1]), dtype=c_desc.dtype)
                for rank in vm.ranks
            }
        # What every result subcolumn charges each rank (Figure 12's inner
        # loop): multiply the resident row slab in.
        steps = {rank: [("compute", 2.0 * s_slab.nelements)] for rank in vm.ranks}
        for b_slab, b_blocks in zip(b_slabs, blocks, strict=True):
            b_data = {rank: ooc_b.local(rank).fetch_slab(b_slab) for rank in vm.ranks}
            products: Dict[int, np.ndarray] = {}
            if perform:
                # One BLAS-3 GEMM per rank covers every column of this
                # coefficient slab against the resident streamed slab.
                products = {
                    rank: np.matmul(a64[rank], b_data[rank].astype(np.float64),
                                    out=products64[rank][: s_slab.nrows, : b_slab.ncols])
                    for rank in vm.ranks
                }
            for block in b_blocks:
                _reduce_column_block(vm, block, steps, products, b_slab.col_start, c_buffer,
                                     rows=s_slab.nrows, itemsize=itemsize)
        # the row slab of the result is complete on every owner: flush it
        c_row_slab = Slab(
            index=s_slab.index,
            row_start=s_slab.row_start,
            row_stop=s_slab.row_stop,
            col_start=0,
            col_stop=c_shape[1],
        )
        for rank in vm.ranks:
            ooc_c.local(rank).store_slab(c_row_slab, c_buffer.get(rank) if perform else None)

    return _finish_reduction(vm, compiled, "row-slab", ooc_c, inputs, verify)


# ---------------------------------------------------------------------------
# reduction engine: in-core baseline
# ---------------------------------------------------------------------------
def run_reduction_incore(
    vm: VirtualMachine,
    compiled: "CompiledProgram",
    inputs: Optional[ReductionInputs] = None,
    verify: bool = True,
) -> ExecutionResult:
    """Execute the in-core baseline: read every local array once, keep it in memory."""
    _require_distinct_operands(compiled)
    analysis = compiled.analysis
    ooc_s, ooc_b, ooc_c = _setup_reduction_arrays(vm, compiled, inputs,
                                                  result_order="F", streamed_order="F")
    c_desc = ooc_c.descriptor
    c_shape = _uniform_local_shape(c_desc)
    nprocs = vm.nprocs
    n_rows = c_desc.shape[0]
    n_cols = c_desc.shape[1]
    itemsize = c_desc.itemsize
    perform = vm.perform_io

    a_data = {rank: ooc_s.local(rank).fetch_all() for rank in vm.ranks}
    b_data = {rank: ooc_b.local(rank).fetch_all() for rank in vm.ranks}
    c_local = {
        rank: np.zeros(c_shape, dtype=c_desc.dtype) for rank in vm.ranks
    } if perform else {}

    # One whole-local-array GEMM per rank; the column blocks below only
    # charge costs and run the global sums.
    products: Dict[int, np.ndarray] = {}
    if perform:
        products = {
            rank: a_data[rank].astype(np.float64) @ b_data[rank].astype(np.float64)
            for rank in vm.ranks
        }

    per_column_flops = analysis.flops_per_proc / max(n_cols, 1)
    steps = {rank: [("compute", per_column_flops)] for rank in vm.ranks}
    (blocks,) = _column_blocks(c_desc, [(0, n_cols)])
    for block in blocks:
        _reduce_column_block(vm, block, steps, products, 0, c_local,
                             rows=n_rows, itemsize=itemsize)

    for rank in vm.ranks:
        ooc_c.local(rank).store_all(c_local.get(rank) if perform else None)

    return _finish_reduction(vm, compiled, "in-core", ooc_c, inputs, verify)


# ---------------------------------------------------------------------------
# reduction engine: single-operand statements (c = a @ a)
# ---------------------------------------------------------------------------
def run_reduction_single_operand(
    vm: VirtualMachine,
    compiled: "CompiledProgram",
    inputs: Optional[ReductionInputs] = None,
    verify: bool = True,
) -> ExecutionResult:
    """Execute a reduction whose streamed and coefficient operands are one array.

    With ``a`` playing both roles its column distribution serves the streamed
    access, but the coefficient subcolumn ``a(K_p, j)`` each processor needs
    lives on the *owner* of column ``j`` — the conformal-distribution trick
    of the two-operand engines does not apply.  The executable schedule is
    therefore the reorganized one: every slab of ``a`` is read exactly once
    into a staged local copy, and for each result column the owner broadcasts
    its local column, every processor reduces its partial product, and the
    global sum lands on the owner of the result column.

    The charged I/O is one pass over ``a`` plus one write pass over the
    result; the broadcast traffic is charged per column.  (The analytic
    ESTIMATE path keeps the paper's re-read model for this degenerate case,
    so EXECUTE-mode charges are not comparable between the two modes.)
    """
    analysis = compiled.analysis
    plan = compiled.plan
    entry = plan.entry(analysis.streamed)
    c_entry = plan.entry(analysis.result)

    order = "F" if plan.strategy is SlabbingStrategy.COLUMN else "C"
    ooc_s, _, ooc_c = _setup_reduction_arrays(vm, compiled, inputs,
                                              result_order="F", streamed_order=order)
    s_desc, c_desc = ooc_s.descriptor, ooc_c.descriptor
    s_shape = _uniform_local_shape(s_desc)
    c_shape = _uniform_local_shape(c_desc)
    nprocs = vm.nprocs
    n_rows = c_desc.shape[0]
    n_cols = c_desc.shape[1]
    itemsize = c_desc.itemsize
    perform = vm.perform_io

    # One read pass: stage the full local part of `a` (float64) per rank.
    a64: Dict[int, np.ndarray] = {}
    if perform:
        a64 = {rank: np.empty(s_shape, dtype=np.float64) for rank in vm.ranks}
    for slab in make_slabs(s_shape, plan.strategy, entry.slab_elements):
        for rank in vm.ranks:
            data = ooc_s.local(rank).fetch_slab(slab)
            if perform:
                a64[rank][slab.row_slice, slab.col_slice] = data

    # Global column indices owned by each rank (the reduce dimension of `a`).
    owned_cols = {rank: s_desc.local_slices(rank)[1] for rank in vm.ranks}
    s_owner, s_local_col = _column_owner_table(s_desc)
    c_owner, c_local_col = _column_owner_table(c_desc)

    c_buffers: Dict[int, np.ndarray] = {
        rank: np.zeros(c_shape, dtype=c_desc.dtype) for rank in vm.ranks
    } if perform else {}
    c_slabs = column_slabs(c_shape, c_entry.lines_per_slab)
    c_slab_of_col = {}
    for slab in c_slabs:
        for col in range(slab.col_start, slab.col_stop):
            c_slab_of_col[col] = slab

    for j in range(n_cols):
        # The owner of column j of `a` broadcasts it; every rank slices the
        # rows matching its owned reduce indices and forms the partial.
        coeff_owner, coeff_local_j = s_owner[j], s_local_col[j]
        column_j = vm.comm.broadcast(
            coeff_owner,
            a64[coeff_owner][:, coeff_local_j]
            if perform and coeff_owner in a64 else None,
            shape=(s_desc.shape[0],),
            itemsize=itemsize,
        )
        contributions = None
        if perform:
            contributions = {
                rank: a64[rank] @ column_j[owned_cols[rank]] for rank in vm.ranks
            }
        for rank in vm.ranks:
            vm.charge_compute(rank, 2.0 * s_shape[0] * s_shape[1])
        column = vm.comm.global_sum(contributions, shape=(n_rows,), itemsize=itemsize)
        owner, local_j = c_owner[j], c_local_col[j]
        c_slab = c_slab_of_col[local_j]
        if perform and owner in c_buffers:
            c_buffers[owner][:, local_j] = column.astype(c_desc.dtype)
            if local_j == c_slab.col_stop - 1:
                ooc_c.local(owner).store_slab(c_slab, c_buffers[owner][:, c_slab.col_slice])
        elif not perform and local_j == c_slab.col_stop - 1:
            ooc_c.local(owner).store_slab(c_slab, None)

    return _finish_reduction(vm, compiled, f"{plan.strategy.value}-slab single-operand",
                             ooc_c, inputs, verify)


# ---------------------------------------------------------------------------
# elementwise engine
# ---------------------------------------------------------------------------
def run_elementwise_plan(
    vm: VirtualMachine,
    a_desc: ArrayDescriptor,
    b_desc: ArrayDescriptor,
    c_desc: ArrayDescriptor,
    *,
    op: Callable[[np.ndarray, np.ndarray], np.ndarray],
    slab_elements: int,
    strategy: SlabbingStrategy | str = SlabbingStrategy.COLUMN,
    a_dense: Optional[np.ndarray] = None,
    b_dense: Optional[np.ndarray] = None,
    verify: bool = True,
) -> ExecutionResult:
    """Compute ``c = op(a, b)`` out of core, slab by slab.

    All three descriptors must conform (shape, dtype, distribution); the
    dense inputs are required in ``EXECUTE`` mode and ignored otherwise.
    """
    strategy = SlabbingStrategy.from_name(strategy)
    if a_desc.ndim != 2:
        raise RuntimeExecutionError("the elementwise engine handles two-dimensional arrays")

    order = "F" if strategy is SlabbingStrategy.COLUMN else "C"
    ooc_a = vm.ensure_array(a_desc, initial=a_dense, storage_order=order)
    ooc_b = vm.ensure_array(b_desc, initial=b_dense, storage_order=order)
    ooc_c = vm.ensure_array(c_desc, initial=None, storage_order=order)

    flops_per_element = 1.0
    for rank in vm.ranks:
        local_shape = a_desc.local_shape(rank)
        for slab in make_slabs(local_shape, strategy, slab_elements):
            a_block = ooc_a.local(rank).fetch_slab(slab)
            b_block = ooc_b.local(rank).fetch_slab(slab)
            vm.charge_compute(rank, flops_per_element * slab.nelements)
            if vm.perform_io:
                ooc_c.local(rank).store_slab(slab, op(a_block, b_block).astype(c_desc.dtype))
            else:
                ooc_c.local(rank).store_slab(slab, None)

    result = vm.to_dense(ooc_c) if vm.perform_io and vm.rank is None else None
    verified: Optional[bool] = None
    if verify and result is not None and a_dense is not None and b_dense is not None:
        # This engine is handed descriptors and ``op``, not a compiled
        # program: ``op`` in float64 is its oracle.
        panels = _elementwise_panels(c_desc.name, op, np.asarray(a_dense), np.asarray(b_dense))
        verified, _ = _fold_panels("elementwise", panels, {c_desc.name: result})
    return ExecutionResult(
        strategy=f"{strategy.value}-slab elementwise",
        mode=_mode(vm),
        simulated_seconds=vm.elapsed(),
        time_breakdown=vm.time_breakdown(),
        io_statistics=vm.io_statistics(),
        result=result,
        verified=verified,
    )


# ---------------------------------------------------------------------------
# fused elementwise engine
# ---------------------------------------------------------------------------
def run_fused_elementwise_plan(
    vm: VirtualMachine,
    compiled: "CompiledProgram",
    inputs: Optional[Dict[str, np.ndarray]] = None,
    verify: bool = True,
) -> ExecutionResult:
    """Execute a fused elementwise pair: the intermediate never touches disk.

    One slab loop runs both statements' per-slab work: the producer's result
    slab is computed into a resident buffer and handed straight to the
    consumer's compute, so the intermediate array gets no Local Array Files,
    no write pass and no read pass — in ``EXECUTE`` *and* ``ESTIMATE`` mode
    alike, which is what keeps the two modes' charged counters identical.
    The resident slab is cast to the intermediate's declared dtype before the
    consumer uses it, reproducing the unfused schedule's rounding exactly.
    """
    from repro.core.analysis import FusedElementwisePhase

    analysis = compiled.analysis
    if not isinstance(analysis, FusedElementwisePhase):
        raise RuntimeExecutionError(
            "run_fused_elementwise_plan needs a fused elementwise unit; got "
            f"analysis of type {type(analysis).__name__}"
        )
    plan = compiled.plan
    arrays = compiled.program.arrays
    producer, consumer = analysis.producer, analysis.consumer
    p_lhs, p_rhs = producer.operands
    mid = analysis.intermediate
    result = analysis.result
    mid_is_lhs = consumer.operands[0] == mid
    other = consumer.operands[1] if mid_is_lhs else consumer.operands[0]
    p_op = _ELEMENTWISE_OPS[producer.op]
    c_op = _ELEMENTWISE_OPS[consumer.op]
    dense = dict(inputs or {})
    strategy = plan.strategy
    order = "F" if strategy is SlabbingStrategy.COLUMN else "C"

    ooc: Dict[str, OutOfCoreArray] = {}
    for name in (p_lhs, p_rhs, other):
        if name not in ooc:
            ooc[name] = vm.ensure_array(
                arrays[name], initial=dense.get(name), storage_order=order
            )
    result_desc = arrays[result]
    ooc[result] = vm.ensure_array(result_desc, initial=None, storage_order=order)

    mid_dtype = arrays[mid].dtype
    slab_elements = plan.allocation[result]
    for rank in vm.ranks:
        local_shape = result_desc.local_shape(rank)
        for slab in make_slabs(local_shape, strategy, slab_elements):
            a_block = ooc[p_lhs].local(rank).fetch_slab(slab)
            b_block = ooc[p_rhs].local(rank).fetch_slab(slab)
            vm.charge_compute(rank, 1.0 * slab.nelements)
            mid_block = (
                p_op(a_block, b_block).astype(mid_dtype) if vm.perform_io else None
            )
            o_block = ooc[other].local(rank).fetch_slab(slab)
            vm.charge_compute(rank, 1.0 * slab.nelements)
            if vm.perform_io:
                out = c_op(mid_block, o_block) if mid_is_lhs else c_op(o_block, mid_block)
                ooc[result].local(rank).store_slab(slab, out.astype(result_desc.dtype))
            else:
                ooc[result].local(rank).store_slab(slab, None)

    result_dense = vm.to_dense(ooc[result]) if vm.perform_io and vm.rank is None else None
    verified: Optional[bool] = None
    if verify and result_dense is not None and {p_lhs, p_rhs, other} <= set(dense):
        verified, _ = verify_outputs(compiled, dense, {result: result_dense})
    return ExecutionResult(
        strategy=f"fused {strategy.value}-slab elementwise",
        mode=_mode(vm),
        simulated_seconds=vm.elapsed(),
        time_breakdown=vm.time_breakdown(),
        io_statistics=vm.io_statistics(),
        result=result_dense,
        verified=verified,
    )


# ---------------------------------------------------------------------------
# transpose engine
# ---------------------------------------------------------------------------
def run_transpose_plan(
    vm: VirtualMachine,
    src_desc: ArrayDescriptor,
    dst_desc: ArrayDescriptor,
    *,
    cols_per_slab: int,
    a_dense: Optional[np.ndarray] = None,
    verify: bool = True,
) -> ExecutionResult:
    """Compute ``dst = src^T`` out of core with both arrays column-block distributed.

    Each processor streams its local columns of the source in slabs, the rows
    of each slab destined for processor ``q`` form the exchange payload
    (all-to-all), and ``q`` writes the transposed piece into its local
    columns of the target.
    """
    if src_desc.ndim != 2 or src_desc.shape[0] != src_desc.shape[1]:
        raise RuntimeExecutionError("the transpose engine handles square two-dimensional arrays")
    nprocs = vm.nprocs
    itemsize = src_desc.itemsize

    source = vm.ensure_array(src_desc, initial=a_dense, storage_order="F")
    target = vm.ensure_array(dst_desc, initial=None, storage_order="F")

    result_locals: Dict[int, np.ndarray] = {}
    if vm.perform_io:
        result_locals = {
            rank: np.zeros(dst_desc.local_shape(rank), dtype=dst_desc.dtype)
            for rank in vm.ranks
        }

    # Hoisted out of the slab loops: rank r's local column c of src is global
    # column src_cols[r][c], and the rows of src that rank q needs are its
    # global columns of dst (a slice; an index array under CYCLIC(k)).
    all_cols = np.arange(src_desc.shape[1])
    src_cols = [all_cols[src_desc.local_slices(rank)[1]] for rank in range(nprocs)]
    dst_cols = [dst_desc.local_slices(rank)[1] for rank in range(nprocs)]

    for src in range(nprocs):
        local_shape = src_desc.local_shape(src)
        for slab in column_slabs(local_shape, cols_per_slab):
            # Only the slab's owner reads it (and is charged for the read); a
            # rank worker still walks every source rank's slabs so the
            # all-to-all charges and exchanges stay in lockstep across ranks.
            block = source.local(src).fetch_slab(slab) if src in vm.ranks else None
            # exchange: every other processor receives the rows it owns as columns of dst
            payload_bytes = slab.nbytes(itemsize) // max(nprocs, 1)
            vm.comm.charge_all_to_all(payload_bytes)
            if not vm.perform_io:
                continue
            global_cols = src_cols[src][slab.col_start:slab.col_stop]
            # Columns of dst owned by ``dest`` correspond to global rows of
            # src with the same indices; the slab contributes
            # dst[g, j] = src[j, g] for every global column g in the slab
            # and every j on ``dest``.
            pieces = {
                dest: block[dst_cols[dest], :] for dest in range(nprocs)
            } if block is not None else None
            delivered = vm.comm.scatter(src, pieces)
            for dest, piece in delivered.items():
                # piece has shape (|dest columns|, |slab columns|)
                result_locals[dest][global_cols, :] = piece.T

    # write the transposed local arrays slab by slab
    for rank in vm.ranks:
        local_shape = dst_desc.local_shape(rank)
        for slab in column_slabs(local_shape, cols_per_slab):
            if vm.perform_io:
                target.local(rank).store_slab(
                    slab, result_locals[rank][slab.row_slice, slab.col_slice]
                )
            else:
                target.local(rank).store_slab(slab, None)

    result = vm.to_dense(target) if vm.perform_io and vm.rank is None else None
    verified: Optional[bool] = None
    if verify and result is not None and a_dense is not None:
        # Descriptors, not a compiled program: the oracle is NumPy's transpose.
        panels = _transpose_panels(dst_desc.name, np.asarray(a_dense))
        verified, _ = _fold_panels("transpose", panels, {dst_desc.name: result})
    return ExecutionResult(
        strategy="column-slab transpose",
        mode=_mode(vm),
        simulated_seconds=vm.elapsed(),
        time_breakdown=vm.time_breakdown(),
        io_statistics=vm.io_statistics(),
        result=result,
        verified=verified,
    )


# ---------------------------------------------------------------------------
# the dispatching executor
# ---------------------------------------------------------------------------
class NodeProgramExecutor:
    """Runs or estimates compiled programs of any statement kind."""

    def __init__(self, compiled: "CompiledProgram"):
        self.compiled = compiled

    # ------------------------------------------------------------------
    # mode-honoring interpretation of the compiled plan
    # ------------------------------------------------------------------
    def run(
        self,
        vm: VirtualMachine,
        inputs: Optional[object] = None,
        verify: bool = True,
        recover: bool = True,
    ) -> ExecutionResult:
        """Drive ``vm`` through the compiled plan's slab loops.

        Honors the virtual machine's execution mode: in ``EXECUTE`` mode the
        arithmetic and file traffic are real; in ``ESTIMATE`` mode the same
        loops run charge-only.  ``inputs`` is a :class:`ReductionInputs` for
        reduction programs or a mapping of array name to dense operand for
        elementwise/transpose programs (``None`` generates nothing — required
        only for verified ``EXECUTE`` runs).

        When a fault injector is active and ``recover`` is true (the
        default), a mid-statement checksum mismatch triggers a
        charge-neutral re-execution: charges are restored to the
        pre-statement snapshot so the retried statement is charged exactly
        once.  :class:`ProgramExecutor` passes ``recover=False`` — it owns
        recovery across statements (it can regenerate corrupted
        intermediates from their producers, which a single statement
        cannot).
        """
        if not (recover and vm.perform_io and vm.fault_injector is not None):
            return self._run_once(vm, inputs, verify)
        budget = _recovery_budget(vm, len(self.compiled.program.arrays))
        attempts = 0
        while True:
            snapshot = vm.snapshot_charges()
            try:
                if attempts == 0:
                    return self._run_once(vm, inputs, verify)
                # A retry finds the statement's arrays already created; the
                # reuse scope lets the engines overwrite them in place.
                with vm.array_reuse():
                    result = self._run_once(vm, inputs, verify)
                vm.resilience.statements_recovered += 1
                return result
            except SlabCorruptionError:
                attempts += 1
                vm.resilience.corruptions_detected += 1
                vm.restore_charges(snapshot)
                if attempts >= budget:
                    raise
                vm.resilience.slabs_recovered += 1

    def _run_once(
        self,
        vm: VirtualMachine,
        inputs: Optional[object] = None,
        verify: bool = True,
    ) -> ExecutionResult:
        kind = _statement_kind(self.compiled)
        if kind == "reduction":
            return self._run_reduction(vm, inputs, verify)
        if kind == "elementwise":
            return self._run_elementwise(vm, inputs, verify)
        if kind == "fused-elementwise":
            return run_fused_elementwise_plan(
                vm, self.compiled, dict(inputs or {}), verify
            )
        return self._run_transpose(vm, inputs, verify)

    def _run_reduction(self, vm, inputs, verify) -> ExecutionResult:
        if inputs is not None and not isinstance(inputs, ReductionInputs):
            raise RuntimeExecutionError(
                "execute expects ReductionInputs for reduction-class programs"
            )
        compiled = self.compiled
        if compiled.analysis.coefficient == compiled.analysis.streamed:
            return run_reduction_single_operand(vm, compiled, inputs, verify)
        if compiled.plan.strategy is SlabbingStrategy.ROW:
            return run_reduction_row(vm, compiled, inputs, verify)
        return run_reduction_column(vm, compiled, inputs, verify)

    def _run_elementwise(self, vm, inputs, verify) -> ExecutionResult:
        compiled = self.compiled
        analysis = compiled.analysis
        arrays = compiled.program.arrays
        dense = dict(inputs or {})
        lhs, rhs = analysis.operands
        return run_elementwise_plan(
            vm,
            arrays[lhs],
            arrays[rhs],
            arrays[analysis.result],
            op=_ELEMENTWISE_OPS[analysis.op],
            slab_elements=compiled.plan.allocation[analysis.result],
            strategy=compiled.plan.strategy,
            a_dense=dense.get(lhs),
            b_dense=dense.get(rhs),
            verify=verify,
        )

    def _run_transpose(self, vm, inputs, verify) -> ExecutionResult:
        compiled = self.compiled
        analysis = compiled.analysis
        arrays = compiled.program.arrays
        dense = dict(inputs or {})
        return run_transpose_plan(
            vm,
            arrays[analysis.source],
            arrays[analysis.target],
            cols_per_slab=compiled.plan.entry(analysis.source).lines_per_slab,
            a_dense=dense.get(analysis.source),
            verify=verify,
        )

    # ------------------------------------------------------------------
    # real execution
    # ------------------------------------------------------------------
    def execute(
        self,
        vm: VirtualMachine,
        inputs: Optional[object] = None,
        verify: bool = True,
    ) -> ExecutionResult:
        """Execute the compiled program on ``vm`` (which must be in EXECUTE mode)."""
        if not vm.perform_io:
            raise RuntimeExecutionError(
                "NodeProgramExecutor.execute needs a VirtualMachine in EXECUTE mode; "
                "use estimate() for analytic runs"
            )
        return self.run(vm, inputs, verify)

    # ------------------------------------------------------------------
    # analytic estimation
    # ------------------------------------------------------------------
    def estimate(self, machine: Optional[Machine] = None) -> ExecutionResult:
        """Charge a machine with the node program's statically counted operations.

        Reduction programs are charged in bulk from the generated node
        program's operation totals (the paper-scale fast path).  Elementwise
        and transpose programs run their slab loops in charge-only mode on a
        fresh ``ESTIMATE``-mode virtual machine, because their loop structure
        is the cost model; pass a VM to :meth:`run` instead to control the
        run configuration.
        """
        if _statement_kind(self.compiled) != "reduction":
            if machine is not None:
                raise RuntimeExecutionError(
                    "bulk estimation applies to reduction programs only; drive "
                    "run() with an ESTIMATE-mode VirtualMachine instead"
                )
            vm = VirtualMachine(
                self.compiled.nprocs,
                self.compiled.params,
                RunConfig(mode=ExecutionMode.ESTIMATE),
            )
            return self.run(vm, None, verify=False)

        compiled = self.compiled
        machine = machine or Machine(compiled.nprocs, compiled.params)
        totals = compiled.node_program.operation_totals()
        itemsize = compiled.program.arrays[compiled.analysis.streamed].itemsize

        arrays = compiled.program.arrays
        for name in compiled.analysis.access:
            read_requests = totals.get(f"read_requests:{name}", 0.0)
            read_elements = totals.get(f"read_elements:{name}", 0.0)
            write_requests = totals.get(f"write_requests:{name}", 0.0)
            write_elements = totals.get(f"write_elements:{name}", 0.0)
            item = arrays[name].itemsize
            for rank in range(machine.nprocs):
                if read_requests or read_elements:
                    machine.charge_read(rank, int(read_elements * item), int(round(read_requests)))
                if write_requests or write_elements:
                    machine.charge_write(rank, int(write_elements * item), int(round(write_requests)))

        flops = totals.get("flops", 0.0)
        for rank in range(machine.nprocs):
            machine.charge_compute(rank, flops)

        # Collectives are charged in bulk: the per-collective time multiplied by
        # the statically counted number of global sums.
        count = totals.get("global_sums", 0.0)
        if count and machine.nprocs > 1:
            elements_each = totals.get("global_sum_elements", 0.0) / count
            payload = elements_each * itemsize
            per_collective = machine.params.network.reduce_time(
                payload, machine.nprocs, nelements=elements_each
            )
            rounds = machine.params.network.collective_rounds(machine.nprocs)
            seconds = count * per_collective
            machine.network.collectives += int(count)
            machine.network.messages += int(count * rounds)
            machine.network.bytes_moved += int(count * rounds * payload)
            machine.network.busy_time += seconds
            for rank in range(machine.nprocs):
                machine.metrics[rank].record_collective(int(count * rounds), int(count * rounds * payload))
                machine.clocks[rank].advance(seconds, "comm")

        breakdown = machine.time_breakdown()
        return ExecutionResult(
            strategy=compiled.node_program.strategy,
            mode=ExecutionMode.ESTIMATE,
            simulated_seconds=machine.elapsed(),
            time_breakdown=breakdown,
            io_statistics=machine.io_statistics(),
        )


# ---------------------------------------------------------------------------
# the whole-program executor
# ---------------------------------------------------------------------------
class ProgramExecutor:
    """Runs or estimates a compiled multi-statement program on one machine.

    Statements execute in order on one :class:`VirtualMachine`, so out-of-core
    arrays persist between them: an intermediate produced by statement *k*
    stays in the Local Array Files its producer wrote and statement *k+1*
    reads it from there directly — its I/O is charged exactly once per pass
    (one write by the producer, one read by the consumer) and the data is
    never regenerated or re-scattered.

    Both modes drive the same per-statement slab loops through
    :class:`NodeProgramExecutor` (``ESTIMATE`` runs them charge-only), so the
    charged I/O counters of the two modes are identical by construction.
    """

    def __init__(self, compiled: "CompiledWholeProgram"):
        self.compiled = compiled

    # ------------------------------------------------------------------
    def _statement_inputs(self, compiled_statement: "CompiledProgram",
                          dense: Dict[str, np.ndarray]):
        """Per-statement inputs: dense data for program inputs only.

        Operands that are earlier results resolve to ``None`` here — the
        engines find their arrays already present in the VM (``ensure_array``)
        and read the producer's LAFs instead of scattering fresh data.
        """
        from repro.core.ir import ReductionStatement

        unit_ir = compiled_statement.program
        statements = unit_ir.statements
        if len(statements) == 1 and isinstance(statements[0], ReductionStatement):
            analysis = compiled_statement.analysis
            return ReductionInputs(
                streamed=dense.get(analysis.streamed),
                coefficient=dense.get(analysis.coefficient),
            )
        # A fused unit spans two statements; the union of their operands
        # covers both (the fused-away intermediate is never in ``dense``).
        return {
            ref.array: dense[ref.array]
            for statement in statements
            for ref in statement.operands
            if ref.array in dense
        }

    # ------------------------------------------------------------------
    def run(
        self,
        vm: VirtualMachine,
        inputs: Optional[Dict[str, np.ndarray]] = None,
        verify: bool = True,
        collect_outputs: Optional[bool] = None,
    ) -> ExecutionResult:
        """Drive ``vm`` through every statement's slab loops, in order.

        Honors the virtual machine's execution mode.  ``inputs`` maps the
        *program input* arrays to dense data (required for ``EXECUTE`` runs;
        ignored in ``ESTIMATE`` mode).  Verification compares every statement
        result against the in-core NumPy oracle (:func:`program_reference`).

        ``collect_outputs`` controls how much is gathered densely in
        ``EXECUTE`` mode: when true, every statement result (intermediates
        included) lands in ``ExecutionResult.outputs``; when false, only the
        final statement's result is gathered.  The default follows ``verify``
        (verification needs everything; an unverified run skips the extra
        read pass over the intermediates).
        """
        program = self.compiled.program
        dense = dict(inputs or {})
        if vm.perform_io:
            missing = [name for name in program.input_arrays() if name not in dense]
            if missing:
                raise RuntimeExecutionError(
                    f"EXECUTE-mode program runs need dense data for every program "
                    f"input; missing {missing}"
                )

        # Checkpointing: adopt (or start) the journal in the VM scratch dir.
        # A journal left by an earlier killed run of the *same* program (same
        # fingerprint) yields a resume point; anything else starts at 0.
        journal = vm.journal if vm.perform_io else None
        resume_from = 0
        if journal is not None:
            journal.begin(program_fingerprint(self.compiled))
            resume_from = self._validate_checkpoint(vm, journal)

        per_statement = []
        statement_totals = []
        previous_time = vm.time_breakdown()
        previous_io = vm.io_statistics()
        previous_elapsed = vm.elapsed()
        with vm.array_reuse():
            for index, compiled_statement in enumerate(self.compiled.statements):
                if index < resume_from:
                    # Completed by the checkpointed run: its result LAFs were
                    # re-validated and restored; nothing is charged.
                    per_statement.append({"seconds": 0.0, "skipped": 1.0})
                    statement_totals.append({
                        "elapsed": previous_elapsed,
                        "time": dict(previous_time),
                        "io": dict(previous_io),
                        "skipped": 1.0,
                    })
                    vm.resilience.statements_skipped += 1
                    continue
                statement_inputs = self._statement_inputs(compiled_statement, dense)
                self._run_statement_resilient(
                    vm, compiled_statement, statement_inputs, dense
                )
                time_now = vm.time_breakdown()
                io_now = vm.io_statistics()
                elapsed_now = vm.elapsed()
                breakdown = {"seconds": elapsed_now - previous_elapsed}
                breakdown.update(
                    {key: time_now[key] - previous_time.get(key, 0.0) for key in time_now}
                )
                breakdown.update(
                    {key: io_now[key] - previous_io.get(key, 0.0) for key in io_now}
                )
                per_statement.append(breakdown)
                statement_totals.append({
                    "elapsed": elapsed_now,
                    "time": dict(time_now),
                    "io": dict(io_now),
                })
                previous_time, previous_io, previous_elapsed = time_now, io_now, elapsed_now
                if journal is not None:
                    self._commit_statement(vm, journal, index, compiled_statement)
                    self._maybe_crash(vm, journal)
        if journal is not None:
            journal.mark_complete()

        # Verification always needs every result; otherwise honor the caller.
        collect = verify or bool(collect_outputs)
        outputs: Optional[Dict[str, np.ndarray]] = None
        result_dense: Optional[np.ndarray] = None
        verified: Optional[bool] = None
        max_err: Optional[float] = None
        if vm.perform_io and vm.rank is None:
            # Fused-away intermediates never materialize — there is no LAF to
            # gather or verify; the fused result itself still gets both.
            fused_away = {
                name for step in self.compiled.schedule.steps for name in step.fused
            }
            materialized = tuple(
                name for name in program.result_arrays() if name not in fused_away
            )
            gather = materialized if collect else materialized[-1:]
            outputs = {name: vm.to_dense(name) for name in gather}
            result_dense = outputs[materialized[-1]]
            if verify:
                verified, max_err = verify_outputs(self.compiled, dense, outputs)

        strategies = "+".join(
            compiled.plan.strategy.value for compiled in self.compiled.statements
        )
        return ExecutionResult(
            strategy=f"program[{strategies}]",
            mode=_mode(vm),
            simulated_seconds=vm.elapsed(),
            time_breakdown=vm.time_breakdown(),
            io_statistics=vm.io_statistics(),
            result=result_dense,
            verified=verified,
            max_abs_error=max_err,
            statements=tuple(per_statement),
            outputs=outputs,
            resilience=vm.resilience.as_dict() if vm.perform_io else None,
            statement_totals=tuple(statement_totals),
        )

    # ------------------------------------------------------------------
    # resilience: recovery, checkpointing, resume validation
    # ------------------------------------------------------------------
    def _result_array(self, compiled_statement: "CompiledProgram") -> str:
        # A fused unit's program holds two statements; the unit's materialized
        # result is the last one's (the fused intermediate never hits disk).
        return compiled_statement.program.statements[-1].result.array

    def _producer_index(self, name: str) -> Optional[int]:
        for index, compiled_statement in enumerate(self.compiled.statements):
            if self._result_array(compiled_statement) == name:
                return index
        return None

    def _run_statement_resilient(
        self,
        vm: VirtualMachine,
        compiled_statement: "CompiledProgram",
        statement_inputs,
        dense: Dict[str, np.ndarray],
    ) -> None:
        """Run one statement; detect and recover slab corruption charge-neutrally.

        Every attempt is bracketed by a charge snapshot: on a checksum
        failure the charges roll back, the corrupted array is repaired
        (re-executed producer for an intermediate, re-scattered dense data
        for a program input, nothing for the statement's own result — the
        retry overwrites it), and the statement re-runs.  A successful run
        therefore charges the machine exactly once, bit-identical to a
        fault-free run.
        """
        if not vm.perform_io:
            NodeProgramExecutor(compiled_statement).run(
                vm, statement_inputs, verify=False, recover=False
            )
            return
        verify_boundary = vm.config.checksums
        budget = _recovery_budget(vm, len(self.compiled.program.arrays))
        attempts = 0
        pending: Optional[SlabCorruptionError] = None
        while True:
            snapshot = vm.snapshot_charges()
            try:
                if pending is not None:
                    self._repair(vm, pending, compiled_statement, dense)
                    pending = None
                NodeProgramExecutor(compiled_statement).run(
                    vm, statement_inputs, verify=False, recover=False
                )
                if verify_boundary:
                    self._verify_statement_results(vm, compiled_statement)
                if attempts:
                    vm.resilience.statements_recovered += 1
                return
            except SlabCorruptionError as exc:
                attempts += 1
                vm.resilience.corruptions_detected += 1
                vm.restore_charges(snapshot)
                if attempts >= budget:
                    raise
                pending = exc

    def _repair(
        self,
        vm: VirtualMachine,
        error: SlabCorruptionError,
        compiled_statement: "CompiledProgram",
        dense: Dict[str, np.ndarray],
    ) -> None:
        """Restore the corrupted array named by ``error`` to valid data.

        Three cases: the statement's own result (nothing to do — the retry
        overwrites it), an intermediate (re-execute its producer statement,
        charge-neutrally), or a program input (re-scatter the dense data).
        """
        name = error.array
        vm.resilience.slabs_recovered += 1
        if not name or name == self._result_array(compiled_statement):
            return
        producer = self._producer_index(name)
        if producer is not None:
            producer_statement = self.compiled.statements[producer]
            producer_inputs = self._statement_inputs(producer_statement, dense)
            snapshot = vm.snapshot_charges()
            try:
                NodeProgramExecutor(producer_statement).run(
                    vm, producer_inputs, verify=False, recover=False
                )
            finally:
                # Regeneration is pure recovery: the program already paid for
                # this statement once; the simulated machine never sees it.
                vm.restore_charges(snapshot)
            return
        if name in dense and name in vm.arrays:
            scattered = vm.arrays[name].descriptor.scatter(dense[name])
            for rank, ocla in vm.arrays[name].locals.items():
                ocla.laf.write_full(scattered[rank])
            return
        raise error

    def _verify_statement_results(
        self, vm: VirtualMachine, compiled_statement: "CompiledProgram"
    ) -> None:
        """Statement-boundary integrity check of the freshly written result.

        Catches write-time corruption (torn/bit-flipped slabs) *before* the
        statement commits to the journal, so a checkpoint never records a
        corrupt LAF as completed.
        """
        name = self._result_array(compiled_statement)
        array = vm.arrays.get(name)
        if array is None:
            return
        for ocla in array:
            ocla.laf.verify_checksums()

    def _commit_statement(
        self,
        vm: VirtualMachine,
        journal,
        index: int,
        compiled_statement: "CompiledProgram",
    ) -> None:
        """Flush the statement's result LAFs and journal it as completed."""
        name = self._result_array(compiled_statement)
        array = vm.arrays.get(name)
        if array is None:  # pragma: no cover - every engine registers its result
            return
        files = []
        for rank in sorted(array.locals):
            laf = array.locals[rank].laf
            laf.flush()
            laf.sync_manifest()
            files.append({
                "rank": rank,
                "path": str(laf.path),
                "manifest": str(laf.manifest.path) if laf.manifest is not None else None,
                "order": laf.order,
            })
        journal.commit_statement(
            index,
            "; ".join(s.describe() for s in compiled_statement.program.statements),
            {
                name: {
                    "files": files,
                    "shape": [int(v) for v in array.descriptor.shape],
                    "dtype": np.dtype(array.descriptor.dtype).name,
                }
            },
        )

    def _maybe_crash(self, vm: VirtualMachine, journal) -> None:
        """Test hook: SIGKILL this process once N statements are journaled."""
        injector = vm.fault_injector
        if injector is None:
            return
        crash_rank = getattr(injector.policy, "crash_rank", None)
        if crash_rank is not None and vm.rank != crash_rank:
            # The crash is pinned to one rank worker of the distributed
            # backend; every other process survives.
            return
        target = injector.policy.crash_after_statement
        if target is not None and len(journal.entries) >= target:
            os.kill(os.getpid(), signal.SIGKILL)

    def _validate_checkpoint(self, vm: VirtualMachine, journal) -> int:
        """Re-validate journaled statements; restore their arrays into ``vm``.

        Walks the committed entries in order, checking that every recorded
        LAF still exists with the right size and that its slab checksums
        verify.  The first entry that fails truncates the journal there —
        that statement and everything after it re-executes.  Returns the
        index of the first statement to (re-)execute.
        """
        valid = 0
        restored: Dict[str, OutOfCoreArray] = {}
        for position, entry in enumerate(journal.entries):
            if entry.get("index") != position:
                break
            try:
                arrays = {
                    name: self._restore_array(vm, name, meta)
                    for name, meta in entry.get("arrays", {}).items()
                }
            except (SlabCorruptionError, ValueError, OSError, KeyError):
                break
            restored.update(arrays)
            valid = position + 1
        journal.truncate(valid)
        vm.arrays.update(restored)
        return valid

    def _restore_array(self, vm: VirtualMachine, name: str, meta) -> OutOfCoreArray:
        """Reopen one journaled array's LAFs, verifying checksums."""
        existing = vm.arrays.get(name)
        if existing is not None:
            # Same-process re-run: the array is already open; just re-audit it.
            for ocla in existing:
                ocla.laf.verify_checksums()
            return existing
        descriptor = self.compiled.program.arrays[name]
        expected_dtype = np.dtype(descriptor.dtype)
        if np.dtype(meta["dtype"]) != expected_dtype or \
                tuple(meta["shape"]) != tuple(descriptor.shape):
            raise ValueError(f"checkpointed array {name!r} no longer matches the program")
        files = meta["files"]
        if sorted(f["rank"] for f in files) != list(range(descriptor.nprocs)):
            raise ValueError(f"checkpoint of {name!r} is missing processor files")
        locals_: Dict[int, OutOfCoreLocalArray] = {}
        for file_meta in files:
            rank = int(file_meta["rank"])
            path = Path(file_meta["path"])
            local_shape = descriptor.local_shape(rank)
            nbytes = local_shape[0] * local_shape[1] * expected_dtype.itemsize
            if not path.is_file() or path.stat().st_size != nbytes:
                raise ValueError(f"checkpointed file {path} is missing or truncated")
            manifest = None
            if vm.config.checksums:
                manifest_path = file_meta.get("manifest")
                if not manifest_path:
                    raise ValueError(f"checkpointed file {path} has no checksum manifest")
                manifest = SlabManifest.load(Path(manifest_path))
            laf = LocalArrayFile(
                path,
                local_shape,
                descriptor.dtype,
                order=file_meta.get("order", "F"),
                create=False,
                handle_cache=vm.handle_cache,
                array_name=name,
                rank=rank,
                manifest=manifest,
            )
            laf.verify_checksums()
            locals_[rank] = OutOfCoreLocalArray(descriptor, rank, laf, vm.engine, None)
        return OutOfCoreArray(descriptor, locals_)

    # ------------------------------------------------------------------
    def execute(
        self,
        vm: VirtualMachine,
        inputs: Optional[Dict[str, np.ndarray]] = None,
        verify: bool = True,
        collect_outputs: Optional[bool] = None,
    ) -> ExecutionResult:
        """Execute the whole program on ``vm`` (which must be in EXECUTE mode)."""
        if not vm.perform_io:
            raise RuntimeExecutionError(
                "ProgramExecutor.execute needs a VirtualMachine in EXECUTE mode; "
                "use estimate() for analytic runs"
            )
        return self.run(vm, inputs, verify, collect_outputs=collect_outputs)

    # ------------------------------------------------------------------
    def estimate(self, vm: Optional[VirtualMachine] = None) -> ExecutionResult:
        """Charge the statements' slab loops on an ESTIMATE-mode machine.

        Every statement — including reductions — runs its loops charge-only,
        so the reported counters equal an EXECUTE run's counters exactly.
        """
        if vm is None:
            vm = VirtualMachine(
                self.compiled.nprocs,
                self.compiled.params,
                RunConfig(mode=ExecutionMode.ESTIMATE),
            )
        if vm.perform_io:
            raise RuntimeExecutionError(
                "ProgramExecutor.estimate needs a VirtualMachine in ESTIMATE mode; "
                "use execute() for real runs"
            )
        return self.run(vm, None, verify=False)
