"""The generic executor for compiled node programs.

The executor is the bridge between the compiler (:mod:`repro.core`) and the
runtime.  Every workload — the paper's GAXPY reduction, elementwise
statements, transposes, and arbitrary programs entering through the mini-HPF
frontend — compiles to a :class:`~repro.core.pipeline.CompiledProgram`, and
this module runs it, in either mode of the
:class:`~repro.runtime.vm.VirtualMachine` it is handed:

* ``EXECUTE`` — real Local Array Files, real NumPy arithmetic, a verified
  result — driving the slab loops of the compiled access plan with the
  BLAS-3 batched inner kernels of the fast path; and
* ``ESTIMATE`` — the same engines, charge-only: each engine's lanes
  (:meth:`~repro.machine.cluster.Machine.charge_lane`), column blocks and
  collectives are charged exactly as in ``EXECUTE`` and no data moves, so
  an estimate reports what an execution charges, field for field (the loop
  structure *is* the cost model).

Every engine builds its slabs, staging and buffers per rank from the
descriptors' local shapes, so HPF ``BLOCK`` and ``CYCLIC(k)`` distributions
that give the ranks unequal (even empty) local arrays run like even ones:
an empty rank charges nothing and still joins every collective.

Both modes report the same :class:`ExecutionResult` structure.  Every
engine function (:func:`run_reduction_column` and friends) has one
contract, ``(vm, compiled, inputs, verify)``: it takes a compiled program,
reads the array roles and slab sizes from its analysis and plan, and looks
its operands up by name in ``inputs`` — dense arrays, or the counter-keyed
operands of :mod:`repro.runtime.operands` every workload run draws (an
operand that is absent — an intermediate of a whole program — is already
in the VM).
Whatever ran, one routine (:func:`verify_outputs`) decides whether its
result is correct, reading it panel by panel where it is stored — no run
gathers a result — and one loop (:func:`_run_recovering`) recovers a
statement from slab corruption.

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
from repro.resilience.checksums import SlabManifest
from repro.resilience.journal import program_fingerprint
from repro.runtime.laf import LocalArrayFile
from repro.runtime.ocla import OutOfCoreLocalArray
from repro.runtime.slab import (
    Slab,
    SlabbingStrategy,
    column_slabs,
    lines_per_slab,
    make_slabs,
    row_slabs,
    slab_runs,
)
from repro.runtime.vm import OutOfCoreArray, VirtualMachine

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.core.ir import ProgramIR
    from repro.core.pipeline import CompiledProgram, CompiledWholeProgram
    from repro.core.reorganize import AccessPlan
    from repro.runtime.operands import Operand

__all__ = [
    "ExecutionResult",
    "reduction_reference",
    "program_reference",
    "verify_outputs",
    "NodeProgramExecutor",
    "ProgramExecutor",
    "run_reduction_column",
    "run_reduction_row",
    "run_reduction_single_operand",
    "run_elementwise_plan",
    "run_transpose_plan",
]


# ---------------------------------------------------------------------------
# inputs, references, results
# ---------------------------------------------------------------------------
#: operands by array name, dense arrays or :mod:`repro.runtime.operands`
#: operands (indexed alike); ``None`` (or an absent name) creates nothing
Inputs = Optional[Mapping[str, "np.ndarray | Operand"]]

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
    data of any dtype, or an operand); each panel is the consumer's to
    overwrite.  Only a result a later statement reads is also assembled
    densely, in ``env``, which drops every array after its last reader.
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
                del panel
        else:
            yield from panels
        for operand in [n for n, reader in last_reader.items() if reader == index]:
            del env[operand]


def program_reference(
    program: "ProgramIR", inputs: Mapping[str, "np.ndarray | Operand"]
) -> Dict[str, np.ndarray]:
    """The in-core NumPy oracle: evaluate the statement list on ``inputs``.

    ``inputs`` maps each program input to dense data or an
    :class:`~repro.runtime.operands.Operand` (drawn whole here).  Returns
    the environment after the last statement — program inputs (cast to
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

_FLOAT64_MAX = np.finfo(np.float64).max


def _panel_close(got: np.ndarray, reference: np.ndarray, tolerance: float) -> bool:
    """``np.allclose(got, reference, rtol=tolerance, atol=tolerance)`` of one panel.

    The same float64 arithmetic as ``np.isclose`` — ``|got - reference| <=
    atol + rtol * |reference|`` — updated in place in two float64 panel
    temporaries instead of ``isclose``'s several.  Neither operand is
    written.  Where ``reference`` is infinite, ``isclose``
    accepts only equality; clamping the bound to the largest finite float
    keeps any finite difference under it and rejects an infinite or NaN
    one, and the equality test runs on the rejected elements alone.  A NaN
    in either operand is rejected, as by ``isclose``.
    """
    with np.errstate(invalid="ignore"):  # inf - inf, as in isclose
        difference = np.subtract(got, reference, dtype=np.float64)
    np.abs(difference, out=difference)
    bound = np.abs(reference)
    bound *= tolerance
    bound += tolerance
    np.minimum(bound, _FLOAT64_MAX, out=bound)
    within = np.less_equal(difference, bound)
    if within.all():
        return True
    outside = ~within
    return bool(np.all(got[outside] == reference[outside]))


def _fold_panels(
    kind: str, panels: _Panels, outputs: Mapping[str, "np.ndarray | OutOfCoreArray"]
) -> Tuple[bool, Optional[float]]:
    """Compare ``outputs`` with the oracle's reference ``panels``.

    The tolerance half of :func:`verify_outputs`, one panel at a time: the
    output's panel is read — a stored array's from its owners' files
    (:meth:`~repro.runtime.vm.OutOfCoreArray.column_reader`, checksums
    audited first) — the reference panel is overwritten with its own error,
    and only the verdict and each array's running maximum error and
    reference scale outlive them: both panels are dropped before the oracle
    computes the next one, so one reference panel is alive at a time.
    Elementwise and transpose results are compared like ``np.allclose``
    (:func:`_panel_close`).  Reductions and whole programs bound the maximum
    absolute error relative to the reference's scale and report it:
    ``1e-3`` for a lone reduction, and per array of a whole program ``1e-3``
    for items of at most four bytes, ``1e-9`` above.  The maxima fold with
    ``np.maximum``: unlike ``max`` it keeps a NaN.
    """
    allclose = _ALLCLOSE_TOLERANCE.get(kind)
    read = {
        name: output.column_reader() if isinstance(output, OutOfCoreArray)
        else (lambda cols, dense=output: dense[:, cols])
        for name, output in outputs.items()
    }
    close = True
    error = dict.fromkeys(outputs, 0.0)
    scale = dict.fromkeys(outputs, 0.0)
    unchecked = set(outputs)
    for name, cols, reference in panels:
        if name in read:
            unchecked.discard(name)
            got = read[name](cols)
            if allclose is not None:
                close = close and _panel_close(got, reference, allclose)
            else:
                scale[name] = np.maximum(
                    scale[name], np.maximum(reference.max(), -reference.min())
                )
                np.subtract(reference, got, out=reference)
                np.abs(reference, out=reference)
                error[name] = np.maximum(error[name], reference.max())
            del got
        # dropped before the oracle computes the next panel
        del reference
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
    inputs: Mapping[str, "np.ndarray | Operand"],
    outputs: Mapping[str, "np.ndarray | OutOfCoreArray"],
) -> Tuple[bool, Optional[float]]:
    """Whether the results of a run of ``compiled`` on ``inputs`` are correct.

    The one oracle-and-tolerance routine behind every ``verified`` flag —
    the engines that run a compiled program, :class:`ProgramExecutor` and
    the distributed backend's parent all call it, so their records agree
    field for field.  ``outputs`` maps result array names to the stored
    :class:`~repro.runtime.vm.OutOfCoreArray` — read panel by panel from
    its owners' Local Array Files, checksums audited first, never gathered
    — or to dense data (tests, perturbation checks); ``inputs`` the
    operands by array name: dense arrays, or
    :class:`~repro.runtime.operands.Operand` objects, which draw only the
    column panels compared.  Every element of every output is compared with
    an independent float64 NumPy evaluation of the statement list on the
    inputs, streamed in column panels (:func:`_reference_panels`) so that it
    allocates the float64 copy of a reduction's streamed operand (the one
    operand drawn whole), the intermediates later statements still read and
    one reference panel with the output panel compared against it — never a
    whole reference, difference or result.  Returns ``(verified,
    max_abs_error)`` under the statement kind's tolerance
    (:func:`_fold_panels`).
    """
    from repro.core.pipeline import CompiledWholeProgram

    kind = "program" if isinstance(compiled, CompiledWholeProgram) else _statement_kind(compiled)
    return _fold_panels(kind, _reference_panels(compiled.program, dict(inputs)), outputs)


@dataclasses.dataclass
class ExecutionResult:
    """Outcome of running (or estimating) one compiled program: its charged
    statistics and, for a verified ``EXECUTE`` run, the verdict.

    No data: a result stays in its Local Array Files, and a caller who wants
    it dense asks the VM (:meth:`~repro.runtime.vm.VirtualMachine.to_dense`)
    while the VM is open.  Whole-program runs additionally carry
    ``statements`` — one mapping of charged-cost deltas per statement.
    """

    strategy: str
    mode: ExecutionMode
    simulated_seconds: float
    time_breakdown: Dict[str, float]
    io_statistics: Dict[str, float]
    verified: Optional[bool] = None
    max_abs_error: Optional[float] = None
    statements: Tuple[Dict[str, float], ...] = ()
    #: host-side resilience counters of the run (retries, corruptions
    #: detected/recovered, statements skipped by a resume) — never part of
    #: the charged statistics; ``None`` for ``ESTIMATE`` runs.
    resilience: Optional[Dict[str, float]] = None
    #: cumulative charge totals at each statement boundary of a
    #: whole-program run: ``{"elapsed", "time", "io"}`` per statement.  The
    #: distributed backend merges these across rank workers (field-wise max,
    #: the critical-path convention) and re-derives the per-statement deltas
    #: of ``statements`` with the same :func:`statement_deltas`.
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


def _boundary(vm: VirtualMachine) -> Dict[str, object]:
    """The cumulative charge totals of ``vm`` at a statement boundary."""
    return {"elapsed": vm.elapsed(), "time": vm.time_breakdown(), "io": vm.io_statistics()}


def statement_deltas(
    start: Dict[str, object], boundaries: Sequence[Dict[str, object]]
) -> Tuple[Dict[str, float], ...]:
    """Per-statement charged deltas from cumulative statement boundaries.

    ``start`` and each boundary are ``{"elapsed", "time", "io"}`` totals; a
    statement's entry is its boundary minus the previous one (``seconds``,
    then every time and I/O field).  A boundary marked ``"skipped"`` — a
    statement a resumed run did not re-run — yields ``{"seconds": 0.0,
    "skipped": 1.0}`` and leaves the previous boundary in place.
    """
    deltas: List[Dict[str, float]] = []
    previous = start
    for boundary in boundaries:
        if boundary.get("skipped"):
            deltas.append({"seconds": 0.0, "skipped": 1.0})
            continue
        before_time, before_io = previous["time"], previous["io"]
        breakdown = {"seconds": boundary["elapsed"] - previous["elapsed"]}
        breakdown.update({k: v - before_time.get(k, 0.0) for k, v in boundary["time"].items()})
        breakdown.update({k: v - before_io.get(k, 0.0) for k, v in boundary["io"].items()})
        deltas.append(breakdown)
        previous = boundary
    return tuple(deltas)


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


def _run_recovering(
    vm: VirtualMachine,
    narrays: int,
    attempt: Callable[[], ExecutionResult],
    repair: Callable[[SlabCorruptionError], None] = lambda error: None,
) -> ExecutionResult:
    """Run ``attempt``, recovering from slab corruption charge-neutrally.

    The executor's one recovery loop.  Every attempt is bracketed by a
    charge snapshot: on a :class:`SlabCorruptionError` the corruption is
    counted, the charges roll back, the loop gives up once the budget
    (:func:`_recovery_budget`) is spent, and otherwise ``repair`` restores
    the corrupted array before the retry.  A retry finds the statement's
    arrays already created; the reuse scope lets the engines overwrite them
    in place.  A successful run therefore charges the machine exactly once,
    bit-identical to a fault-free run.  ``ESTIMATE`` runs read no data and
    run once.
    """
    if not vm.perform_io:
        return attempt()
    budget = _recovery_budget(vm, narrays)
    failures = 0
    error: Optional[SlabCorruptionError] = None
    while True:
        snapshot = vm.snapshot_charges()
        try:
            if error is None:
                return attempt()
            vm.resilience.slabs_recovered += 1
            repair(error)
            with vm.array_reuse():
                result = attempt()
            vm.resilience.statements_recovered += 1
            return result
        except SlabCorruptionError as exc:
            failures += 1
            vm.resilience.corruptions_detected += 1
            vm.restore_charges(snapshot)
            if failures >= budget:
                raise
            error = exc


# ---------------------------------------------------------------------------
# shared reduction helpers
# ---------------------------------------------------------------------------
def _slab_major(slabs: Mapping[int, Sequence[Slab]]) -> Iterator[Tuple[int, Slab]]:
    """``(rank, slab)`` of every rank's slabs, slab by slab and rank by rank
    within a slab: the order a uniform slab loop visits the ranks' files."""
    for index in range(max(map(len, slabs.values()), default=0)):
        for rank, rank_slabs in slabs.items():
            if index < len(rank_slabs):
                yield rank, rank_slabs[index]


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
    destination: Optional[np.ndarray],
    *,
    rows: int,
    itemsize: int,
    prefix: Optional[Dict[int, list]] = None,
) -> None:
    """Charge one column block, sum it and deliver it to its owner.

    ``products[rank][:, j - first_col]`` is the rank's contribution to global
    result column ``j`` (EXECUTE only); the summed ``rows x ncols`` block is
    assigned to ``destination`` — the owner's buffer columns it lands in,
    ``None`` where this process does not hold the owner — in one go.
    ``prefix`` holds each rank's one-off steps charged before the block's
    first column.
    """
    lo, hi, _, _ = block
    summed = vm.comm.global_sum_columns(
        {rank: products[rank][:, lo - first_col: hi - first_col] for rank in vm.ranks}
        if vm.perform_io else None,
        steps,
        ncols=hi - lo,
        rows=rows,
        itemsize=itemsize,
        prefix=prefix,
    )
    if destination is not None:
        destination[...] = summed


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
    inputs: Inputs,
    result_order: str,
    streamed_order: str,
) -> Tuple[OutOfCoreArray, OutOfCoreArray, OutOfCoreArray]:
    analysis = compiled.analysis
    arrays = compiled.program.arrays
    s_desc = arrays[analysis.streamed]
    b_desc = arrays[analysis.coefficient]
    c_desc = arrays[analysis.result]
    if c_desc.name in (s_desc.name, b_desc.name):
        raise RuntimeExecutionError(
            f"the result array {c_desc.name!r} aliases an operand; in-place "
            "reductions are not executable"
        )
    dense = inputs or {}
    # ensure_array (not create_array): in a whole-program run an operand that
    # is a previous statement's result already lives in its LAFs and is reused.
    ooc_s = vm.ensure_array(s_desc, initial=dense.get(s_desc.name), storage_order=streamed_order)
    if b_desc.name == s_desc.name:
        # Single-operand statement: one array plays both roles.
        ooc_b = ooc_s
    else:
        ooc_b = vm.ensure_array(b_desc, initial=dense.get(b_desc.name), storage_order="F")
    # No initial data: a new LAF is created zero-filled and the engine
    # overwrites every slab of its result.
    ooc_c = vm.ensure_array(c_desc, initial=None, storage_order=result_order)
    return ooc_s, ooc_b, ooc_c


def _finish(
    vm: VirtualMachine,
    compiled: "CompiledProgram",
    strategy: str,
    result: OutOfCoreArray,
    inputs: Inputs,
    verify: bool,
) -> ExecutionResult:
    """Every engine's ending: check the result where it is stored (``EXECUTE`` only).

    A verified run compares the stored ``result`` with the oracle
    (:func:`verify_outputs`, which audits its checksums first); any other
    run audits the checksums alone.  Either runs inside the recovery
    attempt (:func:`_run_recovering`), so corruption written into the
    result is detected and the statement retried.  A rank worker of the
    distributed backend (``vm.rank`` set) owns only its own local files: it
    audits them, and the parent verifies.  Nothing is gathered.
    """
    verified: Optional[bool] = None
    max_err: Optional[float] = None
    if vm.perform_io:
        if verify and inputs is not None and vm.rank is None:
            verified, max_err = verify_outputs(compiled, inputs, {result.name: result})
        else:
            result.verify_checksums()
    return ExecutionResult(
        strategy=strategy,
        mode=_mode(vm),
        simulated_seconds=vm.elapsed(),
        time_breakdown=vm.time_breakdown(),
        io_statistics=vm.io_statistics(),
        verified=verified,
        max_abs_error=max_err,
    )


# ---------------------------------------------------------------------------
# reduction engine: column-slab version (Figure 9)
# ---------------------------------------------------------------------------
def run_reduction_column(
    vm: VirtualMachine,
    compiled: "CompiledProgram",
    inputs: Inputs = None,
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
    c_desc = ooc_c.descriptor
    n_rows = c_desc.shape[0]
    itemsize = c_desc.itemsize

    # Every rank's slabs of its own local arrays; a coefficient slab's
    # columns are the same on every rank (only its reduce rows differ).
    s_slabs = {rank: column_slabs(ooc_s.descriptor.local_shape(rank), s_entry.lines_per_slab)
               for rank in vm.ranks}
    b_slabs = {rank: column_slabs(ooc_b.descriptor.local_shape(rank), b_entry.lines_per_slab)
               for rank in vm.ranks}
    c_slabs = [column_slabs(shape, c_entry.lines_per_slab) for shape in c_desc.local_shapes()]
    b_columns = b_slabs[vm.ranks[0]]
    blocks = _column_blocks(
        c_desc, [(slab.col_start, slab.col_stop) for slab in b_columns], c_entry.lines_per_slab
    )

    perform = vm.perform_io

    # What every result column charges each rank (Figure 9's inner loop):
    # re-stream each slab of the streamed array and multiply it in.
    steps = {
        rank: [
            step
            for s_slab in s_slabs[rank]
            for step in (ooc_s.local(rank).fetch_step(s_slab),
                         ("compute", 2.0 * s_slab.nelements))
        ]
        for rank in vm.ranks
    }

    # Fast path: the streamed array is read-only, so each slab is really read
    # once, into a float64 staging buffer; that read and every re-stream of
    # the slab are charged by the column blocks (identically to real
    # re-reads) and served from memory.  The staging stays whole: one GEMM
    # over the whole local reduce dimension fixes each product's float64
    # rounding.  The arithmetic for all columns of a column block is then one
    # BLAS-3 GEMM per rank instead of ncols BLAS-2 matvecs, into a float64
    # product buffer one block wide; a block lies in one result slab, so each
    # rank's result buffer is one result slab.
    a64: Dict[int, np.ndarray] = {}
    products64: Dict[int, np.ndarray] = {}
    c_buffers: Dict[int, np.ndarray] = {}
    if perform:
        c_width = max(slab.ncols for slabs in c_slabs for slab in slabs)
        # a block's GEMM: at most one result slab wide, and at least two
        # columns where its coefficient slab is (below)
        gemm_cols = min(max(c_width, 2), max(slab.ncols for slab in b_columns))
        a64 = {rank: np.empty(ooc_s.descriptor.local_shape(rank), dtype=np.float64)
               for rank in vm.ranks}
        products64 = {
            rank: np.empty((n_rows, gemm_cols), dtype=np.float64) for rank in vm.ranks
        }
        c_buffers = {
            rank: np.zeros((n_rows, max(slab.ncols for slab in c_slabs[rank])),
                           dtype=c_desc.dtype)
            for rank in vm.ranks
        }
        for rank, s_slab in _slab_major(s_slabs):
            a64[rank][:, s_slab.col_slice] = ooc_s.local(rank).load_slab(s_slab)

    b_data: Dict[int, Optional[np.ndarray]] = {}
    products: Dict[int, np.ndarray] = {}
    destination: Optional[np.ndarray] = None
    for index, (b_slab, b_blocks) in enumerate(zip(b_columns, blocks, strict=True)):
        for rank in vm.ranks:
            b_data[rank] = ooc_b.local(rank).fetch_slab(b_slabs[rank][index])
        for block in b_blocks:
            lo, hi, owner, local_lo = block
            c_slab = c_slabs[owner][local_lo // c_entry.lines_per_slab]
            destination = None
            # A GEMM rounds each column alike whatever its width, but a
            # one-column product takes BLAS's matrix-vector path, which rounds
            # differently from a GEMM over the whole coefficient slab: a lone
            # column of a wider slab is multiplied with a neighbour.
            start = max(b_slab.col_start, min(lo, b_slab.col_stop - 2))
            stop = min(max(hi, start + 2), b_slab.col_stop)
            if perform:
                # only the block's coefficient columns are converted to float64
                cols = slice(start - b_slab.col_start, stop - b_slab.col_start)
                products = {
                    rank: np.matmul(a64[rank], b_data[rank][:, cols].astype(np.float64),
                                    out=products64[rank][:, : stop - start])
                    for rank in vm.ranks
                }
                if owner in c_buffers:
                    first = local_lo - c_slab.col_start
                    destination = c_buffers[owner][:, first: first + hi - lo]
            _reduce_column_block(vm, block, steps, products, start, destination,
                                 rows=n_rows, itemsize=itemsize)
            if local_lo + hi - lo < c_slab.col_stop:
                continue
            # the block completed a column slab of the result: its owner stores it
            if perform and owner in c_buffers:
                ooc_c.local(owner).store_slab(c_slab, c_buffers[owner][:, : c_slab.ncols])
            elif not perform:
                ooc_c.local(owner).store_slab(c_slab, None)

    # Release the staging before the oracle builds its own float64 operands.
    del a64, products64, products, b_data, c_buffers, destination
    return _finish(vm, compiled, "column-slab", ooc_c, inputs, verify)


# ---------------------------------------------------------------------------
# reduction engine: row-slab version (Figure 12)
# ---------------------------------------------------------------------------
def run_reduction_row(
    vm: VirtualMachine,
    compiled: "CompiledProgram",
    inputs: Inputs = None,
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
    c_desc = ooc_c.descriptor
    itemsize = c_desc.itemsize

    # Every rank's slabs of its own local arrays: a streamed row slab has the
    # same rows on every rank and a coefficient slab the same columns (only
    # the distributed extent differs).
    s_slabs = {rank: row_slabs(ooc_s.descriptor.local_shape(rank), s_entry.lines_per_slab)
               for rank in vm.ranks}
    b_shapes = {rank: ooc_b.descriptor.local_shape(rank) for rank in vm.ranks}
    b_slabs = {rank: column_slabs(shape, b_entry.lines_per_slab)
               for rank, shape in b_shapes.items()}
    s_rows, b_columns = s_slabs[vm.ranks[0]], b_slabs[vm.ranks[0]]

    blocks = _column_blocks(c_desc, [(slab.col_start, slab.col_stop) for slab in b_columns])

    perform = vm.perform_io

    # Fast path: the coefficient is read-only, so each of its slabs is really
    # read once per rank and kept in its own dtype.  Figure 12 re-reads
    # it for every streamed slab; each re-read is charged as the prefix of the
    # (streamed slab, coefficient slab) pair's first column block —
    # identically to a real re-read — and served from memory.
    for rank, shape in b_shapes.items():
        ooc_b.local(rank).check_extent(shape)
    rereads = [{rank: [ooc_b.local(rank).fetch_step(b_slabs[rank][pair])] for rank in vm.ranks}
               for pair in range(len(b_columns))]
    b_data: List[Dict[int, np.ndarray]] = []
    panel64 = np.empty(0)
    products64: Dict[int, np.ndarray] = {}
    c_buffer: Dict[int, np.ndarray] = {}
    if perform:
        b_data = [{rank: ooc_b.local(rank).load_slab(b_slabs[rank][pair]) for rank in vm.ranks}
                  for pair in range(len(b_columns))]
        # One F-ordered float64 coefficient panel the ranks share, as astype
        # would give it, and per-rank GEMM output buffers, reused across
        # every pair.
        max_s_rows = max(slab.nrows for slab in s_rows)
        max_b_cols = max(slab.ncols for slab in b_columns)
        panel64 = np.empty((max(shape[0] for shape in b_shapes.values()), max_b_cols),
                           dtype=np.float64, order="F")
        products64 = {
            rank: np.empty((max_s_rows, max_b_cols), dtype=np.float64)
            for rank in vm.ranks
        }
        # one row slab of the result per rank, every element of it written
        # by the slab's column blocks before it is stored
        c_buffer = {
            rank: np.empty((max_s_rows, c_desc.local_shape(rank)[1]), dtype=c_desc.dtype)
            for rank in vm.ranks
        }

    a64: Dict[int, np.ndarray] = {}
    products: Dict[int, np.ndarray] = {}
    panel = destination = None
    for row, s_slab in enumerate(s_rows):
        for rank in vm.ranks:
            a_data = ooc_s.local(rank).fetch_slab(s_slabs[rank][row])
            if perform:
                # Hoisted conversions: one astype per fetched slab, not per column.
                a64[rank] = a_data.astype(np.float64)
        del a_data
        # What every result subcolumn charges each rank (Figure 12's inner
        # loop): multiply the resident row slab in.
        steps = {rank: [("compute", 2.0 * s_slabs[rank][row].nelements)] for rank in vm.ranks}
        for pair, (b_slab, b_blocks) in enumerate(zip(b_columns, blocks, strict=True)):
            if perform:
                # One BLAS-3 GEMM per rank covers every column of this
                # coefficient slab against the resident streamed slab.  (One
                # GEMM over every result column would round some float64
                # columns differently.)  Each rank's slab is converted into
                # the shared panel just before its GEMM.
                for rank in vm.ranks:
                    panel = panel64[: b_shapes[rank][0], : b_slab.ncols]
                    np.copyto(panel, b_data[pair][rank])
                    products[rank] = np.matmul(
                        a64[rank], panel, out=products64[rank][: s_slab.nrows, : b_slab.ncols]
                    )
            for index, block in enumerate(b_blocks):
                lo, hi, owner, local_lo = block
                destination = (c_buffer[owner][: s_slab.nrows, local_lo: local_lo + hi - lo]
                               if owner in c_buffer else None)
                _reduce_column_block(vm, block, steps, products, b_slab.col_start, destination,
                                     rows=s_slab.nrows, itemsize=itemsize,
                                     prefix=None if index else rereads[pair])
        # the row slab of the result is complete on every owner: flush it
        for rank in vm.ranks:
            c_row_slab = dataclasses.replace(s_slab, col_stop=c_desc.local_shape(rank)[1])
            ooc_c.local(rank).store_slab(
                c_row_slab, c_buffer[rank][: s_slab.nrows] if perform else None
            )

    # Release the staging before the oracle builds its own float64 operands.
    del b_data, panel64, panel, a64, products64, products, c_buffer, destination
    return _finish(vm, compiled, "row-slab", ooc_c, inputs, verify)


#: Kept only because ``benchmarks/suite/spans.py``'s ``BOUNDARIES`` wraps this
#: name through ``getattr``; nothing here calls it (the in-core baseline is the
#: row-slab program at slab ratio 1).
run_reduction_incore = run_reduction_row


# ---------------------------------------------------------------------------
# reduction engine: single-operand statements (c = a @ a)
# ---------------------------------------------------------------------------
def run_reduction_single_operand(
    vm: VirtualMachine,
    compiled: "CompiledProgram",
    inputs: Inputs = None,
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
    result; the broadcast traffic is charged per column.  ``ESTIMATE``
    charges the same schedule; only the compiler's
    :class:`~repro.core.cost_model.PlanCost` keeps the paper's re-read model
    for this degenerate case.
    """
    analysis = compiled.analysis
    plan = compiled.plan
    entry = plan.entry(analysis.streamed)
    c_entry = plan.entry(analysis.result)

    order = "F" if plan.strategy is SlabbingStrategy.COLUMN else "C"
    ooc_s, _, ooc_c = _setup_reduction_arrays(vm, compiled, inputs,
                                              result_order="F", streamed_order=order)
    s_desc, c_desc = ooc_s.descriptor, ooc_c.descriptor
    s_shapes = {rank: s_desc.local_shape(rank) for rank in vm.ranks}
    n_rows = c_desc.shape[0]
    n_cols = c_desc.shape[1]
    itemsize = c_desc.itemsize
    perform = vm.perform_io

    # One read pass: stage the full local part of `a` (float64) per rank,
    # charged as one lane of reads per rank.
    for rank, shape in s_shapes.items():
        ooc_s.local(rank).check_extent(shape)
    vm.machine.charge_lane({
        rank: [([ooc_s.local(rank).fetch_step(slab)], count) for slab, count in
               slab_runs(shape, plan.strategy,
                         lines_per_slab(shape, plan.strategy, entry.slab_elements))]
        for rank, shape in s_shapes.items()
    })
    a64: Dict[int, np.ndarray] = {}
    if perform:
        a64 = {rank: np.empty(shape, dtype=np.float64) for rank, shape in s_shapes.items()}
        s_slabs = {rank: make_slabs(shape, plan.strategy, entry.slab_elements)
                   for rank, shape in s_shapes.items()}
        for rank, slab in _slab_major(s_slabs):
            a64[rank][slab.row_slice, slab.col_slice] = ooc_s.local(rank).load_slab(slab)

    # Global column indices owned by each rank (the reduce dimension of `a`).
    owned_cols = {rank: s_desc.local_slices(rank)[1] for rank in vm.ranks}
    s_owner, s_local_col = _column_owner_table(s_desc)
    c_owner, c_local_col = _column_owner_table(c_desc)

    c_buffers: Dict[int, np.ndarray] = {
        rank: np.zeros(c_desc.local_shape(rank), dtype=c_desc.dtype) for rank in vm.ranks
    } if perform else {}
    c_slabs = [column_slabs(shape, c_entry.lines_per_slab) for shape in c_desc.local_shapes()]

    column_j: Optional[np.ndarray] = None  # a view of the owner's staged `a`
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
        for rank, shape in s_shapes.items():
            vm.machine.charge_compute(rank, 2.0 * shape[0] * shape[1])
        column = vm.comm.global_sum(contributions, shape=(n_rows,), itemsize=itemsize)
        owner, local_j = c_owner[j], c_local_col[j]
        c_slab = c_slabs[owner][local_j // c_entry.lines_per_slab]
        if perform and owner in c_buffers:
            c_buffers[owner][:, local_j] = column.astype(c_desc.dtype)
            if local_j == c_slab.col_stop - 1:
                ooc_c.local(owner).store_slab(c_slab, c_buffers[owner][:, c_slab.col_slice])
        elif not perform and local_j == c_slab.col_stop - 1:
            ooc_c.local(owner).store_slab(c_slab, None)

    # Release the staging before the oracle builds its own float64 operands.
    del a64, c_buffers, column_j
    return _finish(vm, compiled, f"{plan.strategy.value}-slab single-operand",
                   ooc_c, inputs, verify)


# ---------------------------------------------------------------------------
# elementwise engine
# ---------------------------------------------------------------------------
def run_elementwise_plan(
    vm: VirtualMachine,
    compiled: "CompiledProgram",
    inputs: Inputs = None,
    verify: bool = True,
) -> ExecutionResult:
    """Run a unit's elementwise statement — or its fused pair — slab by slab.

    One slab loop runs the unit's statements in order: each operand
    *reference* fetches its slab (``c = a + a`` reads ``a`` twice), while
    each operand *name* gets its arrays created once.  A fused pair's
    intermediate is the exception: the producer's result slab stays in a
    resident buffer, cast to the intermediate's declared dtype (reproducing
    the unfused schedule's rounding exactly), and is handed straight to the
    consumer's compute — no Local Array Files, no write pass and no read
    pass.

    Both modes charge the same lanes (:meth:`Machine.charge_lane`): one per
    rank, the slab loop's fetch / compute / store steps priced once per
    distinct slab shape, after every file has been checked.  The slab loop
    itself moves data uncharged and runs in ``EXECUTE`` only, so an
    ``ESTIMATE`` of an elementwise unit walks no slab.
    """
    program = compiled.program
    arrays = program.arrays
    statements = program.statements
    result = statements[-1].result.array
    strategy = compiled.plan.strategy
    order = "F" if strategy is SlabbingStrategy.COLUMN else "C"
    dense = inputs or {}

    ooc: Dict[str, OutOfCoreArray] = {}
    resident = set()
    for statement in statements:
        for ref in statement.operands:
            if ref.array not in resident and ref.array not in ooc:
                ooc[ref.array] = vm.ensure_array(
                    arrays[ref.array], initial=dense.get(ref.array), storage_order=order
                )
        resident.add(statement.result.array)
    ooc[result] = vm.ensure_array(arrays[result], initial=None, storage_order=order)

    def slab_steps(rank: int, slab: Slab) -> List[tuple]:
        """What one slab charges, in the slab loop's order below."""
        steps, produced = [], set()
        for statement in statements:
            steps += [ooc[ref.array].local(rank).fetch_step(slab)
                      for ref in statement.operands if ref.array not in produced]
            steps.append(("compute", 1.0 * slab.nelements))
            produced.add(statement.result.array)
        steps.append(ooc[result].local(rank).store_step(slab))
        return steps

    slab_elements = compiled.plan.allocation[result]
    shapes = {rank: arrays[result].local_shape(rank) for rank in vm.ranks}
    for rank, shape in shapes.items():
        for array in ooc.values():
            array.local(rank).check_extent(shape)
    vm.machine.charge_lane({
        rank: [(slab_steps(rank, slab), count) for slab, count in
               slab_runs(shape, strategy, lines_per_slab(shape, strategy, slab_elements))]
        for rank, shape in shapes.items()
    })

    if vm.perform_io:
        for rank, shape in shapes.items():
            for slab in make_slabs(shape, strategy, slab_elements):
                blocks: Dict[str, np.ndarray] = {}
                for statement in statements:
                    operands = [
                        blocks[ref.array] if ref.array in blocks
                        else ooc[ref.array].local(rank).load_slab(slab)
                        for ref in statement.operands
                    ]
                    name = statement.result.array
                    blocks[name] = _ELEMENTWISE_OPS[statement.op](*operands).astype(
                        arrays[name].dtype, copy=False)
                ooc[result].local(rank).save_slab(slab, blocks[result])

    fused = "fused " if len(statements) > 1 else ""
    return _finish(vm, compiled, f"{fused}{strategy.value}-slab elementwise",
                   ooc[result], inputs, verify)


# ---------------------------------------------------------------------------
# transpose engine
# ---------------------------------------------------------------------------
def run_transpose_plan(
    vm: VirtualMachine,
    compiled: "CompiledProgram",
    inputs: Inputs = None,
    verify: bool = True,
) -> ExecutionResult:
    """Compute ``dst = src^T`` out of core in column slabs of the plan's width.

    Each processor streams its local columns of the source in slabs, the rows
    of each slab destined for processor ``q`` form the exchange payload
    (all-to-all), and ``q`` writes the transposed piece into its local
    columns of the target.
    """
    analysis = compiled.analysis
    src_desc = compiled.program.arrays[analysis.source]
    dst_desc = compiled.program.arrays[analysis.target]
    cols_per_slab = compiled.plan.entry(analysis.source).lines_per_slab
    nprocs = vm.nprocs
    itemsize = src_desc.itemsize

    source = vm.ensure_array(
        src_desc, initial=(inputs or {}).get(analysis.source), storage_order="F"
    )
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

    block = pieces = delivered = piece = None
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

    # write the transposed local arrays slab by slab: one lane of writes
    # per rank, then the data
    shapes = {rank: dst_desc.local_shape(rank) for rank in vm.ranks}
    for rank, shape in shapes.items():
        target.local(rank).check_extent(shape)
    vm.machine.charge_lane({
        rank: [([target.local(rank).store_step(slab)], count)
               for slab, count in slab_runs(shape, SlabbingStrategy.COLUMN, cols_per_slab)]
        for rank, shape in shapes.items()
    })
    if vm.perform_io:
        for rank, shape in shapes.items():
            for slab in column_slabs(shape, cols_per_slab):
                target.local(rank).save_slab(
                    slab, result_locals[rank][slab.row_slice, slab.col_slice]
                )

    # Release the staging before the oracle builds its reference panels.
    del result_locals, block, pieces, delivered, piece
    return _finish(vm, compiled, "column-slab transpose", target, inputs, verify)


# ---------------------------------------------------------------------------
# the dispatching executor
# ---------------------------------------------------------------------------
def _run_statement(
    vm: VirtualMachine, compiled: "CompiledProgram", inputs: Inputs, verify: bool
) -> ExecutionResult:
    """The kind dispatch: run one compiled unit on the engine of its statement kind."""
    if inputs is not None and not isinstance(inputs, Mapping):
        raise RuntimeExecutionError(
            f"inputs map array names to operands; got {type(inputs).__name__}"
        )
    kind = _statement_kind(compiled)
    if kind == "reduction":
        if compiled.analysis.coefficient == compiled.analysis.streamed:
            engine = run_reduction_single_operand
        elif compiled.plan.strategy is SlabbingStrategy.ROW:
            engine = run_reduction_row
        else:
            engine = run_reduction_column
    elif kind == "transpose":
        engine = run_transpose_plan
    else:
        engine = run_elementwise_plan
    return engine(vm, compiled, inputs, verify)


class NodeProgramExecutor:
    """Runs a compiled program of any statement kind, in the VM's mode."""

    def __init__(self, compiled: "CompiledProgram"):
        self.compiled = compiled

    # ------------------------------------------------------------------
    # mode-honoring interpretation of the compiled plan
    # ------------------------------------------------------------------
    def run(
        self,
        vm: VirtualMachine,
        inputs: Inputs = None,
        verify: bool = True,
    ) -> ExecutionResult:
        """Drive ``vm`` through the compiled plan's slab loops.

        Honors the virtual machine's execution mode: in ``EXECUTE`` mode the
        arithmetic and file traffic are real; in ``ESTIMATE`` mode the same
        charges are made and no data moves.  ``inputs`` maps operand array names to dense
        data (``None`` generates nothing — required only for verified
        ``EXECUTE`` runs).  A mid-statement checksum mismatch triggers a
        charge-neutral re-execution (:func:`_run_recovering`).
        """
        compiled = self.compiled
        return _run_recovering(
            vm, len(compiled.program.arrays),
            lambda: _run_statement(vm, compiled, inputs, verify),
        )

    # ------------------------------------------------------------------
    # real execution
    # ------------------------------------------------------------------
    def execute(
        self,
        vm: VirtualMachine,
        inputs: Inputs = None,
        verify: bool = True,
    ) -> ExecutionResult:
        """Execute the compiled program on ``vm`` (which must be in EXECUTE mode)."""
        if not vm.perform_io:
            raise RuntimeExecutionError(
                "NodeProgramExecutor.execute needs a VirtualMachine in EXECUTE mode; "
                "run() an ESTIMATE-mode one for a charge-only estimate"
            )
        return self.run(vm, inputs, verify)


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

    Both modes drive the same per-statement engines through the kind
    dispatch (``ESTIMATE`` runs them charge-only), so the charged I/O
    counters of the two modes are identical by construction.
    """

    def __init__(self, compiled: "CompiledWholeProgram"):
        self.compiled = compiled

    # ------------------------------------------------------------------
    def run(
        self,
        vm: VirtualMachine,
        inputs: Inputs = None,
        verify: bool = True,
    ) -> ExecutionResult:
        """Drive ``vm`` through every statement's slab loops, in order.

        Honors the virtual machine's execution mode.  ``inputs`` maps the
        *program input* arrays to dense data or operands (required for
        ``EXECUTE`` runs; ignored in ``ESTIMATE`` mode).  Every statement's
        result has its checksums audited inside its recovery attempt.
        Verification then compares every materialized result, read where it
        is stored, against the in-core NumPy oracle (:func:`verify_outputs`);
        an unverified run reads nothing more.  No result is gathered: ask
        ``vm.to_dense(name)`` while the VM is open.
        """
        program = self.compiled.program
        dense = dict(inputs or {})
        if vm.perform_io:
            missing = [name for name in program.input_arrays() if name not in dense]
            if missing:
                raise RuntimeExecutionError(
                    f"EXECUTE-mode program runs need an operand for every program "
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

        start = previous = _boundary(vm)
        statement_totals = []
        with vm.array_reuse():
            for index, compiled_statement in enumerate(self.compiled.statements):
                if index < resume_from:
                    # Completed by the checkpointed run: its result LAFs were
                    # re-validated and restored; nothing is charged.
                    statement_totals.append({**previous, "skipped": 1.0})
                    vm.resilience.statements_skipped += 1
                    continue
                self._run_statement_resilient(vm, compiled_statement, dense)
                previous = _boundary(vm)
                statement_totals.append(previous)
                if journal is not None:
                    self._commit_statement(vm, journal, index, compiled_statement)
                    self._maybe_crash(vm, journal)
        if journal is not None:
            journal.mark_complete()

        verified: Optional[bool] = None
        max_err: Optional[float] = None
        if verify and vm.perform_io and vm.rank is None:
            # Fused-away intermediates never materialize — there is no LAF to
            # verify; the fused result itself is verified.
            fused_away = {
                name for step in self.compiled.schedule.steps for name in step.fused
            }
            stored = {
                name: vm.get_array(name)
                for name in program.result_arrays() if name not in fused_away
            }
            verified, max_err = verify_outputs(self.compiled, dense, stored)

        strategies = "+".join(
            compiled.plan.strategy.value for compiled in self.compiled.statements
        )
        return ExecutionResult(
            strategy=f"program[{strategies}]",
            mode=_mode(vm),
            simulated_seconds=vm.elapsed(),
            time_breakdown=vm.time_breakdown(),
            io_statistics=vm.io_statistics(),
            verified=verified,
            max_abs_error=max_err,
            statements=statement_deltas(start, statement_totals),
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
        dense: Dict[str, "np.ndarray | Operand"],
    ) -> None:
        """Run one statement under the recovery loop (:func:`_run_recovering`).

        A corrupted array is repaired before the retry (:meth:`_repair`).
        The engine audits the statement's freshly written result inside the
        attempt (:func:`_finish`), so write-time corruption is retried too
        and a checkpoint never records a corrupt LAF as completed.
        """
        _run_recovering(
            vm, len(self.compiled.program.arrays),
            lambda: _run_statement(vm, compiled_statement, dense, verify=False),
            lambda error: self._repair(vm, error, compiled_statement, dense),
        )

    def _repair(
        self,
        vm: VirtualMachine,
        error: SlabCorruptionError,
        compiled_statement: "CompiledProgram",
        dense: Dict[str, "np.ndarray | Operand"],
    ) -> None:
        """Restore the corrupted array named by ``error`` to valid data.

        Three cases: the statement's own result (nothing to do — the retry
        overwrites it), an intermediate (re-execute its producer statement,
        charge-neutrally), or a program input (re-write the corrupted rank's
        block only, as ``create_array`` wrote it).
        """
        name = error.array
        if not name or name == self._result_array(compiled_statement):
            return
        producer = self._producer_index(name)
        if producer is not None:
            snapshot = vm.snapshot_charges()
            try:
                _run_statement(vm, self.compiled.statements[producer], dense, verify=False)
            finally:
                # Regeneration is pure recovery: the program already paid for
                # this statement once; the simulated machine never sees it.
                vm.restore_charges(snapshot)
            return
        if name in dense and name in vm.arrays:
            vm.write_initial(vm.arrays[name], error.rank, dense[name])
            return
        raise error

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
        verify; a sidecar this host cannot verify (another checksum
        algorithm, an older manifest version) fails like a mismatch.  The
        first entry that fails truncates the journal there —
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
            existing.verify_checksums()
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
                if not manifest.verifiable:
                    # the file cannot be audited here, so it cannot be trusted
                    raise ValueError(
                        f"checkpointed file {path} has {manifest.algorithm} checksums, "
                        "which this host cannot verify"
                    )
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
            locals_[rank] = OutOfCoreLocalArray(descriptor, rank, laf, vm.engine)
        return OutOfCoreArray(descriptor, locals_)

    # ------------------------------------------------------------------
    def execute(
        self,
        vm: VirtualMachine,
        inputs: Inputs = None,
        verify: bool = True,
    ) -> ExecutionResult:
        """Execute the whole program on ``vm`` (which must be in EXECUTE mode)."""
        if not vm.perform_io:
            raise RuntimeExecutionError(
                "ProgramExecutor.execute needs a VirtualMachine in EXECUTE mode; "
                "use estimate() for a charge-only run"
            )
        return self.run(vm, inputs, verify)

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
