"""The I/O cost model (Section 4.1 of the paper).

For a candidate slabbing of the streamed array the model predicts, per
processor, the two metrics the paper uses —

* ``T_fetch`` — the number of I/O requests, and
* ``T_data`` — the number of elements moved between disk and memory —

for every out-of-core array in the statement, and converts them (together
with the arithmetic and the global-sum traffic) into simulated seconds using
the machine parameters.

For the GAXPY example the formulas specialise exactly to equations 3–6 of
the paper:

====================  =============================  =========================
quantity              column-slab version            row-slab version
====================  =============================  =========================
``T_fetch(A)``        ``N^3 / (M P)``                ``N^2 / (M P)``
``T_data(A)``         ``N^3 / P``                    ``N^2 / P``
====================  =============================  =========================

because in the column-slab version the whole local part of ``A`` must be
re-fetched for each of the ``N`` result columns, while in the row-slab
version each slab of ``A`` is fetched exactly once (all the subcolumns it
contains are reused for every result column before the slab is evicted).
The price of the row-slab version is that the coefficient array ``B`` is
re-read once per slab of ``A`` — a second-order cost the model also accounts
for, and the reason the memory allocator of Table 2 gives ``A`` the larger
slab.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import CostModelError
from repro.core.analysis import (
    ElementwisePhaseResult,
    FusedElementwisePhase,
    InCorePhaseResult,
    PhaseResult,
    TransposePhaseResult,
)
from repro.core.ir import ProgramIR
from repro.core.stripmine import SlabPlanEntry
from repro.machine.cluster import fold
from repro.machine.parameters import MachineParameters
from repro.runtime.slab import SlabbingStrategy

__all__ = ["ArrayIOCost", "PlanCost", "Price", "CostModel", "combine_plan_costs", "local_elements"]


class Price(NamedTuple):
    """The scalars of a predicted per-processor cost — all the plan search
    and the allocation policies ever compare."""

    io_time: float
    compute_time: float
    comm_time: float
    #: the paper's ``T_data`` summed over arrays (reads + writes)
    io_elements: float
    #: the paper's ``T_fetch`` summed over arrays (reads + writes)
    io_requests: float

    @property
    def total_time(self) -> float:
        return self.io_time + self.compute_time + self.comm_time


@dataclasses.dataclass(frozen=True)
class ArrayIOCost:
    """Per-processor I/O cost of one array under one access plan."""

    array: str
    fetch_requests: float
    fetch_elements: float
    write_requests: float
    write_elements: float

    @property
    def total_requests(self) -> float:
        """The paper's ``T_fetch`` metric (reads + writes)."""
        return self.fetch_requests + self.write_requests

    @property
    def total_elements(self) -> float:
        """The paper's ``T_data`` metric (reads + writes)."""
        return self.fetch_elements + self.write_elements


@dataclasses.dataclass(frozen=True)
class PlanCost:
    """Predicted per-processor cost of one complete access plan."""

    strategy: Optional[SlabbingStrategy]
    arrays: Dict[str, ArrayIOCost]
    flops: float
    collective_count: float
    collective_elements_each: float
    itemsize: int
    nprocs: int
    io_time: float
    compute_time: float
    comm_time: float
    #: display label overriding the strategy name; ``strategy=None`` only for
    #: a combined whole-program cost of mixed strategies, labelled "mixed"
    label: Optional[str] = None

    @property
    def total_time(self) -> float:
        return self.io_time + self.compute_time + self.comm_time

    @property
    def io_requests(self) -> float:
        """Total I/O requests per processor (all arrays)."""
        return sum(cost.total_requests for cost in self.arrays.values())

    @property
    def io_elements(self) -> float:
        """Total elements moved per processor (all arrays)."""
        return sum(cost.total_elements for cost in self.arrays.values())

    @property
    def io_bytes(self) -> float:
        return self.io_elements * self.itemsize

    @property
    def price(self) -> Price:
        return Price(
            self.io_time, self.compute_time, self.comm_time, self.io_elements, self.io_requests
        )

    def dominant_array(self) -> str:
        """The array with the largest data volume (the paper: "determine which
        array requires the largest amount of I/O")."""
        return max(self.arrays.values(), key=lambda cost: cost.total_elements).array

    def describe(self) -> str:
        label = self.label or (self.strategy.value if self.strategy else "mixed")
        lines = [f"plan [{label}] on {self.nprocs} processors:"]
        for name, cost in self.arrays.items():
            lines.append(
                f"  {name}: T_fetch={cost.fetch_requests:.0f} req / {cost.fetch_elements:.3e} elems, "
                f"writes={cost.write_requests:.0f} req / {cost.write_elements:.3e} elems"
            )
        lines.append(
            f"  time: io={self.io_time:.2f}s compute={self.compute_time:.2f}s "
            f"comm={self.comm_time:.2f}s total={self.total_time:.2f}s"
        )
        return "\n".join(lines)


def _sum_array_costs(name: str, costs: Sequence[ArrayIOCost]) -> ArrayIOCost:
    return ArrayIOCost(
        array=name,
        fetch_requests=sum(c.fetch_requests for c in costs),
        fetch_elements=sum(c.fetch_elements for c in costs),
        write_requests=sum(c.write_requests for c in costs),
        write_elements=sum(c.write_elements for c in costs),
    )


def combine_plan_costs(costs: Sequence[PlanCost]) -> PlanCost:
    """Sum per-statement plan costs into one program-level :class:`PlanCost`.

    Statements of a whole program execute back to back, so times, flops and
    I/O counts add.  An array touched by several statements (an intermediate:
    written by its producer, read by its consumer) gets one merged
    :class:`ArrayIOCost` carrying the sum of both access patterns — charged
    once each, never regenerated.  ``strategy`` is the shared per-statement
    strategy when all agree and ``None`` for mixed programs; the collective
    payload is the count-weighted average.  Times are left folds in statement
    order (:func:`~repro.machine.cluster.fold`), the same float on every
    Python.
    """
    costs = list(costs)
    if not costs:
        raise CostModelError("combine_plan_costs needs at least one statement cost")
    if len({cost.nprocs for cost in costs}) != 1:
        raise CostModelError("cannot combine plan costs across processor counts")
    if len({cost.itemsize for cost in costs}) != 1:
        raise CostModelError("cannot combine plan costs across item sizes")
    arrays: Dict[str, list] = {}
    for cost in costs:
        for name, array_cost in cost.arrays.items():
            arrays.setdefault(name, []).append(array_cost)
    merged = {name: _sum_array_costs(name, parts) for name, parts in arrays.items()}
    strategies = {cost.strategy for cost in costs}
    collective_count = sum(cost.collective_count for cost in costs)
    collective_elements = (
        sum(cost.collective_count * cost.collective_elements_each for cost in costs)
        / collective_count
        if collective_count
        else 0.0
    )
    shared = next(iter(strategies)) if len(strategies) == 1 else None
    return PlanCost(
        strategy=shared,
        arrays=merged,
        flops=sum(cost.flops for cost in costs),
        collective_count=collective_count,
        collective_elements_each=collective_elements,
        itemsize=costs[0].itemsize,
        nprocs=costs[0].nprocs,
        io_time=fold(0, [cost.io_time for cost in costs]),
        compute_time=fold(0, [cost.compute_time for cost in costs]),
        comm_time=fold(0, [cost.comm_time for cost in costs]),
        label=shared.value if shared is not None else "mixed",
    )


Row = Tuple[float, float, float, float]
"""One array's ``(fetch_requests, fetch_elements, write_requests, write_elements)``."""


def _read(slabs: float, elements: float) -> Row:
    return (float(slabs), elements, 0.0, 0.0)


def _write(slabs: float, elements: float) -> Row:
    return (0.0, 0.0, float(slabs), elements)


def _merge(accesses: Iterable[Tuple[str, Row]]) -> Dict[str, Row]:
    """Per-array rows, first access first; an array accessed twice is charged twice."""
    rows: Dict[str, Row] = {}
    for name, row in accesses:
        if name in rows:
            a, b, c, d = rows[name]
            row = (a + row[0], b + row[1], c + row[2], d + row[3])
        rows[name] = row
    return rows


def local_elements(program: ProgramIR) -> Dict[str, float]:
    """Per-array maximal local element counts: the geometry :meth:`CostModel.price` reads."""
    return {
        name: float(math.prod(descriptor.max_local_shape()))
        for name, descriptor in program.arrays.items()
    }


def _entry_geometry(
    entries: Mapping[str, SlabPlanEntry]
) -> Tuple[Dict[str, int], Dict[str, float]]:
    slabs = {name: entry.num_slabs for name, entry in entries.items()}
    local = {
        name: float(entry.local_shape[0] * entry.local_shape[1])
        for name, entry in entries.items()
    }
    return slabs, local


def _fused_reads(
    producer: ElementwisePhaseResult, consumer: ElementwisePhaseResult
) -> Tuple[str, ...]:
    """Operand references a fused pair reads: the producer's, then the
    consumer's except the intermediate (never materialized: zero requests,
    zero elements).  An array read by both statements is read twice."""
    return (*producer.operands, *(n for n in consumer.operands if n != producer.result))


def _column_length(analysis: InCorePhaseResult) -> float:
    result_desc = analysis.program.arrays[analysis.result]
    full_dims = analysis.access[analysis.result].full_dims
    return float(result_desc.shape[full_dims[0]]) if full_dims else 1.0


class _Counts(NamedTuple):
    """What a statement moves and computes, before machine parameters apply."""

    rows: Dict[str, Row]
    flops: float
    collective_count: float
    collective_elements_each: float
    itemsize: int
    #: the collectives are all-to-all exchanges (transpose), not global sums
    exchange: bool = False


class CostModel:
    """Converts slab counts into the paper's I/O metrics and a time estimate.

    The access formulas of every statement kind live in ``_reduction_rows`` /
    ``_counts`` and the seconds in :meth:`_price`, once.  :meth:`price` returns
    the resulting scalars — what the allocation policies probe with and the
    plan search compares; :meth:`estimate` wraps the very same numbers into
    the :class:`PlanCost` an :class:`~repro.core.reorganize.AccessPlan`
    carries.
    """

    def __init__(self, params: MachineParameters, nprocs: int) -> None:
        if nprocs < 1:
            raise CostModelError(f"nprocs must be positive, got {nprocs}")
        self.params = params
        self.nprocs = int(nprocs)

    # ------------------------------------------------------------------
    # access counts per statement kind
    # ------------------------------------------------------------------
    def _reduction_rows(
        self,
        analysis: InCorePhaseResult,
        strategy: SlabbingStrategy,
        slabs: Mapping[str, int],
        local: Mapping[str, float],
    ) -> Dict[str, Row]:
        streamed, coefficient, result = analysis.streamed, analysis.coefficient, analysis.result
        for name in (streamed, coefficient, result):
            if name not in slabs:
                raise CostModelError(f"no slab plan entry for array {name!r}")
        n_outer = float(analysis.outer_loop.extent)
        if strategy is SlabbingStrategy.COLUMN:
            # Column slabs of the streamed array: the whole local part is
            # re-fetched for every result column (equations 3 and 4).
            streamed_row = (n_outer * slabs[streamed], n_outer * local[streamed], 0.0, 0.0)
            coefficient_row = _read(slabs[coefficient], local[coefficient])
        elif strategy is SlabbingStrategy.ROW:
            # Row slabs of the streamed array: each slab is fetched exactly
            # once (equations 5 and 6); the coefficient array is re-read once
            # per streamed slab because the loops are reordered around the
            # slab loop.
            streamed_row = _read(slabs[streamed], local[streamed])
            coefficient_row = (
                float(slabs[streamed] * slabs[coefficient]),
                float(slabs[streamed]) * local[coefficient],
                0.0,
                0.0,
            )
        else:  # pragma: no cover - guarded by the public methods
            raise CostModelError(f"unsupported strategy {strategy!r}")
        # A single-operand statement streams and re-reads one array: merging
        # keeps the sum of both access patterns on its row.
        return _merge(
            [
                (streamed, streamed_row),
                (coefficient, coefficient_row),
                (result, _write(slabs[result], local[result])),
            ]
        )

    def _counts(
        self,
        analysis: PhaseResult,
        strategy: SlabbingStrategy,
        slabs: Mapping[str, int],
        local: Mapping[str, float],
    ) -> _Counts:
        arrays = analysis.program.arrays
        if isinstance(analysis, InCorePhaseResult):
            n_outer = float(analysis.outer_loop.extent)
            column_length = _column_length(analysis)
            if not analysis.needs_global_sum:
                collective = (0.0, 0.0)
            elif strategy is SlabbingStrategy.COLUMN:
                collective = (n_outer, column_length)
            else:
                n = slabs[analysis.streamed]
                collective = (n_outer * n, column_length / n if n else column_length)
            return _Counts(
                self._reduction_rows(analysis, strategy, slabs, local),
                analysis.flops_per_proc,
                *collective,
                arrays[analysis.streamed].itemsize,
            )
        if isinstance(analysis, TransposePhaseResult):
            # One read pass, one all-to-all per slab, one write pass.  Every
            # processor swaps 1/P of each streamed slab with every peer, and
            # each processor's slab loop triggers one exchange, so the machine
            # performs P x num_slabs collectives.  The per-pair payload is
            # averaged over the slab loop: the executor exchanges the *actual*
            # slab extent each iteration, so it must telescope to local / P in
            # total, not num_slabs x nominal_slab / P (which overcounts
            # whenever the last slab is partial).
            source, target = analysis.source, analysis.target
            pairs = slabs[source] * self.nprocs
            return _Counts(
                {
                    source: _read(slabs[source], local[source]),
                    target: _write(slabs[target], local[target]),
                },
                0.0,
                float(pairs) if analysis.needs_exchange else 0.0,
                local[source] / max(pairs, 1),
                arrays[source].itemsize,
                exchange=True,
            )
        reads = (
            _fused_reads(analysis.producer, analysis.consumer)
            if isinstance(analysis, FusedElementwisePhase)
            else analysis.operands
        )
        return self._stream_counts(
            reads, analysis.result, analysis.flops_per_proc,
            arrays[analysis.result].itemsize, slabs, local,
        )

    @staticmethod
    def _stream_counts(
        reads: Iterable[str],
        result: str,
        flops: float,
        itemsize: int,
        slabs: Mapping[str, int],
        local: Mapping[str, float],
    ) -> _Counts:
        """Elementwise statements and fused pairs: one pass per operand
        reference, one write pass, no communication (all arrays share one
        distribution).  The volume is slabbing-invariant; only the request
        counts depend on the slab size."""
        accesses = [(name, _read(slabs[name], local[name])) for name in reads]
        accesses.append((result, _write(slabs[result], local[result])))
        return _Counts(_merge(accesses), flops, 0.0, 0.0, itemsize)

    # ------------------------------------------------------------------
    # counts -> seconds
    # ------------------------------------------------------------------
    def _price(self, counts: _Counts) -> Price:
        itemsize = counts.itemsize
        read_requests, read_elements, write_requests, write_elements = map(
            sum, zip(*counts.rows.values(), strict=True)
        )
        disk = self.params.disk
        io_time = disk.read_time(
            read_elements * itemsize, int(round(read_requests)), contention=self.nprocs
        )
        io_time += disk.write_time(
            write_elements * itemsize, int(round(write_requests)), contention=self.nprocs
        )
        network = self.params.network
        each = counts.collective_elements_each
        comm_time = 0.0
        if counts.exchange:
            comm_time = counts.collective_count * (
                (self.nprocs - 1) * network.point_to_point_time(int(each * itemsize))
            )
        elif counts.collective_count and self.nprocs > 1:
            comm_time = counts.collective_count * network.reduce_time(
                each * itemsize, self.nprocs, nelements=each
            )
        return Price(
            io_time,
            self.params.processor.compute_time(counts.flops),
            comm_time,
            read_elements + write_elements,
            read_requests + write_requests,
        )

    def _plan_cost(
        self, strategy: Optional[SlabbingStrategy], counts: _Counts, label: Optional[str] = None
    ) -> PlanCost:
        price = self._price(counts)
        return PlanCost(
            strategy=strategy,
            arrays={name: ArrayIOCost(name, *row) for name, row in counts.rows.items()},
            flops=counts.flops,
            collective_count=counts.collective_count,
            collective_elements_each=counts.collective_elements_each,
            itemsize=counts.itemsize,
            nprocs=self.nprocs,
            io_time=price.io_time,
            compute_time=price.compute_time,
            comm_time=price.comm_time,
            label=label,
        )

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def price(
        self,
        analysis: PhaseResult,
        strategy: SlabbingStrategy | str,
        slabs: Mapping[str, int],
        local: Optional[Mapping[str, float]] = None,
    ) -> Price:
        """Scalar cost of a statement of any kind from integer slab counts.

        ``slabs`` maps each array to the number of slabs its local part is cut
        into; ``local`` is :func:`local_elements` of the statement's program
        (pass it when pricing the same statement repeatedly).  No plan entry,
        per-array cost or :class:`PlanCost` is built — and the numbers are
        exactly those :meth:`estimate` reports for entries with these counts.
        """
        if local is None:
            local = local_elements(analysis.program)
        return self._price(
            self._counts(analysis, SlabbingStrategy.from_name(strategy), slabs, local)
        )

    def price_fused(
        self,
        producer: ElementwisePhaseResult,
        consumer: ElementwisePhaseResult,
        entries: Mapping[str, SlabPlanEntry],
    ) -> Price:
        """:meth:`price` of the pair fused, from the two statements' analyses
        and merged plan entries — what the plan search needs to rank a fusion
        mask, without the pair's program, phase or node program."""
        slabs, local = _entry_geometry(entries)
        return self._price(
            self._stream_counts(
                _fused_reads(producer, consumer),
                consumer.result,
                producer.flops_per_proc + consumer.flops_per_proc,
                consumer.program.arrays[consumer.result].itemsize,
                slabs,
                local,
            )
        )

    def estimate(
        self,
        analysis: PhaseResult,
        strategy: SlabbingStrategy | str,
        entries: Mapping[str, SlabPlanEntry],
    ) -> PlanCost:
        """Estimate the cost of running the statement with the given slabbing.

        For a fused pair the intermediate — written and read back by the
        unfused plan — carries *no* :class:`ArrayIOCost` at all, which is
        exactly the saving fusion buys (a full write+read round-trip plus its
        seeks).  The transpose lowering always streams column slabs.
        """
        strategy = SlabbingStrategy.from_name(strategy)
        counts = self._counts(analysis, strategy, *_entry_geometry(entries))
        if isinstance(analysis, FusedElementwisePhase):
            return self._plan_cost(strategy, counts, f"fused {strategy.value}-slab")
        if isinstance(analysis, TransposePhaseResult):
            strategy = SlabbingStrategy.COLUMN
        return self._plan_cost(strategy, counts)
