"""The :class:`Machine`: a complete simulated distributed-memory computer.

A machine bundles, for ``P`` processors:

* one :class:`~repro.machine.processor.ProcessorModel` per compute node,
* one :class:`~repro.machine.disk.DiskModel` per logical disk (the paper's
  data storage model pairs each processor with a logical disk holding its
  Local Array File),
* a shared :class:`~repro.machine.network.NetworkModel`,
* a :class:`~repro.machine.clock.ClockSet` of per-processor clocks, and
* a :class:`~repro.machine.metrics.MetricsSet` of per-processor counters.

The machine exposes *charge* methods used by the runtime: they update the
appropriate cost model, counters and clock together so the three views can
never drift apart.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import struct
from itertools import chain, repeat
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import MachineConfigurationError
from repro.machine.clock import ClockSet
from repro.machine.disk import DiskModel
from repro.machine.metrics import MetricsSet
from repro.machine.network import NetworkModel
from repro.machine.parameters import MachineParameters, get_preset, touchstone_delta
from repro.machine.processor import ProcessorModel

__all__ = ["ColumnLane", "Machine", "fold"]


@dataclasses.dataclass(frozen=True)
class ColumnLane:
    """One rank's side of a column block (see :meth:`Machine.charge_column_block`).

    ``steps`` are the rank's per-column charges resolved to
    ``(is_read, seconds, flops)``; ``prefix`` the one-off charges, resolved
    the same way, the rank makes once before the block's first column (a
    read that opens the block, say).  ``now`` is the clock the rank enters
    the block with, before its prefix.  Plain data, so the process backend
    ships lanes — prefixes included — between rank workers.
    """

    rank: int
    now: float
    steps: Tuple[Tuple[bool, float, float], ...]
    read_nbytes: int
    read_requests: int
    prefix: Tuple[Tuple[bool, float, float], ...] = ()
    prefix_read_nbytes: int = 0
    prefix_read_requests: int = 0


def fold(start: float, values: Sequence[float], count: int = 1) -> float:
    """``start`` plus ``values`` repeated ``count`` times, added one at a time,
    left to right.

    The scalar ``+=`` loop, run in C: the same additions in the same order,
    so the same float on every Python.  Never ``sum`` (it compensates float
    sums from Python 3.12 on), ``math.fsum`` or ``np.sum`` (pairwise): each
    rounds differently.  The machine's clocks fold their charges with it, and
    the cost model and the plan search their predicted times.
    """
    if count == 1 or not values:
        return functools.reduce(operator.add, values, start)
    if len(values) == 1:
        return functools.reduce(operator.add, repeat(values[0], count), start)
    return functools.reduce(operator.add, chain.from_iterable(repeat(values, count)), start)


_SECONDS = operator.itemgetter(1)  # of a priced step or a column-block step

#: the bits of a row of seven float accumulators: a memo key equal only for
#: bit-identical rows (0.0 and -0.0 compare equal but fold apart)
_ROW = struct.Struct("7d")


def _fold_row(row: Sequence[float], additions: Sequence[Sequence[float]],
              count: int) -> Tuple[float, ...]:
    """Each of the seven accumulators of ``row`` folded (:func:`fold`) with its
    additions; bit-identical pairs — a clock's ``io_time`` and its disk's busy
    time, say — fold once, and one with nothing to add keeps its value."""
    bits = _ROW.pack(*row)
    done: Dict[tuple, float] = {}
    folded = []
    for i, (start, values) in enumerate(zip(row, additions, strict=True)):
        if not values:
            folded.append(start)
            continue
        key = (bits[8 * i: 8 * i + 8], values)
        if key not in done:
            done[key] = fold(start, values, count)
        folded.append(done[key])
    return tuple(folded)


class Machine:
    """A simulated distributed-memory machine with ``nprocs`` compute nodes."""

    def __init__(self, nprocs: int, params: MachineParameters | str | None = None):
        if nprocs < 1:
            raise MachineConfigurationError(f"a machine needs at least one processor, got {nprocs}")
        if params is None:
            params = touchstone_delta()
        elif isinstance(params, str):
            params = get_preset(params)
        self.nprocs = int(nprocs)
        self.params = params
        self.processors: List[ProcessorModel] = [
            ProcessorModel(params=params.processor, rank=r) for r in range(nprocs)
        ]
        self.disks: List[DiskModel] = [DiskModel(params=params.disk) for _ in range(nprocs)]
        self.network = NetworkModel(params=params.network)
        self.clocks = ClockSet(nprocs)
        self.metrics = MetricsSet(nprocs)
        #: every step :meth:`_price` accepted, priced (the parameters are frozen)
        self._prices: Dict[tuple, Tuple[str, float, int, int, float]] = {}

    # ------------------------------------------------------------------
    # charge methods (cost + counters + clock updated together)
    # ------------------------------------------------------------------
    def charge_read(self, rank: int, nbytes: int, nrequests: int = 1) -> float:
        """Charge processor ``rank`` for reading ``nbytes`` from its logical disk.

        For shared-disk machines (Delta/Paragon style) the whole machine is
        assumed to be doing I/O concurrently, so the contention factor is the
        number of processors.
        """
        seconds = self.disks[rank].read(nbytes, nrequests, contention=self.nprocs)
        self.metrics[rank].record_read(nbytes, nrequests)
        self.clocks[rank].advance(seconds, "io")
        return seconds

    def charge_write(self, rank: int, nbytes: int, nrequests: int = 1) -> float:
        """Charge processor ``rank`` for writing ``nbytes`` to its logical disk."""
        seconds = self.disks[rank].write(nbytes, nrequests, contention=self.nprocs)
        self.metrics[rank].record_write(nbytes, nrequests)
        self.clocks[rank].advance(seconds, "io")
        return seconds

    def charge_compute(self, rank: int, flops: float) -> float:
        """Charge processor ``rank`` for ``flops`` floating point operations."""
        seconds = self.processors[rank].compute(flops)
        self.metrics[rank].record_compute(flops)
        self.clocks[rank].advance(seconds, "compute")
        return seconds

    def charge_global_sum(self, nbytes: int, nelements: Optional[int] = None) -> float:
        """Charge every processor for a global sum (all-reduce) of ``nbytes``.

        All clocks are synchronized first (a blocking collective makes the
        slowest processor set the pace) and then advanced by the collective
        time.
        """
        self.clocks.synchronize()
        seconds = self.network.global_sum(nbytes, self.nprocs, nelements)
        rounds = self.network.params.collective_rounds(self.nprocs)
        for rank in range(self.nprocs):
            self.metrics[rank].record_collective(rounds, rounds * nbytes)
            self.clocks[rank].advance(seconds, "comm")
        return seconds

    # ------------------------------------------------------------------
    # lanes and column blocks: many scalar charges folded into one call
    # ------------------------------------------------------------------
    def _price(self, step: tuple) -> Tuple[str, float, int, int, float]:
        """``(kind, seconds, nbytes, nrequests, flops)`` of one step, checked
        exactly as :meth:`charge_read` / :meth:`charge_write` /
        :meth:`charge_compute` check it (the clock's refusal of negative
        seconds included); nothing is charged.  Each distinct step is
        checked and priced once per machine; a refused one every time."""
        price = self._prices.get(step)
        if price is None:
            price = self._prices[step] = self._check_and_price(step)
        return price

    def _check_and_price(self, step: tuple) -> Tuple[str, float, int, int, float]:
        kind = step[0]
        if kind == "read" or kind == "write":
            _, nbytes, nrequests = step
            DiskModel._check(nbytes, nrequests)
            price = self.params.disk.read_time if kind == "read" else self.params.disk.write_time
            seconds = price(nbytes, nrequests, contention=self.nprocs)
            flops = 0.0
        elif kind == "compute":
            _, flops = step
            if flops < 0:
                raise MachineConfigurationError(f"negative flop count {flops}")
            seconds = self.params.processor.compute_time(flops)
            nbytes = nrequests = 0
        else:
            raise MachineConfigurationError(f"unknown charge step {step!r}")
        if seconds < 0:
            raise MachineConfigurationError(f"cannot advance clock by negative time {seconds}")
        return kind, seconds, nbytes, nrequests, flops

    def charge_lane(self, lanes: Mapping[int, Sequence[Tuple[Sequence[tuple], int]]]) -> None:
        """Charge every rank of ``lanes`` its lane: a run of scalar charges in one call.

        A lane is a list of runs ``(steps, count)``: ``steps`` — each
        ``("read" | "write", nbytes, nrequests)`` or ``("compute", flops)`` —
        charged in order, ``count`` times over.  Equivalent, bit for bit, to
        making those :meth:`charge_read` / :meth:`charge_write` /
        :meth:`charge_compute` calls one by one.  Each distinct step is checked
        and priced once, every lane before anything is charged, so a refused
        lane leaves the machine unmoved.  Then every float accumulator — the
        clock's ``now``, ``io_time`` and ``compute_time``, the disk's and the
        processor's busy times and both flop totals — is a left fold
        (:func:`fold`) over exactly the additions the scalar calls would make
        to it, in their order, once for all ranks with equal lanes and
        accumulators; the integer counters are added in closed form.  A lane
        meets no synchronisation, so unlike a column block's its ``now``
        folds too.
        """
        resolved = {}
        for rank, runs in lanes.items():
            self._check_rank(rank)
            resolved[rank] = []
            for steps, count in runs:
                if count < 0:
                    raise MachineConfigurationError(f"negative run length {count}")
                resolved[rank].append((tuple(map(self._price, steps)), count))

        folded: Dict[tuple, tuple] = {}  # ranks with equal lanes and rows fold once
        for rank, runs in resolved.items():
            clock, disk = self.clocks[rank], self.disks[rank]
            processor, counters = self.processors[rank], self.metrics[rank]
            row = (clock.now, clock.io_time, disk.busy_time, clock.compute_time,
                   processor.busy_time, processor.flops, counters.flops)
            key = (tuple(runs), _ROW.pack(*row))
            if key not in folded:
                for steps, count in runs:
                    seconds = tuple(map(_SECONDS, steps))
                    io = tuple(step[1] for step in steps if step[0] != "compute")
                    compute = tuple(step[1] for step in steps if step[0] == "compute")
                    flops = tuple(step[4] for step in steps if step[0] == "compute")
                    row = _fold_row(row, (seconds, io, io, compute, compute, flops, flops), count)
                folded[key] = row
            (clock.now, clock.io_time, disk.busy_time, clock.compute_time,
             processor.busy_time, processor.flops, counters.flops) = folded[key]
            for steps, count in runs:
                for kind, _, nbytes, nrequests, _ in steps:
                    if kind == "read":
                        disk.bytes_read += count * nbytes
                        disk.read_requests += count * nrequests
                        counters.bytes_read += count * nbytes
                        counters.io_read_requests += count * nrequests
                    elif kind == "write":
                        disk.bytes_written += count * nbytes
                        disk.write_requests += count * nrequests
                        counters.bytes_written += count * nbytes
                        counters.io_write_requests += count * nrequests

    def column_lane(self, rank: int, steps: Sequence[tuple],
                    prefix: Sequence[tuple] = ()) -> ColumnLane:
        """Resolve ``rank``'s per-column step list, and the ``prefix`` of
        one-off steps that opens the block, to seconds, once per block.

        A step is ``("read", nbytes, nrequests)`` or ``("compute", flops)``,
        checked and priced exactly as :meth:`charge_read` /
        :meth:`charge_compute` would (the resolver :meth:`charge_lane` uses);
        nothing is charged yet.
        """
        self._check_rank(rank)
        resolved = self._column_steps(steps)
        if prefix:
            resolved += self._column_steps(prefix)
        return ColumnLane(rank, self.clocks[rank].now, *resolved)

    def _column_steps(self, steps: Sequence[tuple]) -> Tuple[tuple, int, int]:
        """``(resolved steps, read bytes, read requests)`` of a column-block step list."""
        resolved = []
        read_nbytes = read_requests = 0
        for step in steps:
            if step[0] not in ("read", "compute"):
                raise MachineConfigurationError(f"unknown column-block step {step!r}")
            kind, seconds, nbytes, nrequests, flops = self._price(step)
            resolved.append((kind == "read", seconds, flops))
            read_nbytes += nbytes
            read_requests += nrequests
        return tuple(resolved), read_nbytes, read_requests

    def charge_column_block(
        self,
        lanes: Sequence[ColumnLane],
        ncols: int,
        nbytes: int,
        nelements: Optional[int] = None,
        *,
        owned: Optional[Iterable[int]] = None,
    ) -> None:
        """Charge ``ncols`` result columns: each rank's steps, then a global sum.

        Equivalent, bit for bit, to every rank's prefix steps, once, then
        ``ncols`` repetitions of "every rank's :meth:`charge_read` /
        :meth:`charge_compute` steps in order, then
        :meth:`charge_global_sum` ``(nbytes, nelements)``".  A prefix meets
        no synchronisation before the first column's, so it is one more left
        fold into each rank's accumulators, ``now`` included.  The integer
        counters are added in closed form.  Every float accumulator the
        per-column synchronisation never touches — the clock's ``io_time``,
        ``compute_time`` and ``comm_time``, the disk's and the processor's
        busy times, both flop totals and the network's busy time — is a left
        fold (:func:`fold`) over the additions the scalar calls would make to
        it, in their order — once for all ranks with equal lanes and
        accumulators, as SPMD ranks mostly are.

        ``now`` and ``idle_time`` meet the synchronisation: each column's
        gap depends on every rank's clock, so they keep a per-column loop —
        but only while it can matter.  Once every lane's steps cost the same
        and every clock is equal, each gap is 0 and the rest of the block is
        one fold of ``steps + (sum_seconds,)``; the loop is the path for
        unequal clocks.

        ``lanes`` holds one :class:`ColumnLane` per rank in rank order, built
        by :meth:`column_lane` right before the call.  Every lane takes part
        in the per-column synchronisation maximum; only the ``owned`` ranks'
        rows (default: all) and this process's network model are written
        back, so a rank worker replays its peers' clocks from the lanes they
        sent without touching their rows.
        """
        nprocs = self.nprocs
        if [lane.rank for lane in lanes] != list(range(nprocs)):
            raise MachineConfigurationError(
                f"a column block needs one lane per rank 0..{nprocs - 1} in order, "
                f"got ranks {[lane.rank for lane in lanes]}"
            )
        if ncols < 0:
            raise MachineConfigurationError(f"negative column count {ncols}")
        NetworkModel._check_collective(nbytes, nprocs)
        owned = tuple(range(nprocs)) if owned is None else tuple(owned)
        for rank in owned:
            self._check_rank(rank)
        sum_seconds = self.params.network.reduce_time(nbytes, nprocs, nelements)
        rounds = self.params.network.collective_rounds(nprocs)

        # now / idle: per column while the synchronisation can make a gap
        ranks = range(nprocs)
        seconds = [tuple(map(_SECONDS, lane.steps)) for lane in lanes]
        now = [functools.reduce(operator.add, map(_SECONDS, lane.prefix), lane.now)
               for lane in lanes]
        idle_time = [self.clocks[r].idle_time for r in ranks]
        uniform = all(lane_seconds == seconds[0] for lane_seconds in seconds)
        done = 0
        while done < ncols and not (uniform and all(t == now[0] for t in now)):
            for r in ranks:
                t = now[r]
                for step_seconds in seconds[r]:
                    t += step_seconds
                now[r] = t
            target = max(now)
            for r in ranks:
                gap = target - now[r]
                if gap > 0:
                    now[r] += gap
                    idle_time[r] += gap
                now[r] += sum_seconds
            done += 1
        if done < ncols:
            now = [fold(now[0], seconds[0] + (sum_seconds,), ncols - done)] * nprocs

        self.network.messages += ncols * rounds
        self.network.bytes_moved += ncols * rounds * nbytes
        self.network.collectives += ncols
        self.network.busy_time = fold(self.network.busy_time, (sum_seconds,), ncols)
        folded: Dict[tuple, tuple] = {}  # ranks with equal lanes and rows fold once
        for r in owned:
            lane = lanes[r]
            clock, disk_model = self.clocks[r], self.disks[r]
            processor, counters = self.processors[r], self.metrics[r]
            row = (clock.io_time, disk_model.busy_time, clock.compute_time,
                   processor.busy_time, processor.flops, counters.flops, clock.comm_time)
            key = (lane.prefix, lane.steps, _ROW.pack(*row))
            if key not in folded:
                for steps, count, comm in ((lane.prefix, 1, ()),
                                           (lane.steps, ncols, (sum_seconds,))):
                    io = tuple(s for is_read, s, _ in steps if is_read)
                    compute = tuple(s for is_read, s, _ in steps if not is_read)
                    flops = tuple(f for is_read, _, f in steps if not is_read)
                    row = _fold_row(row, (io, io, compute, compute, flops, flops, comm), count)
                folded[key] = row
            (clock.io_time, disk_model.busy_time, clock.compute_time,
             processor.busy_time, processor.flops, counters.flops, clock.comm_time) = folded[key]
            clock.now = now[r]
            clock.idle_time = idle_time[r]
            read_requests = lane.prefix_read_requests + ncols * lane.read_requests
            read_nbytes = lane.prefix_read_nbytes + ncols * lane.read_nbytes
            disk_model.read_requests += read_requests
            disk_model.bytes_read += read_nbytes
            counters.io_read_requests += read_requests
            counters.bytes_read += read_nbytes
            counters.collectives += ncols
            counters.messages += ncols * rounds
            counters.bytes_communicated += ncols * rounds * nbytes

    def charge_broadcast(self, nbytes: int) -> float:
        """Charge every processor for a broadcast of ``nbytes``."""
        self.clocks.synchronize()
        seconds = self.network.broadcast(nbytes, self.nprocs)
        rounds = self.network.params.collective_rounds(self.nprocs)
        for rank in range(self.nprocs):
            self.metrics[rank].record_collective(rounds, rounds * nbytes)
            self.clocks[rank].advance(seconds, "comm")
        return seconds

    def charge_all_to_all(self, nbytes_per_pair: int) -> float:
        """Charge every processor for a personalized all-to-all exchange."""
        self.clocks.synchronize()
        seconds = self.network.all_to_all(nbytes_per_pair, self.nprocs)
        exchanges = max(self.nprocs - 1, 0)
        for rank in range(self.nprocs):
            self.metrics[rank].record_collective(exchanges, exchanges * nbytes_per_pair)
            self.clocks[rank].advance(seconds, "comm")
        return seconds

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> int:
        if not 0 <= rank < self.nprocs:
            raise MachineConfigurationError(f"rank {rank} outside machine of {self.nprocs} processors")
        return rank

    @property
    def memory_per_node(self) -> int:
        """Node memory budget available for In-core Local Arrays (bytes)."""
        return self.params.processor.memory_bytes

    def elapsed(self) -> float:
        """Simulated wall-clock time of the run so far."""
        return self.clocks.elapsed()

    def time_breakdown(self) -> Dict[str, float]:
        """Critical-path time breakdown (max over processors per category)."""
        return self.clocks.breakdown()

    def io_statistics(self) -> Dict[str, float]:
        """The paper's I/O metrics, reported per processor (maximum)."""
        agg = self.metrics.max_per_processor()
        return {
            "io_requests_per_proc": agg["io_requests"],
            "io_read_requests_per_proc": agg["io_read_requests"],
            "io_write_requests_per_proc": agg["io_write_requests"],
            "bytes_read_per_proc": agg["bytes_read"],
            "bytes_written_per_proc": agg["bytes_written"],
        }

    def reset(self) -> None:
        """Clear all clocks, counters and cost-model statistics."""
        for disk in self.disks:
            disk.reset()
        for proc in self.processors:
            proc.reset()
        self.network.reset()
        self.clocks.reset()
        self.metrics.reset()

    def describe(self) -> str:
        return f"Machine(nprocs={self.nprocs}, {self.params.describe()})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
