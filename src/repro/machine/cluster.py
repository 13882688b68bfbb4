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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import MachineConfigurationError
from repro.machine.clock import ClockSet
from repro.machine.disk import DiskModel
from repro.machine.metrics import MetricsSet
from repro.machine.network import NetworkModel
from repro.machine.parameters import MachineParameters, get_preset, touchstone_delta
from repro.machine.processor import ProcessorModel

__all__ = ["ColumnLane", "Machine"]


@dataclasses.dataclass(frozen=True)
class ColumnLane:
    """One rank's side of a column block (see :meth:`Machine.charge_column_block`).

    ``steps`` are the rank's per-column charges resolved to
    ``(is_read, seconds, flops)``; ``now`` is the clock the rank enters the
    block with.  Plain data, so the process backend ships lanes between rank
    workers.
    """

    rank: int
    now: float
    steps: Tuple[Tuple[bool, float, float], ...]
    read_nbytes: int
    read_requests: int


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
    # column blocks: ncols x (per-rank steps, synchronise, global sum)
    # ------------------------------------------------------------------
    def column_lane(self, rank: int, steps: Sequence[tuple]) -> ColumnLane:
        """Resolve ``rank``'s per-column step list to seconds, once per block.

        A step is ``("read", nbytes, nrequests)`` or ``("compute", flops)``,
        checked and priced exactly as :meth:`charge_read` /
        :meth:`charge_compute` would; nothing is charged yet.
        """
        self._check_rank(rank)
        resolved = []
        read_nbytes = read_requests = 0
        for step in steps:
            if step[0] == "read":
                _, nbytes, nrequests = step
                DiskModel._check(nbytes, nrequests)
                seconds = self.params.disk.read_time(nbytes, nrequests, contention=self.nprocs)
                resolved.append((True, seconds, 0.0))
                read_nbytes += nbytes
                read_requests += nrequests
            elif step[0] == "compute":
                flops = step[1]
                if flops < 0:
                    raise MachineConfigurationError(f"negative flop count {flops}")
                resolved.append((False, self.params.processor.compute_time(flops), flops))
            else:
                raise MachineConfigurationError(f"unknown column-block step {step!r}")
        return ColumnLane(rank, self.clocks[rank].now, tuple(resolved),
                          read_nbytes, read_requests)

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

        Equivalent, bit for bit, to ``ncols`` repetitions of "every rank's
        :meth:`charge_read` / :meth:`charge_compute` steps in order, then
        :meth:`charge_global_sum` ``(nbytes, nelements)``".  Clocks and busy
        times are floats, so their running sums cannot be closed: the same
        additions are replayed in the same per-rank order on local floats,
        while the integer counters are added in closed form.

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

        ranks = range(nprocs)
        lane_steps = [lane.steps for lane in lanes]
        now = [lane.now for lane in lanes]
        io_time = [self.clocks[r].io_time for r in ranks]
        compute_time = [self.clocks[r].compute_time for r in ranks]
        comm_time = [self.clocks[r].comm_time for r in ranks]
        idle_time = [self.clocks[r].idle_time for r in ranks]
        disk_busy = [self.disks[r].busy_time for r in ranks]
        proc_busy = [self.processors[r].busy_time for r in ranks]
        proc_flops = [self.processors[r].flops for r in ranks]
        counted_flops = [self.metrics[r].flops for r in ranks]
        network_busy = self.network.busy_time

        for _ in range(ncols):
            for r in ranks:
                t = now[r]
                io, disk = io_time[r], disk_busy[r]
                compute, busy = compute_time[r], proc_busy[r]
                done, counted = proc_flops[r], counted_flops[r]
                for is_read, seconds, flops in lane_steps[r]:
                    if is_read:
                        disk += seconds
                        t += seconds
                        io += seconds
                    else:
                        done += flops
                        busy += seconds
                        counted += flops
                        t += seconds
                        compute += seconds
                now[r] = t
                io_time[r], disk_busy[r] = io, disk
                compute_time[r], proc_busy[r] = compute, busy
                proc_flops[r], counted_flops[r] = done, counted
            target = max(now)
            for r in ranks:
                gap = target - now[r]
                if gap > 0:
                    now[r] += gap
                    idle_time[r] += gap
                now[r] += sum_seconds
                comm_time[r] += sum_seconds
            network_busy += sum_seconds

        self.network.messages += ncols * rounds
        self.network.bytes_moved += ncols * rounds * nbytes
        self.network.collectives += ncols
        self.network.busy_time = network_busy
        for r in owned:
            lane = lanes[r]
            disk_model, counters = self.disks[r], self.metrics[r]
            disk_model.read_requests += ncols * lane.read_requests
            disk_model.bytes_read += ncols * lane.read_nbytes
            disk_model.busy_time = disk_busy[r]
            counters.io_read_requests += ncols * lane.read_requests
            counters.bytes_read += ncols * lane.read_nbytes
            counters.flops = counted_flops[r]
            counters.collectives += ncols
            counters.messages += ncols * rounds
            counters.bytes_communicated += ncols * rounds * nbytes
            self.processors[r].flops = proc_flops[r]
            self.processors[r].busy_time = proc_busy[r]
            clock = self.clocks[r]
            clock.now = now[r]
            clock.io_time, clock.compute_time = io_time[r], compute_time[r]
            clock.comm_time, clock.idle_time = comm_time[r], idle_time[r]

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
