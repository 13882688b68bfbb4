"""Machine parameter sets.

The conversion from counted operations (I/O requests, bytes, flops, messages)
into simulated seconds is controlled by three parameter groups — disk,
network and processor — bundled into a :class:`MachineParameters` object.

The :func:`touchstone_delta` preset is calibrated so that the reproduction of
the paper's experiments lands in the same regime as the published numbers:
an effective per-processor disk bandwidth around 1 MB/s with a large
per-request overhead (the Delta's Concurrent File System was shared by all
nodes and each request paid seek + software overhead), an effective compute
rate of a few MFLOP/s (the i860's achieved rate on Fortran column operations,
far below its peak), and an NX-style network with tens of microseconds of
latency.  Absolute seconds are *not* expected to match the 1994 measurements;
the relative behaviour (column-slab vs row-slab, slab-ratio trends, processor
scaling) is.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict

from repro.exceptions import MachineConfigurationError

__all__ = [
    "DiskParameters",
    "NetworkParameters",
    "ProcessorParameters",
    "MachineParameters",
    "touchstone_delta",
    "intel_paragon",
    "ibm_sp1",
    "modern_cluster",
    "PRESETS",
    "get_preset",
]


def _require_positive(name: str, value: float) -> float:
    if value <= 0:
        raise MachineConfigurationError(f"{name} must be positive, got {value}")
    return float(value)


def _require_non_negative(name: str, value: float) -> float:
    if value < 0:
        raise MachineConfigurationError(f"{name} must be non-negative, got {value}")
    return float(value)


@dataclasses.dataclass(frozen=True)
class DiskParameters:
    """I/O subsystem cost parameters.

    ``request_latency`` is charged once per I/O request (seek, rotational
    delay and file-system software overhead); ``read_bandwidth`` and
    ``write_bandwidth`` convert bytes into transfer seconds.

    ``shared`` selects between the two I/O architectures of the paper's
    architectural model:

    * ``shared=True`` — a common set of disks behind dedicated I/O nodes
      (Intel Touchstone Delta / Paragon).  ``read_bandwidth`` is then the
      *aggregate* bandwidth of the I/O subsystem; when ``P`` processors
      access their Local Array Files concurrently each sees roughly
      ``bandwidth / P`` (the ``contention`` argument of
      :meth:`read_time` / :meth:`write_time`).
    * ``shared=False`` — one private disk per node (IBM SP-1).
      ``read_bandwidth`` is per disk and contention has no effect.

    Request latency is not scaled by contention: the I/O nodes service
    requests from different processors concurrently.
    """

    request_latency: float = 0.02          # seconds per I/O request
    read_bandwidth: float = 1.2e6          # bytes / second (aggregate when shared)
    write_bandwidth: float = 1.0e6         # bytes / second (aggregate when shared)
    shared: bool = False

    def __post_init__(self) -> None:
        _require_non_negative("request_latency", self.request_latency)
        _require_positive("read_bandwidth", self.read_bandwidth)
        _require_positive("write_bandwidth", self.write_bandwidth)

    def _contention_factor(self, contention: int) -> float:
        if contention < 1:
            raise MachineConfigurationError(f"contention must be at least 1, got {contention}")
        return float(contention) if self.shared else 1.0

    def read_time(self, nbytes: int, nrequests: int = 1, contention: int = 1) -> float:
        """Seconds to read ``nbytes`` in ``nrequests`` requests.

        ``contention`` is the number of processors concurrently using the I/O
        subsystem (only relevant for shared disks).
        """
        factor = self._contention_factor(contention)
        return nrequests * self.request_latency + nbytes * factor / self.read_bandwidth

    def write_time(self, nbytes: int, nrequests: int = 1, contention: int = 1) -> float:
        """Seconds to write ``nbytes`` in ``nrequests`` requests."""
        factor = self._contention_factor(contention)
        return nrequests * self.request_latency + nbytes * factor / self.write_bandwidth


@dataclasses.dataclass(frozen=True)
class NetworkParameters:
    """Interconnect cost parameters.

    Point-to-point messages cost ``latency + nbytes / bandwidth``.  Collective
    operations are modelled as ``ceil(log2 P)`` rounds of point-to-point
    messages plus (for reductions) the combining arithmetic, which matches the
    tree algorithms used by NX / MPI implementations of the era.
    """

    latency: float = 80e-6                 # seconds per message
    bandwidth: float = 30e6                # bytes / second
    reduction_flop_time: float = 0.0       # extra seconds per element combined (0: folded into compute)

    def __post_init__(self) -> None:
        _require_non_negative("latency", self.latency)
        _require_positive("bandwidth", self.bandwidth)
        _require_non_negative("reduction_flop_time", self.reduction_flop_time)

    def point_to_point_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth

    def collective_rounds(self, nprocs: int) -> int:
        """Number of communication rounds of a binomial-tree collective."""
        if nprocs < 1:
            raise MachineConfigurationError(f"nprocs must be positive, got {nprocs}")
        rounds = 0
        span = 1
        while span < nprocs:
            span *= 2
            rounds += 1
        return rounds

    def reduce_time(self, nbytes: int, nprocs: int, nelements: int | None = None) -> float:
        """Seconds for a tree reduction of ``nbytes`` across ``nprocs`` processors."""
        rounds = self.collective_rounds(nprocs)
        time = rounds * self.point_to_point_time(nbytes)
        if nelements is not None:
            time += rounds * nelements * self.reduction_flop_time
        return time

    def broadcast_time(self, nbytes: int, nprocs: int) -> float:
        """Seconds for a tree broadcast of ``nbytes`` to ``nprocs`` processors."""
        return self.collective_rounds(nprocs) * self.point_to_point_time(nbytes)


@dataclasses.dataclass(frozen=True)
class ProcessorParameters:
    """Compute-node cost parameters."""

    flop_time: float = 2.8e-7              # seconds per floating point operation (~3.6 MFLOP/s)
    memory_bytes: int = 16 * 1024 * 1024   # node memory available for ICLAs
    memory_copy_bandwidth: float = 80e6    # bytes / second for local copies / packing

    def __post_init__(self) -> None:
        _require_non_negative("flop_time", self.flop_time)
        if self.memory_bytes <= 0:
            raise MachineConfigurationError(f"memory_bytes must be positive, got {self.memory_bytes}")
        _require_positive("memory_copy_bandwidth", self.memory_copy_bandwidth)

    def compute_time(self, flops: float) -> float:
        return flops * self.flop_time


@dataclasses.dataclass(frozen=True)
class MachineParameters:
    """Complete parameter set for a simulated machine."""

    name: str = "touchstone-delta"
    disk: DiskParameters = dataclasses.field(default_factory=DiskParameters)
    network: NetworkParameters = dataclasses.field(default_factory=NetworkParameters)
    processor: ProcessorParameters = dataclasses.field(default_factory=ProcessorParameters)

    def describe(self) -> str:
        return (
            f"{self.name}: disk {self.disk.read_bandwidth / 1e6:.2f} MB/s read "
            f"(+{self.disk.request_latency * 1e3:.1f} ms/request), "
            f"network {self.network.bandwidth / 1e6:.1f} MB/s "
            f"(+{self.network.latency * 1e6:.0f} us/msg), "
            f"cpu {1.0 / self.processor.flop_time / 1e6:.1f} MFLOP/s, "
            f"{self.processor.memory_bytes // (1024 * 1024)} MB/node"
        )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def touchstone_delta() -> MachineParameters:
    """Intel Touchstone Delta-like parameters (the paper's testbed).

    The Concurrent File System is modelled as a shared I/O subsystem with an
    aggregate bandwidth of a few MB/s — the effective rate the paper's
    numbers imply once all processors stream their Local Array Files
    concurrently.
    """
    return MachineParameters(
        name="touchstone-delta",
        disk=DiskParameters(
            request_latency=0.02, read_bandwidth=6.0e6, write_bandwidth=5.0e6, shared=True
        ),
        network=NetworkParameters(latency=80e-6, bandwidth=30e6),
        processor=ProcessorParameters(flop_time=2.8e-7, memory_bytes=16 * 1024 * 1024),
    )


def intel_paragon() -> MachineParameters:
    """Intel Paragon-like parameters (shared PFS disks, faster nodes)."""
    return MachineParameters(
        name="intel-paragon",
        disk=DiskParameters(
            request_latency=0.015, read_bandwidth=12.0e6, write_bandwidth=10.0e6, shared=True
        ),
        network=NetworkParameters(latency=40e-6, bandwidth=80e6),
        processor=ProcessorParameters(flop_time=1.5e-7, memory_bytes=32 * 1024 * 1024),
    )


def ibm_sp1() -> MachineParameters:
    """IBM SP-1-like parameters (one local disk per node)."""
    return MachineParameters(
        name="ibm-sp1",
        disk=DiskParameters(request_latency=0.012, read_bandwidth=3.0e6, write_bandwidth=2.5e6),
        network=NetworkParameters(latency=60e-6, bandwidth=35e6),
        processor=ProcessorParameters(flop_time=1.0e-7, memory_bytes=64 * 1024 * 1024),
    )


def modern_cluster() -> MachineParameters:
    """A contemporary cluster (NVMe + fast interconnect) for what-if studies."""
    return MachineParameters(
        name="modern-cluster",
        disk=DiskParameters(request_latency=100e-6, read_bandwidth=2.0e9, write_bandwidth=1.5e9),
        network=NetworkParameters(latency=2e-6, bandwidth=12e9),
        processor=ProcessorParameters(flop_time=1.0e-10, memory_bytes=64 * 1024 * 1024 * 1024),
    )


PRESETS: Dict[str, Callable[[], MachineParameters]] = {
    "touchstone-delta": touchstone_delta,
    "delta": touchstone_delta,
    "intel-paragon": intel_paragon,
    "paragon": intel_paragon,
    "ibm-sp1": ibm_sp1,
    "sp1": ibm_sp1,
    "modern-cluster": modern_cluster,
    "modern": modern_cluster,
}


def get_preset(name: str) -> MachineParameters:
    """Return the named preset, raising a helpful error for unknown names."""
    key = name.strip().lower()
    if key not in PRESETS:
        raise MachineConfigurationError(
            f"unknown machine preset {name!r}; available: {sorted(set(PRESETS))}"
        )
    return PRESETS[key]()
