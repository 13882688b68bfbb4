"""Run-level configuration shared across the library.

The configuration object bundles the knobs a user can turn when running an
out-of-core program: where Local Array Files live, whether execution should
really touch the filesystem or only account costs, and how verbose the
library should be.
"""

from __future__ import annotations

import dataclasses
import enum
import os
import tempfile
from pathlib import Path

__all__ = ["ExecutionMode", "RunConfig", "default_config"]


class ExecutionMode(enum.Enum):
    """How a compiled node program is evaluated.

    ``EXECUTE``
        The node program is executed for real: Local Array Files are created on
        disk, slabs are read and written, and the arithmetic is performed with
        NumPy.  Simulated time is accumulated alongside, and the numerical
        result can be verified against a dense reference.

    ``ESTIMATE``
        Only the cost model runs.  I/O requests, bytes moved, floating point
        operations and messages are derived analytically from the compiled
        schedule and converted to seconds using the machine model.  No files
        are touched and no arithmetic is performed.  This is how the
        paper-scale experiments (1K x 1K and 2K x 2K arrays on up to 64
        processors) are regenerated quickly.
    """

    EXECUTE = "execute"
    ESTIMATE = "estimate"


@dataclasses.dataclass
class RunConfig:
    """Configuration for one run of the out-of-core runtime.

    Every slab read is charged in full to the simulated clock: the paper's
    measured configuration, where no read hides behind computation and no
    slab is served from a reuse buffer.

    Parameters
    ----------
    scratch_dir:
        Directory that holds the Local Array Files of all simulated
        processors.  Defaults to a per-process temporary directory.
    mode:
        :class:`ExecutionMode` selecting real execution or analytic estimation.
    verify:
        When true (and ``mode == EXECUTE``) kernels compare their out-of-core
        result against an in-core dense reference computed with NumPy.
    keep_files:
        When false, Local Array Files are deleted when the owning virtual
        machine shuts down.
    seed:
        Seed of the input operands (:mod:`repro.runtime.operands`): with
        the array name and the global index it fixes every input value, so
        experiments are reproducible on any backend and in any draw order.
    checksums:
        When true (the default) every ``EXECUTE``-mode Local Array File keeps
        a sidecar manifest of slab checksums, written on slab writes and
        verified on reads.  Purely host-side: charged simulated statistics
        are identical with checksums on or off.
    fault_policy:
        Optional :class:`~repro.resilience.faults.FaultPolicy` injecting
        seeded transient I/O errors and slab corruption into ``EXECUTE``-mode
        file accesses.  ``None`` (the default) disables injection entirely.
    io_retries:
        How many times the I/O engine retries a transient fault on one file
        operation before giving up.  Must stay above the fault policy's
        ``max_failures_per_site`` for injected schedules to converge.
    io_retry_backoff_s:
        Base host-side sleep of the exponential backoff between retries
        (attempt ``k`` sleeps ``io_retry_backoff_s * 2**k``).  Host wall
        clock only; the simulated clocks never see it.
    """

    scratch_dir: Path = dataclasses.field(default_factory=lambda: Path(tempfile.gettempdir()) / "repro-laf")
    mode: ExecutionMode = ExecutionMode.EXECUTE
    verify: bool = True
    keep_files: bool = False
    seed: int = 1994  # year of the technical report
    checksums: bool = True
    fault_policy: "object | None" = None  # FaultPolicy; untyped to avoid an import cycle
    io_retries: int = 4
    io_retry_backoff_s: float = 0.001

    def __post_init__(self) -> None:
        self.scratch_dir = Path(self.scratch_dir)
        if isinstance(self.mode, str):  # accept plain strings for convenience
            self.mode = ExecutionMode(self.mode)
        if self.io_retries < 0:
            raise ValueError(f"io_retries must be non-negative, got {self.io_retries}")
        if self.io_retry_backoff_s < 0:
            raise ValueError(
                f"io_retry_backoff_s must be non-negative, got {self.io_retry_backoff_s}"
            )
        if self.fault_policy is not None:
            cap = getattr(self.fault_policy, "max_failures_per_site", 0)
            if cap >= self.io_retries:
                raise ValueError(
                    f"fault_policy.max_failures_per_site ({cap}) must stay below "
                    f"io_retries ({self.io_retries}) or injected faults cannot converge"
                )

    def ensure_scratch_dir(self) -> Path:
        """Create the scratch directory if needed and return it."""
        os.makedirs(self.scratch_dir, exist_ok=True)
        return self.scratch_dir

    def with_mode(self, mode: ExecutionMode | str) -> "RunConfig":
        """Return a copy of this configuration with a different execution mode."""
        return dataclasses.replace(self, mode=ExecutionMode(mode) if isinstance(mode, str) else mode)


def default_config() -> RunConfig:
    """Return a fresh default configuration."""
    return RunConfig()
