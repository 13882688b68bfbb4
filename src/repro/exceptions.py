"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate between front-end (HPF), compilation, runtime and machine
model failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "HPFSyntaxError",
    "HPFSemanticError",
    "DistributionError",
    "AlignmentError",
    "CompilationError",
    "PlanVerificationError",
    "CostModelError",
    "MemoryAllocationError",
    "RuntimeExecutionError",
    "DistributedExecutionError",
    "IOEngineError",
    "TransientIOError",
    "SlabCorruptionError",
    "CollectiveError",
    "MachineConfigurationError",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class HPFSyntaxError(ReproError):
    """Raised by the mini-HPF lexer/parser on malformed source text.

    Carries the source line/column when available so tools can point at the
    offending token.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(f"{message}{location}")


class HPFSemanticError(ReproError):
    """Raised when a syntactically valid program violates HPF semantics.

    Examples: aligning an array with an undeclared template, distributing a
    template onto an undeclared processor arrangement, or referencing an
    undeclared array inside a ``FORALL``.
    """


class DistributionError(ReproError):
    """Raised for invalid data-distribution requests.

    Examples: a global index outside the template extent, a BLOCK distribution
    over zero processors, or asking for the local bounds of a rank outside the
    processor arrangement.
    """


class AlignmentError(ReproError):
    """Raised when an ALIGN directive cannot be applied to an array."""


class CompilationError(ReproError):
    """Raised when the out-of-core compiler cannot translate a program."""


class PlanVerificationError(CompilationError):
    """Raised when the static plan verifier rejects a compiled plan.

    Subclasses :class:`CompilationError` on purpose: a plan that fails
    verification is as unusable as one that failed to compile, and the plan
    optimizer's candidate evaluation already treats compilation failures as
    "reject this candidate" — verification failures flow through the same
    path.  Carries the frozen
    :class:`~repro.check.report.CheckReport` as ``report``.
    """

    def __init__(self, message: str, report: object | None = None):
        self.report = report
        super().__init__(message)


class CostModelError(ReproError):
    """Raised when the I/O cost model receives an inconsistent query."""


class MemoryAllocationError(ReproError):
    """Raised when the per-array memory allocator cannot satisfy a budget."""


class RuntimeExecutionError(ReproError):
    """Raised when executing a compiled node program fails."""


class DistributedExecutionError(RuntimeExecutionError):
    """Raised when the process-parallel EXECUTE backend cannot complete a run.

    Examples: a rank worker died (crashed or SIGKILLed) before reporting its
    results, a worker raised and shipped its traceback to the parent, or the
    workers' merged statistics failed a sanity check.  Carries ``rank`` (the
    first failing rank) and ``exitcode`` when known.
    """

    def __init__(self, message: str, rank: int | None = None,
                 exitcode: int | None = None):
        self.rank = rank
        self.exitcode = exitcode
        super().__init__(message)


class IOEngineError(ReproError):
    """Raised for invalid Local Array File operations (bad extents, closed files)."""


class TransientIOError(IOEngineError):
    """A retryable I/O failure (injected EIO/ENOSPC or a real transient error).

    The I/O engine retries these with bounded exponential backoff; only after
    the retry budget is exhausted does the failure surface as a plain
    :class:`IOEngineError`.
    """


class SlabCorruptionError(IOEngineError):
    """A slab read back from a Local Array File failed checksum verification.

    Carries the logical ``array`` name, the ``rank`` owning the file and the
    offending slab's extents so recovery code can regenerate the data from
    its producer.
    """

    def __init__(self, message: str, array: str = "", rank: int | None = None,
                 slab_key: tuple | None = None):
        self.array = array
        self.rank = rank
        self.slab_key = slab_key
        super().__init__(message)


class CollectiveError(ReproError):
    """Raised for malformed collective communication calls."""


class MachineConfigurationError(ReproError):
    """Raised for invalid machine-model parameters (negative bandwidth etc.)."""


class WorkloadError(ReproError):
    """Raised by the workload registry and the Session API.

    Examples: registering two workloads under one name, asking for an
    unregistered workload, or compiling a :class:`~repro.api.WorkloadPoint`
    whose fields do not satisfy the workload's contract (missing slab
    specification, unknown program version, absent HPF source).
    """
