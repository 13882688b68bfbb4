"""The shared result schema of the Session API.

Every workload — GAXPY, transpose, elementwise, programs entering through the
mini-HPF frontend — reports one :class:`RunRecord` per evaluation, in both
``ESTIMATE`` and ``EXECUTE`` mode.  The record carries only *simulated*
quantities (machine-model seconds, per-processor I/O statistics), never host
wall-clock time, so records from a sequential sweep and a thread-pool sweep
of the same points are per-field identical.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

__all__ = ["RunRecord"]


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """Outcome of evaluating one :class:`~repro.api.WorkloadPoint`.

    Parameters
    ----------
    workload / label / version:
        Which registered workload produced the record, the point's display
        label, and the program version (e.g. ``"row"``); all strings.
    mode:
        ``"estimate"`` or ``"execute"``.
    n / nprocs / dtype / slab_ratio:
        The configuration of the evaluated point.
    simulated_seconds / io_time / compute_time / comm_time:
        The machine model's critical-path time and its breakdown.
    io_requests_per_proc / io_read_bytes_per_proc / io_write_bytes_per_proc:
        The paper's per-processor I/O metrics (maximum over processors).
    verified:
        ``True``/``False`` when an ``EXECUTE``-mode run compared its result
        against a dense reference, ``None`` when no verification happened
        (``ESTIMATE`` mode, or ``verify=False``).
    max_abs_error:
        Largest absolute deviation from the reference, when measured.
    statements:
        Whole-program evaluations carry one mapping of charged-cost deltas
        per statement (simulated ``seconds``, the time breakdown and the
        I/O counters attributable to that statement); single-statement
        workloads leave it empty.
    plan:
        The chosen access plan and its *predicted* cost: the plan optimizer
        used (``"none"`` .. ``"exhaustive"``), the chosen strategy label, the
        model's predicted seconds / I/O bytes per processor and — when the
        planner searched a memory budget — the per-statement byte budgets,
        allocation policies, the even-split baseline cost and the plan-cache
        status.  Comparing ``plan["predicted_io_bytes_per_proc"]`` against
        the charged ``io_bytes_per_proc`` keeps ESTIMATE/EXECUTE parity
        checkable from the record alone.
    resilience:
        Host-side resilience counters of an ``EXECUTE`` run — ``retries``,
        ``corruptions_detected``, ``slabs_recovered``,
        ``statements_skipped`` and friends.  Strictly separate from the
        charged I/O statistics: a run that retried transient faults reports
        the same simulated seconds and byte counters as a clean run.
    error:
        ``"ExceptionType: message"`` when the point failed to evaluate and
        the sweep ran with ``on_error="skip"``; ``None`` for successful
        evaluations.
    extras:
        Workload-specific numeric extras (kept out of the typed core).
    """

    workload: str
    label: str
    version: str
    mode: str
    n: int
    nprocs: int
    dtype: str
    simulated_seconds: float
    io_time: float
    compute_time: float
    comm_time: float
    io_requests_per_proc: float
    io_read_bytes_per_proc: float
    io_write_bytes_per_proc: float
    slab_ratio: Optional[float] = None
    verified: Optional[bool] = None
    max_abs_error: Optional[float] = None
    statements: Tuple[Mapping[str, float], ...] = ()
    plan: Mapping[str, object] = dataclasses.field(default_factory=dict)
    resilience: Mapping[str, float] = dataclasses.field(default_factory=dict)
    error: Optional[str] = None
    extras: Mapping[str, float] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def io_bytes_per_proc(self) -> float:
        """Total bytes moved per processor (reads + writes)."""
        return self.io_read_bytes_per_proc + self.io_write_bytes_per_proc

    @property
    def time_breakdown(self) -> Dict[str, float]:
        return {"io": self.io_time, "compute": self.compute_time, "comm": self.comm_time}

    @property
    def ok(self) -> bool:
        """True unless the point failed or verification ran and failed."""
        return self.error is None and self.verified is not False

    # ------------------------------------------------------------------
    @classmethod
    def from_machine(
        cls,
        *,
        workload: str,
        label: str,
        version: str,
        mode: str,
        n: int,
        nprocs: int,
        dtype: str,
        simulated_seconds: float,
        time_breakdown: Mapping[str, float],
        io_statistics: Mapping[str, float],
        slab_ratio: Optional[float] = None,
        verified: Optional[bool] = None,
        max_abs_error: Optional[float] = None,
        statements: Sequence[Mapping[str, float]] = (),
        plan: Optional[Mapping[str, object]] = None,
        resilience: Optional[Mapping[str, float]] = None,
        error: Optional[str] = None,
        extras: Optional[Mapping[str, float]] = None,
    ) -> "RunRecord":
        """Build a record from a machine's time breakdown and I/O statistics."""
        return cls(
            workload=workload,
            label=label,
            version=version,
            mode=mode,
            n=int(n),
            nprocs=int(nprocs),
            dtype=dtype,
            simulated_seconds=simulated_seconds,
            io_time=time_breakdown.get("io", 0.0),
            compute_time=time_breakdown.get("compute", 0.0),
            comm_time=time_breakdown.get("comm", 0.0),
            io_requests_per_proc=io_statistics.get("io_requests_per_proc", 0.0),
            io_read_bytes_per_proc=io_statistics.get("bytes_read_per_proc", 0.0),
            io_write_bytes_per_proc=io_statistics.get("bytes_written_per_proc", 0.0),
            slab_ratio=slab_ratio,
            verified=verified,
            max_abs_error=max_abs_error,
            statements=tuple(dict(s) for s in statements),
            plan=dict(plan or {}),
            resilience=dict(resilience or {}),
            error=error,
            extras=dict(extras or {}),
        )

    # ------------------------------------------------------------------
    # lossless JSON round-trip (the job service's wire format)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """Every field of the record, as a JSON-serialisable dictionary.

        Unlike :meth:`to_dict` (a flattened report for humans and data
        frames) this is a *lossless* encoding: :meth:`from_json_dict`
        rebuilds an equal record.  JSON floats round-trip exactly
        (``json.dumps`` emits the shortest representation that parses back
        to the same double), so a record shipped over the job service's
        HTTP surface is bit-identical — in every charged field — to the
        record the executor produced.
        """
        out = dataclasses.asdict(self)
        out["statements"] = [dict(s) for s in self.statements]
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "RunRecord":
        """Rebuild a record encoded by :meth:`to_json_dict`.

        Tuple-valued entries arrive as JSON arrays; the ``statements`` tuple
        and the top-level tuple values of ``plan`` (statement budgets,
        policies, fused edges) are converted back, so the round-tripped
        record compares equal field-by-field to the original.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown RunRecord fields: {sorted(unknown)}")
        payload = dict(data)
        payload["statements"] = tuple(
            dict(s) for s in payload.get("statements", ())
        )
        plan = payload.get("plan") or {}
        payload["plan"] = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in dict(plan).items()
        }
        payload["resilience"] = dict(payload.get("resilience") or {})
        payload["extras"] = dict(payload.get("extras") or {})
        return cls(**payload)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Flatten the record into a plain dictionary (strings stay strings)."""
        out: Dict[str, object] = {
            "workload": self.workload,
            "label": self.label,
            "version": self.version,
            "mode": self.mode,
            "n": self.n,
            "nprocs": self.nprocs,
            "dtype": self.dtype,
            "slab_ratio": self.slab_ratio,
            "time": self.simulated_seconds,
            "io_time": self.io_time,
            "compute_time": self.compute_time,
            "comm_time": self.comm_time,
            "io_requests_per_proc": self.io_requests_per_proc,
            "io_read_bytes_per_proc": self.io_read_bytes_per_proc,
            "io_write_bytes_per_proc": self.io_write_bytes_per_proc,
            "io_bytes_per_proc": self.io_bytes_per_proc,
            "verified": self.verified,
            "max_abs_error": self.max_abs_error,
        }
        if self.statements:
            out["statements"] = [dict(s) for s in self.statements]
        if self.plan:
            out["plan"] = dict(self.plan)
        # Quiet runs stay byte-identical to pre-resilience records: the
        # counters only appear when something actually happened.
        if any(self.resilience.values()):
            out["resilience"] = dict(self.resilience)
        if self.error is not None:
            out["error"] = self.error
        out.update(self.extras)
        return out

    def describe(self) -> str:
        if self.error is not None:
            return f"{self.label} [{self.mode}]: FAILED — {self.error}"
        lines = [
            f"{self.label} [{self.mode}]: {self.simulated_seconds:.2f} simulated seconds",
            f"  io={self.io_time:.2f}s compute={self.compute_time:.2f}s comm={self.comm_time:.2f}s",
            f"  I/O requests/proc={self.io_requests_per_proc:.0f}, "
            f"{self.io_bytes_per_proc / 1e6:.2f} MB moved/proc",
        ]
        if self.verified is not None:
            err = "" if self.max_abs_error is None or math.isnan(self.max_abs_error) else (
                f" (max |error| = {self.max_abs_error:.2e})"
            )
            lines.append(f"  verified: {self.verified}{err}")
        return "\n".join(lines)
