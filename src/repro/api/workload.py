"""Workload protocol, points and the workload registry.

The paper's compilation pipeline (Figure 7) is program-agnostic; this module
makes the *public surface* program-agnostic too.  Since the unified-lowering
refactor a built-in workload is just a thin IR builder: it implements

* ``build_ir(point, params) -> Lowering`` — construct the
  :class:`~repro.core.ir.ProgramIR` of the configured statement plus its
  slab specification,

and the base class supplies the rest of the contract from it:

* ``compile(point, params) -> CompiledWorkload`` — lower the IR through the
  full pipeline (analysis → strip-mining → cost model → reorganization →
  node program) via :func:`repro.core.pipeline.compile_program`,
* ``estimate(compiled, vm) -> RunRecord`` — drive the same engines
  charge-only on an ``ESTIMATE``-mode VM, so it charges exactly what
  ``execute`` charges, and
* ``execute(compiled, vm, verify) -> RunRecord`` — really run the compiled
  node program on a :class:`~repro.runtime.vm.VirtualMachine`
  (``EXECUTE`` mode).

Workloads with needs outside the compiler's statement classes may still
override the three-step contract directly.  Workloads register themselves
under a short name with :func:`register_workload`; a :class:`WorkloadPoint`
names the workload plus one configuration, so heterogeneous points can
travel through one sweep.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.exceptions import WorkloadError
from repro.machine.parameters import MachineParameters

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.api.records import RunRecord
    from repro.check.report import CheckReport
    from repro.core.ir import ProgramIR
    from repro.core.pipeline import CompiledProgram
    from repro.hpf.array_desc import ArrayDescriptor
    from repro.runtime.executor import ExecutionResult
    from repro.runtime.operands import Operand
    from repro.runtime.vm import VirtualMachine

__all__ = [
    "WorkloadPoint",
    "Lowering",
    "CompiledWorkload",
    "Workload",
    "register_workload",
    "unregister_workload",
    "get_workload",
    "available_workloads",
]


def _freeze_mapping(value, field: str) -> Optional[Tuple[Tuple[str, object], ...]]:
    """Normalise a mapping (or iterable of pairs) into a sorted hashable tuple.

    Values must themselves be hashable — points key the Session's compile
    cache, so an unhashable value would otherwise surface later as a bare
    ``TypeError`` from dictionary internals instead of a clear error here.
    """
    if value is None:
        return None
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = tuple(value)
    frozen = tuple(sorted((str(k), v) for k, v in items))
    for key, item in frozen:
        try:
            hash(item)
        except TypeError as exc:
            raise WorkloadError(
                f"WorkloadPoint.{field}[{key!r}] has unhashable value of type "
                f"{type(item).__name__}; points must be hashable — use a hashable "
                "value (e.g. a tuple instead of a list)"
            ) from exc
    return frozen


@dataclasses.dataclass(frozen=True)
class WorkloadPoint:
    """One configuration of one registered workload.

    ``workload`` names a registered :class:`Workload`, the remaining fields
    describe one configuration of it.  Points are frozen and hashable so they
    can key the Session's compile cache; mapping-valued fields are normalised
    to sorted tuples of pairs (use :meth:`slab_elements_dict` /
    :meth:`options_dict` to read them back as dictionaries).
    """

    workload: str
    n: int = 0
    nprocs: int = 1
    version: str = ""
    slab_ratio: Optional[float] = None
    slab_elements: Optional[Mapping[str, int]] = None
    dtype: str = "float32"
    options: Mapping[str, object] = dataclasses.field(default_factory=tuple)
    #: plan-optimizer choice for memory-budget compilations
    #: (``"none"`` | ``"greedy"`` | ``"beam"`` | ``"exhaustive"``); ``None``
    #: defers to the owning Session's default.  Part of the point — and
    #: therefore of every compile-cache key — so two budget-allocation
    #: policies never silently share one cached compilation.
    optimize: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.workload:
            raise WorkloadError("a WorkloadPoint needs a workload name")
        if self.nprocs < 1:
            raise WorkloadError(f"nprocs must be positive, got {self.nprocs}")
        if self.n < 0:
            raise WorkloadError(f"n must be non-negative, got {self.n}")
        if self.optimize is not None:
            from repro.planner.search import OPTIMIZERS

            if self.optimize not in OPTIMIZERS:
                raise WorkloadError(
                    f"unknown optimize choice {self.optimize!r} "
                    f"(choose from {sorted(OPTIMIZERS)})"
                )
        object.__setattr__(
            self, "slab_elements", _freeze_mapping(self.slab_elements, "slab_elements")
        )
        object.__setattr__(self, "options", _freeze_mapping(self.options, "options") or ())

    # ------------------------------------------------------------------
    def slab_elements_dict(self) -> Optional[Dict[str, int]]:
        if self.slab_elements is None:
            return None
        return {k: int(v) for k, v in self.slab_elements}

    def options_dict(self) -> Dict[str, object]:
        return dict(self.options)

    def option(self, key: str, default: object = None) -> object:
        return self.options_dict().get(key, default)

    def label(self) -> str:
        parts = [self.workload]
        if self.version:
            parts.append(self.version)
        label = ":".join(parts) + f" N={self.n} P={self.nprocs}"
        if self.slab_ratio is not None:
            label += f" ratio={self.slab_ratio:g}"
        elif self.slab_elements is not None:
            label += " explicit slabs"
        return label


@dataclasses.dataclass(frozen=True)
class Lowering:
    """What :meth:`Workload.build_ir` returns: the IR plus how to lower it.

    Exactly one of ``slab_ratio`` / ``slab_elements`` /
    ``memory_budget_bytes`` selects the slab specification forwarded to
    :func:`repro.core.pipeline.compile_program`.
    """

    ir: "ProgramIR"
    slab_ratio: Optional[float] = None
    slab_elements: Optional[Dict[str, int]] = None
    memory_budget_bytes: Optional[int] = None
    force_strategy: Optional[str] = None
    #: statement-fusion mode forwarded to the pipeline (``"off"`` | ``"auto"``
    #: | ``"on"``); ``None`` keeps the pipeline default (``"off"``)
    fusion: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class CompiledWorkload:
    """The result of compiling one workload point.

    Every built-in workload — GAXPY, transpose, elementwise, HPF programs —
    carries the :class:`~repro.core.pipeline.CompiledProgram` its IR lowered
    to in ``program``.  The ``descriptor`` slot is kept
    for workloads that plan against a bare
    :class:`~repro.hpf.array_desc.ArrayDescriptor` outside the compiler.
    Instances are shared by the Session's compile cache — they are frozen and
    must never be mutated by executors.
    """

    workload: "Workload"
    point: WorkloadPoint
    params: MachineParameters
    program: Optional["CompiledProgram"] = None
    descriptor: Optional["ArrayDescriptor"] = None
    #: the static plan verifier's frozen report, attached by
    #: :meth:`repro.api.Session.compile` when its check mode is not ``"off"``
    check: Optional["CheckReport"] = None

    @property
    def n(self) -> int:
        return self.point.n

    @property
    def nprocs(self) -> int:
        return self.point.nprocs

    def label(self) -> str:
        return self.point.label()

    # ------------------------------------------------------------------
    def estimate(self, vm: Optional["VirtualMachine"] = None) -> "RunRecord":
        """Charge the engines on an ``ESTIMATE``-mode VM and return the record."""
        if vm is None:
            from repro.config import ExecutionMode, RunConfig
            from repro.runtime.vm import VirtualMachine
            vm = VirtualMachine(self.nprocs, self.params, RunConfig(mode=ExecutionMode.ESTIMATE))
        return self.workload.estimate(self, vm)

    def execute(self, vm: "VirtualMachine", verify: bool = True) -> "RunRecord":
        """Really run the workload on ``vm`` (must be in EXECUTE mode)."""
        return self.workload.execute(self, vm, verify)


class Workload(abc.ABC):
    """The uniform contract every registered kernel family implements.

    Built-in workloads implement only :meth:`build_ir`; the base class lowers
    the returned IR through the Figure-7 pipeline and drives both execution
    modes with the generic node-program executor.  ``compile`` / ``estimate``
    / ``execute`` remain overridable for workloads that live outside the
    compiler's statement classes.
    """

    #: registry name; set by :func:`register_workload`.
    name: str = ""
    #: accepted ``WorkloadPoint.version`` strings ("" always means the default).
    versions: Tuple[str, ...] = ("",)
    #: whether out-of-core points must carry a slab specification.
    requires_slabs: bool = False

    # ------------------------------------------------------------------
    def validate(self, point: WorkloadPoint) -> None:
        """Reject points that do not satisfy this workload's contract."""
        if point.version not in self.versions:
            raise WorkloadError(
                f"workload {self.name!r} has no version {point.version!r} "
                f"(choose from {sorted(v for v in self.versions if v) or ['<default>']})"
            )
        if self.requires_slabs and point.slab_ratio is None and point.slab_elements is None:
            raise WorkloadError(
                f"workload {self.name!r} points need a slab_ratio or slab_elements"
            )

    # ------------------------------------------------------------------
    # the one hook a built-in workload implements
    # ------------------------------------------------------------------
    def build_ir(self, point: WorkloadPoint, params: MachineParameters) -> Lowering:
        """Build the point's :class:`~repro.core.ir.ProgramIR` + slab specification."""
        raise NotImplementedError(
            f"workload {self.name or type(self).__name__!r} implements neither "
            "build_ir() nor a custom compile/estimate/execute trio"
        )

    # ------------------------------------------------------------------
    # compilation through the unified pipeline
    # ------------------------------------------------------------------
    def compile(self, point: WorkloadPoint, params: MachineParameters) -> CompiledWorkload:
        """Lower the point's IR through the full pipeline.

        Nothing is cached here: :meth:`repro.api.Session.compile` owns the
        one :class:`CompiledWorkload` cache.
        """
        from repro.core.pipeline import compile_program

        lowering = self.build_ir(point, params)
        kwargs: Dict[str, object] = {}
        if lowering.slab_ratio is not None:
            kwargs["slab_ratio"] = lowering.slab_ratio
        if lowering.slab_elements is not None:
            kwargs["slab_elements"] = dict(lowering.slab_elements)
        if lowering.memory_budget_bytes is not None:
            kwargs["memory_budget_bytes"] = int(lowering.memory_budget_bytes)
        if lowering.force_strategy is not None:
            kwargs["force_strategy"] = lowering.force_strategy
        if lowering.fusion is not None:
            kwargs["fusion"] = lowering.fusion
        if point.optimize is not None:
            kwargs["optimizer"] = point.optimize
        program = compile_program(lowering.ir, params, **kwargs)
        return CompiledWorkload(
            workload=self,
            point=self._resolve_point(point, program),
            params=params,
            program=program,
        )

    @staticmethod
    def _is_whole_program(program: object) -> bool:
        """True for multi-statement :class:`CompiledWholeProgram` results."""
        from repro.core.pipeline import CompiledWholeProgram

        return isinstance(program, CompiledWholeProgram)

    @staticmethod
    def _resolve_point(point: WorkloadPoint, program: "CompiledProgram") -> WorkloadPoint:
        """Fill ``n`` / ``nprocs`` from the compiled program when unspecified."""
        if point.n:
            return point
        from repro.core.ir import ReductionStatement

        if Workload._is_whole_program(program):
            reference = program.program.result_arrays()[-1]
        else:
            statement = program.program.statement
            if isinstance(statement, ReductionStatement):
                reference = program.analysis.streamed
            else:
                reference = statement.result.array
        return dataclasses.replace(
            point,
            n=int(program.program.arrays[reference].shape[0]),
            nprocs=int(program.nprocs),
        )

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def record_version(self, compiled: CompiledWorkload) -> str:
        """The version string reported in records (strategy choice for ``""``)."""
        if compiled.point.version or compiled.program is None:
            return compiled.point.version
        if self._is_whole_program(compiled.program):
            return "program"
        return compiled.program.plan.strategy.value

    def plan_info(self, compiled: CompiledWorkload) -> Dict[str, object]:
        """The record's ``plan`` mapping: chosen plan plus predicted cost.

        Reports the compiled program's predicted :class:`PlanCost` (so
        predicted-vs-charged stays checkable on every record) and, when the
        plan optimizer searched a memory budget, its
        :class:`~repro.planner.search.PlanDecision` — per-statement budgets,
        policies, the even-split baseline and the plan-cache status.
        """
        program = compiled.program
        if program is None:
            return {}
        cost = program.predicted_cost
        decision = getattr(program, "planner", None)
        info: Dict[str, object] = {
            # What actually happened: the attached decision's optimizer, or
            # "none" when no plan search ran (slab_ratio / slab_elements
            # compilations ignore the session's optimize default).
            "optimizer": decision.optimizer if decision is not None else "none",
            "strategy": cost.label
            or (cost.strategy.value if cost.strategy is not None else "mixed"),
            "predicted_seconds": cost.total_time,
            "predicted_io_time": cost.io_time,
            "predicted_io_bytes_per_proc": cost.io_bytes,
        }
        if decision is not None:
            info.update(
                statement_budgets=tuple(decision.statement_budgets),
                policies=tuple(decision.policies),
                fused_edges=tuple(decision.fused_edges),
                even_predicted_seconds=decision.even_total_time,
                even_predicted_io_bytes_per_proc=decision.even_io_bytes,
                planner_cache=decision.cache_status,
                candidates_evaluated=decision.candidates_evaluated,
            )
        report = compiled.check or getattr(program, "check", None)
        if report is not None:
            # The static verifier's verdict travels with every run that used
            # this plan.
            info["check"] = report.summary()
        return info

    def _record(
        self,
        compiled: CompiledWorkload,
        *,
        mode: str,
        simulated_seconds: float,
        time_breakdown: Mapping[str, float],
        io_statistics: Mapping[str, float],
        verified: Optional[bool] = None,
        max_abs_error: Optional[float] = None,
        statements: Sequence[Mapping[str, float]] = (),
        resilience: Optional[Mapping[str, float]] = None,
    ) -> "RunRecord":
        from repro.api.records import RunRecord

        point = compiled.point
        return RunRecord.from_machine(
            workload=self.name,
            label=point.label(),
            version=self.record_version(compiled),
            mode=mode,
            n=point.n,
            nprocs=point.nprocs,
            dtype=point.dtype,
            slab_ratio=point.slab_ratio,
            simulated_seconds=simulated_seconds,
            time_breakdown=time_breakdown,
            io_statistics=io_statistics,
            verified=verified,
            max_abs_error=max_abs_error,
            statements=statements,
            plan=self.plan_info(compiled),
            resilience=resilience,
        )

    # ------------------------------------------------------------------
    # input generation (EXECUTE mode)
    # ------------------------------------------------------------------
    def generate_inputs(self, compiled: CompiledWorkload, seed: int) -> Dict[str, "Operand"]:
        """Reproducible operands for one EXECUTE-mode run, one per *program
        input*, by array name.

        Each is an :class:`~repro.runtime.operands.Operand`: the value of an
        element is a function of ``(seed, array name, global index)`` only,
        uniform on ``[-1, 1)``, so there is no draw order and nothing is
        drawn here — every rank draws its own block into its Local Array
        File, and the oracle the panels it compares.  Intermediates are
        produced by the run itself and reused from their LAFs.
        """
        from repro.runtime.operands import input_operands

        return input_operands(compiled.program.program, seed)

    # ------------------------------------------------------------------
    # the two evaluation modes
    # ------------------------------------------------------------------
    def drive(
        self,
        compiled: CompiledWorkload,
        vm: "VirtualMachine",
        inputs: Optional[Mapping[str, "np.ndarray | Operand"]],
        verify: bool,
    ) -> "ExecutionResult":
        """Run ``compiled`` on ``vm`` in the VM's mode: the one fork between a
        whole program and a single statement."""
        from repro.runtime.executor import NodeProgramExecutor, ProgramExecutor

        program = self._require_program(compiled)
        if self._is_whole_program(program):
            return ProgramExecutor(program).run(vm, inputs, verify)
        return NodeProgramExecutor(program).run(vm, inputs, verify)

    def estimate(self, compiled: CompiledWorkload, vm: "VirtualMachine") -> "RunRecord":
        """Drive the engines charge-only on ``vm`` (``ESTIMATE`` mode) and
        return the record: the counters an ``EXECUTE`` run charges, exactly."""
        result = self.drive(compiled, vm, None, verify=False)
        return self._record(
            compiled,
            mode="estimate",
            simulated_seconds=result.simulated_seconds,
            time_breakdown=result.time_breakdown,
            io_statistics=result.io_statistics,
            statements=result.statements,
        )

    def execute(self, compiled: CompiledWorkload, vm: "VirtualMachine", verify: bool) -> "RunRecord":
        """Really execute on ``vm`` and return the record."""
        inputs = self.generate_inputs(compiled, vm.config.seed)
        result = self.drive(compiled, vm, inputs, verify)
        return self._record(
            compiled,
            mode="execute",
            simulated_seconds=result.simulated_seconds,
            time_breakdown=result.time_breakdown,
            io_statistics=result.io_statistics,
            verified=result.verified,
            max_abs_error=result.max_abs_error,
            statements=result.statements,
            resilience=vm.resilience.as_dict(),
        )

    def _require_program(self, compiled: CompiledWorkload) -> "CompiledProgram":
        if compiled.program is None:
            raise WorkloadError(
                f"workload {self.name!r} compiled without a program; override "
                "estimate/execute or return a Lowering from build_ir()"
            )
        return compiled.program


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, Workload] = {}


def register_workload(name: str):
    """Class decorator registering a :class:`Workload` subclass under ``name``.

    ::

        @register_workload("gaxpy")
        class GaxpyWorkload(Workload):
            ...
    """

    def decorator(cls):
        if not (isinstance(cls, type) and issubclass(cls, Workload)):
            raise WorkloadError(f"register_workload expects a Workload subclass, got {cls!r}")
        if name in _REGISTRY:
            raise WorkloadError(f"workload {name!r} is already registered")
        instance = cls()
        instance.name = name
        _REGISTRY[name] = instance
        return cls

    return decorator


def unregister_workload(name: str) -> None:
    """Remove a registered workload (intended for tests and plugins)."""
    _REGISTRY.pop(name, None)


def _ensure_builtins() -> None:
    # Imported lazily to break the cycle: builtin workloads import this module.
    import repro.api.builtin  # noqa: F401


def get_workload(name: str) -> Workload:
    """Look up a registered workload by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise WorkloadError(
            f"unknown workload {name!r} (registered: {', '.join(available_workloads())})"
        ) from exc


def available_workloads() -> List[str]:
    """Sorted names of every registered workload."""
    _ensure_builtins()
    return sorted(_REGISTRY)
