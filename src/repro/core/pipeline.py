"""The compilation pipeline driver.

``compile_program`` runs the full sequence of Figure 7 in two steps.
:func:`plan_statement` *prices*: in-core phase, strip-mining, cost
estimation, data access reorganization and memory allocation yield a
:class:`StatementPlan` — the chosen :class:`AccessPlan` with its predicted
cost, which is all the paper's compiler (and the plan search) ever compares.
:func:`lower` *lowers*: code generation turns that plan into the node program
and returns a :class:`CompiledProgram` bundling every intermediate result so
callers (executor, experiments, tests) can inspect the compiler's reasoning.
The plan optimizer prices every candidate and lowers only its winner.

``compile_gaxpy`` is a convenience wrapper that builds the paper's GAXPY
program first.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from typing import Any, Dict, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from repro.exceptions import CompilationError, PlanVerificationError
from repro.core.analysis import (
    ElementwisePhaseResult,
    FusedElementwisePhase,
    InCorePhaseResult,
    PhaseResult,
    analyze_program,
)
from repro.core.codegen import ProgramSchedule, generate_node_program, generate_program_schedule
from repro.core.cost_model import CostModel, PlanCost, Price, combine_plan_costs
from repro.core.ir import ProgramIR, build_gaxpy_ir
from repro.core.memory_alloc import AllocationPolicy, ProportionalAllocation
from repro.core.node_program import NodeProgram
from repro.core.reorganize import (
    AccessPlan,
    ReorganizationDecision,
    choose_plan,
    plan_from_slab_elements,
    reorganize,
)
from repro.core.stripmine import (
    SlabPlanEntry,
    build_plan_entry,
    slab_elements_from_bytes,
    slab_elements_from_ratio,
)
from repro.machine.parameters import MachineParameters, touchstone_delta
from repro.runtime.slab import SlabbingStrategy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner imports us)
    from repro.check.report import CheckReport
    from repro.planner.plan_cache import PlanCache
    from repro.planner.search import PlanDecision

__all__ = [
    "StatementPlan",
    "CompiledProgram",
    "CompiledWholeProgram",
    "plan_statement",
    "lower",
    "compile_program",
    "compile_whole_program",
    "compile_gaxpy",
    "fuse_statement_pair",
    "price_fused_pair",
    "normalize_fusion",
]


@dataclasses.dataclass(frozen=True)
class StatementPlan:
    """A priced statement: what :func:`plan_statement` decided, not yet lowered.

    Carries everything :func:`lower` needs to generate the node program, and
    everything the plan search compares (``cost``).
    """

    program: ProgramIR
    analysis: PhaseResult
    decision: Optional[ReorganizationDecision]
    plan: AccessPlan
    params: MachineParameters
    nprocs: int
    #: host seconds spent pricing; :func:`lower` adds its own on top
    compile_seconds: float = dataclasses.field(compare=False)
    #: the memory budget the statement was planned against, when one was given
    memory_budget_bytes: Optional[int] = None

    @property
    def cost(self) -> PlanCost:
        return self.plan.cost


@dataclasses.dataclass(frozen=True)
class CompiledProgram:
    """Everything the compiler produced for one program.

    Frozen on purpose: the Session API's compile cache hands the *same*
    instance to many runs (and threads), so executors must never mutate it.
    """

    program: ProgramIR
    #: phase-one result; an :class:`InCorePhaseResult` for reduction
    #: statements, the elementwise/transpose phase results otherwise
    analysis: object
    decision: Optional[ReorganizationDecision]
    plan: AccessPlan
    node_program: NodeProgram
    params: MachineParameters
    nprocs: int
    compile_seconds: float
    #: the plan optimizer's decision when the compilation went through the
    #: planner (``optimizer=`` with a memory budget); ``None`` otherwise
    planner: Optional["PlanDecision"] = None
    #: the memory budget this statement was compiled against, when one was
    #: given; the static verifier proves the plan's resident bytes fit it
    memory_budget_bytes: Optional[int] = None
    #: the static verifier's frozen report, attached when compiled with
    #: ``check="warn"`` or ``check="error"``
    check: Optional["CheckReport"] = None

    @property
    def strategy(self) -> SlabbingStrategy:
        return self.plan.strategy

    @property
    def predicted_cost(self) -> PlanCost:
        return self.plan.cost

    def describe(self) -> str:
        lines = [
            f"compiled {self.program.name} for {self.nprocs} processors on {self.params.name}",
            f"  chosen strategy: {self.plan.strategy.value} slabs of {self.analysis.streamed}",
            f"  predicted time: {self.plan.cost.total_time:.2f}s "
            f"(io {self.plan.cost.io_time:.2f}s, compute {self.plan.cost.compute_time:.2f}s, "
            f"comm {self.plan.cost.comm_time:.2f}s)",
            f"  compile time: {self.compile_seconds * 1e3:.2f} ms",
        ]
        if self.decision is not None:
            lines.append("  " + self.decision.describe().replace("\n", "\n  "))
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class CompiledWholeProgram:
    """A compiled multi-statement program.

    ``statements`` holds one :class:`CompiledProgram` per statement (compiled
    through the unchanged single-statement pipeline on a shared set of array
    descriptors), ``schedule`` the assembled
    :class:`~repro.core.codegen.ProgramSchedule`, and ``cost`` the summed
    program-level :class:`~repro.core.cost_model.PlanCost` in which each
    intermediate is charged one write pass (producer) plus one read pass
    (consumer) — never a regeneration.  Frozen for the same cache-sharing
    reasons as :class:`CompiledProgram`.
    """

    program: ProgramIR
    statements: Tuple[CompiledProgram, ...]
    schedule: ProgramSchedule
    cost: PlanCost
    params: MachineParameters
    nprocs: int
    compile_seconds: float
    #: the plan optimizer's decision when a memory budget was searched
    #: (per-statement budgets, policies, predicted-vs-even cost); ``None``
    #: for ``slab_ratio`` / ``slab_elements`` compilations
    planner: Optional["PlanDecision"] = None
    #: the shared node budget the program was compiled against, if any
    memory_budget_bytes: Optional[int] = None
    #: the static verifier's frozen report, attached when compiled with
    #: ``check="warn"`` or ``check="error"``
    check: Optional["CheckReport"] = None

    @property
    def predicted_cost(self) -> PlanCost:
        return self.cost

    @property
    def intermediates(self) -> Tuple[str, ...]:
        return self.schedule.intermediates

    def statement_costs(self) -> Tuple[PlanCost, ...]:
        return tuple(compiled.plan.cost for compiled in self.statements)

    def describe(self) -> str:
        lines = [
            f"compiled whole program {self.program.name} "
            f"({len(self.statements)} statements) for {self.nprocs} processors "
            f"on {self.params.name}",
            f"  predicted time: {self.cost.total_time:.2f}s "
            f"(io {self.cost.io_time:.2f}s, compute {self.cost.compute_time:.2f}s, "
            f"comm {self.cost.comm_time:.2f}s)",
            f"  intermediates reused from LAF: "
            f"{', '.join(self.intermediates) or '<none>'}",
            f"  compile time: {self.compile_seconds * 1e3:.2f} ms",
        ]
        for index, compiled in enumerate(self.statements):
            cost = compiled.plan.cost
            lines.append(
                f"  statement {index + 1} [{compiled.plan.strategy.value}]: "
                f"io={cost.io_time:.2f}s compute={cost.compute_time:.2f}s "
                f"comm={cost.comm_time:.2f}s"
            )
        if self.planner is not None:
            lines.append("  " + self.planner.describe().replace("\n", "\n  "))
        return "\n".join(lines)


def _plan_data_movement(
    program: ProgramIR,
    analysis: "ElementwisePhaseResult | TransposePhaseResult",
    cost_model: CostModel,
    *,
    memory_budget_bytes: Optional[int],
    slab_ratio: Optional[float],
    slab_elements: Optional[Dict[str, int]],
    force_strategy: Optional[SlabbingStrategy | str],
) -> AccessPlan:
    """Build the access plan for an elementwise or transpose statement.

    These statements touch every array exactly once, so there is no
    strategy *choice* to make: the I/O volume is slabbing-invariant.  The
    elementwise lowering accepts a forced row strategy (slabs along the other
    dimension); the transpose lowering always streams column slabs, matching
    the column-block distribution of its operands.
    """
    if isinstance(analysis, ElementwisePhaseResult):
        names = (*analysis.operands, analysis.result)
        strategy = (
            SlabbingStrategy.from_name(force_strategy)
            if force_strategy is not None
            else SlabbingStrategy.COLUMN
        )
    else:
        names = (analysis.source, analysis.target)
        strategy = SlabbingStrategy.COLUMN
        if force_strategy is not None and SlabbingStrategy.from_name(force_strategy) is not strategy:
            raise CompilationError(
                "the transpose lowering streams column slabs; it cannot be forced to "
                f"{SlabbingStrategy.from_name(force_strategy).value!r}"
            )

    if slab_ratio is not None:
        sizes = {
            name: slab_elements_from_ratio(program.arrays[name], slab_ratio) for name in names
        }
    elif slab_elements is not None:
        sizes = dict(slab_elements)
        for name in names:
            if name not in sizes:
                raise CompilationError(f"slab_elements is missing array {name!r}")
        if len({int(sizes[name]) for name in names}) != 1:
            # The fused schedule streams one conformal slab of every array per
            # iteration; unequal sizes would make the generated loop structure
            # (and its charged statistics) contradict the per-array entries.
            raise CompilationError(
                "elementwise/transpose statements stream conformal slabs; give "
                f"every array the same slab_elements (got { {n: int(sizes[n]) for n in names} })"
            )
    else:
        from repro.planner.budget import split_evenly

        # An exact even split: the remainder is redistributed one byte at a
        # time instead of being silently dropped (shares differ by <= 1 byte).
        # The fused schedule streams one *conformal* slab of every array per
        # iteration, so all arrays share the smallest element count any share
        # affords.
        shares = split_evenly(int(memory_budget_bytes), len(names))
        common = min(
            slab_elements_from_bytes(program.arrays[name], share)
            for name, share in zip(names, shares, strict=True)
        )
        sizes = {name: common for name in names}

    entries = {
        name: build_plan_entry(program.arrays[name], strategy, sizes[name]) for name in names
    }
    return AccessPlan(
        strategy=strategy,
        entries=entries,
        allocation={n: int(sizes[n]) for n in names},
        cost=cost_model.estimate(analysis, strategy, entries),
    )


_FUSION_MODES = ("off", "auto", "on")


def normalize_fusion(fusion: Optional[str]) -> str:
    """Validate the fusion mode; ``"on"`` is an alias for ``"auto"``."""
    if fusion is None:
        return "off"
    fusion = str(fusion)
    if fusion not in _FUSION_MODES:
        raise CompilationError(
            f"fusion must be one of {_FUSION_MODES}, got {fusion!r}"
        )
    return "auto" if fusion == "on" else fusion


def _fusable_pair(
    index: int,
    producer: "StatementPlan | CompiledProgram",
    consumer: "StatementPlan | CompiledProgram",
) -> Tuple[ElementwisePhaseResult, ElementwisePhaseResult, Dict[str, SlabPlanEntry]]:
    """The two analyses and merged plan entries of a pair that fuses.

    Raises :class:`CompilationError` when the pair is not elementwise or the
    intermediate's slabs are not conformal across it (different strategy,
    extents or storage order) — the planner treats that as "this candidate
    does not fuse".
    """
    p_analysis = producer.analysis
    c_analysis = consumer.analysis
    if not isinstance(p_analysis, ElementwisePhaseResult) or not isinstance(
        c_analysis, ElementwisePhaseResult
    ):
        raise CompilationError("only elementwise statement pairs can fuse")
    intermediate = p_analysis.result
    if intermediate not in c_analysis.operands:
        raise CompilationError(
            f"statement {index + 1} does not consume {intermediate!r}; nothing to fuse"
        )
    if producer.plan.strategy is not consumer.plan.strategy:
        raise CompilationError(
            f"cannot fuse across strategies {producer.plan.strategy.value!r} vs "
            f"{consumer.plan.strategy.value!r}"
        )
    p_entry = producer.plan.entry(intermediate)
    c_entry = consumer.plan.entry(intermediate)
    if p_entry != c_entry:
        raise CompilationError(
            f"the slabs of {intermediate!r} are not conformal across the pair: "
            f"{p_entry.slab_elements} elements x {p_entry.num_slabs} slabs "
            f"({p_entry.storage_order}) vs {c_entry.slab_elements} x "
            f"{c_entry.num_slabs} ({c_entry.storage_order})"
        )
    return p_analysis, c_analysis, {**producer.plan.entries, **consumer.plan.entries}


def price_fused_pair(
    index: int,
    producer: "StatementPlan | CompiledProgram",
    consumer: "StatementPlan | CompiledProgram",
    cost_model: CostModel,
) -> Price:
    """What :func:`fuse_statement_pair` of the same pair would cost.

    The plan search ranks fusion masks with this; it builds no program,
    phase or node program, and raises exactly when the pair builder would.
    """
    return cost_model.price_fused(*_fusable_pair(index, producer, consumer))


def fuse_statement_pair(
    program: ProgramIR,
    index: int,
    producer: "StatementPlan | CompiledProgram",
    consumer: "StatementPlan | CompiledProgram",
    params: MachineParameters,
) -> CompiledProgram:
    """Compile statements ``index`` and ``index + 1`` into one fused unit.

    ``producer`` and ``consumer`` are the statements' individual plans (priced
    or already lowered) under the budgets the planner assigned them; fusion
    reuses their access plans and only replaces the loop structure, so the
    slab extents the cost model priced are exactly the extents the fused loop
    streams.  Raises :class:`CompilationError` when the pair does not fuse
    (see :func:`_fusable_pair`).
    """
    start = time.perf_counter()
    p_analysis, c_analysis, entries = _fusable_pair(index, producer, consumer)
    statements = program.statements[index : index + 2]
    arrays = {}
    for statement in statements:
        for name in statement.referenced_arrays():
            arrays.setdefault(name, program.arrays[name])
    fused_ir = ProgramIR(
        name=f"{program.name}[{index}+{index + 1}]",
        arrays=arrays,
        statements=statements,
        loop_nests=tuple(program.loop_nests[index : index + 2]),
    )
    phase = FusedElementwisePhase(
        program=fused_ir,
        producer=p_analysis,
        consumer=c_analysis,
        intermediate=p_analysis.result,
    )
    strategy = producer.plan.strategy
    nprocs = program.nprocs()
    plan = AccessPlan(
        strategy=strategy,
        entries=entries,
        allocation={**producer.plan.allocation, **consumer.plan.allocation},
        cost=CostModel(params, nprocs).estimate(phase, strategy, entries),
    )
    budgets = (producer.memory_budget_bytes, consumer.memory_budget_bytes)
    budget = sum(budgets) if all(b is not None for b in budgets) else None
    return lower(
        StatementPlan(
            program=fused_ir,
            analysis=phase,
            decision=None,
            plan=plan,
            params=params,
            nprocs=nprocs,
            compile_seconds=producer.compile_seconds
            + consumer.compile_seconds
            + (time.perf_counter() - start),
            memory_budget_bytes=budget,
        )
    )


_CHECK_MODES = ("off", "warn", "error")


def _apply_check(
    compiled: Union[CompiledProgram, "CompiledWholeProgram"],
    check: str,
) -> Union[CompiledProgram, "CompiledWholeProgram"]:
    """Run the static plan verifier and attach its report to ``compiled``.

    ``check="off"`` is a no-op (and the default, so plan caches shared with
    verification-free callers hand out byte-identical objects).  Otherwise the
    verifier walks the compiled plan, the frozen report is attached via
    :func:`dataclasses.replace`, and a failing plan either raises
    :class:`PlanVerificationError` (``"error"``) or warns (``"warn"``).
    """
    if check not in _CHECK_MODES:
        raise CompilationError(
            f"check must be one of {_CHECK_MODES}, got {check!r}"
        )
    if check == "off":
        return compiled
    from repro.check import check_compiled

    report = check_compiled(compiled)
    compiled = dataclasses.replace(compiled, check=report)
    if not report.ok:
        if check == "error":
            raise PlanVerificationError(report.describe(), report=report)
        warnings.warn(report.describe(), stacklevel=3)
    return compiled


_SLABBINGS = (SlabbingStrategy.COLUMN, SlabbingStrategy.ROW)


def plan_statement(
    program: ProgramIR,
    params: Optional[MachineParameters] = None,
    *,
    analysis: Optional[PhaseResult] = None,
    memory_budget_bytes: Optional[int] = None,
    slab_ratio: Optional[float] = None,
    slab_elements: Optional[Dict[str, int]] = None,
    policy: Optional[AllocationPolicy] = None,
    force_strategy: Optional[SlabbingStrategy | str] = None,
    strategies: Sequence[SlabbingStrategy | str] = _SLABBINGS,
) -> StatementPlan:
    """Price one statement: slab specification + policy → :class:`StatementPlan`.

    The pricing half of :func:`compile_program` (which documents the slab
    specifications): everything up to and including the choice of the
    :class:`AccessPlan`, nothing of code generation.  ``analysis`` is the
    statement's :func:`analyze_program` result when the caller already holds
    it — the plan search prices one statement under many budgets and analyzes
    it once.
    """
    params = params or touchstone_delta()
    start = time.perf_counter()
    specified = sum(x is not None for x in (memory_budget_bytes, slab_ratio, slab_elements))
    if specified != 1:
        raise CompilationError(
            "specify exactly one of memory_budget_bytes, slab_ratio or slab_elements"
        )
    if analysis is None:
        analysis = analyze_program(program)
    nprocs = program.nprocs()
    cost_model = CostModel(params, nprocs)

    decision: Optional[ReorganizationDecision] = None
    if not isinstance(analysis, InCorePhaseResult):
        plan = _plan_data_movement(
            program,
            analysis,
            cost_model,
            memory_budget_bytes=memory_budget_bytes,
            slab_ratio=slab_ratio,
            slab_elements=slab_elements,
            force_strategy=force_strategy,
        )
    elif memory_budget_bytes is not None:
        decision = reorganize(
            analysis,
            params,
            nprocs,
            memory_budget_bytes,
            policy=policy or ProportionalAllocation(),
            strategies=strategies,
        )
        plan = (
            decision.candidate(force_strategy) if force_strategy is not None else decision.chosen
        )
    else:
        if slab_ratio is not None:
            sizes = {
                name: slab_elements_from_ratio(program.arrays[name], slab_ratio)
                for name in (analysis.streamed, analysis.coefficient, analysis.result)
            }
        else:
            sizes = dict(slab_elements or {})
            # Default the result array's staging buffer to one local column.
            if analysis.result not in sizes:
                result_desc = program.arrays[analysis.result]
                rows = max(result_desc.local_shape(0)[0], 1)
                sizes[analysis.result] = rows
        candidates = [
            plan_from_slab_elements(analysis, strategy, sizes, cost_model)
            for strategy in strategies
        ]
        if force_strategy is not None:
            wanted = SlabbingStrategy.from_name(force_strategy)
            matching = [p for p in candidates if p.strategy is wanted]
            if not matching:
                matching = [plan_from_slab_elements(analysis, wanted, sizes, cost_model)]
            plan = matching[0]
        else:
            decision = choose_plan(analysis, candidates, cost_model)
            plan = decision.chosen
    return StatementPlan(
        program=program,
        analysis=analysis,
        decision=decision,
        plan=plan,
        params=params,
        nprocs=nprocs,
        compile_seconds=time.perf_counter() - start,
        memory_budget_bytes=(
            int(memory_budget_bytes) if memory_budget_bytes is not None else None
        ),
    )


def lower(planned: StatementPlan, check: str = "off") -> CompiledProgram:
    """Lower a priced statement: generate its node program (and verify it).

    The lowering half of :func:`compile_program`; ``check`` is its ``check``.
    """
    start = time.perf_counter()
    node_program = generate_node_program(planned.analysis, planned.plan)
    compiled = CompiledProgram(
        program=planned.program,
        analysis=planned.analysis,
        decision=planned.decision,
        plan=planned.plan,
        node_program=node_program,
        params=planned.params,
        nprocs=planned.nprocs,
        compile_seconds=planned.compile_seconds + (time.perf_counter() - start),
        memory_budget_bytes=planned.memory_budget_bytes,
    )
    return _apply_check(compiled, check)


def compile_program(
    program: ProgramIR,
    params: Optional[MachineParameters] = None,
    *,
    memory_budget_bytes: Optional[int] = None,
    slab_ratio: Optional[float] = None,
    slab_elements: Optional[Dict[str, int]] = None,
    policy: Optional[AllocationPolicy] = None,
    force_strategy: Optional[SlabbingStrategy | str] = None,
    strategies: Sequence[SlabbingStrategy | str] = _SLABBINGS,
    optimizer: Optional[str] = None,
    plan_cache: Optional["PlanCache"] = None,
    check: str = "off",
    fusion: str = "off",
) -> CompiledProgram:
    """Compile a program for out-of-core execution.

    Exactly one of the slab-size specifications must be given:

    * ``memory_budget_bytes`` — the compiler divides the budget between the
      arrays with ``policy`` (default: proportional allocation) and picks the
      cheapest strategy (unless ``force_strategy`` is given);
    * ``slab_ratio`` — every array gets a slab of ``ratio x`` its local size
      (the convention of the paper's Figure 10 / Table 1 sweeps);
    * ``slab_elements`` — explicit per-array slab sizes in elements
      (the convention of Table 2).

    A statement is compiled by :func:`plan_statement` (pricing) followed by
    :func:`lower` (code generation) — the one path every caller, the plan
    optimizer included, goes through.

    ``optimizer`` (``"none"`` | ``"greedy"`` | ``"beam"`` | ``"exhaustive"``)
    hands the memory-budget case to the plan optimizer
    (:mod:`repro.planner`), which searches allocation policies — and, for
    whole programs, per-statement budget splits — using the cost model as
    the objective; the chosen plan is never worse than the even split.  It
    only applies when ``memory_budget_bytes`` is given and ``policy`` is not
    pinned.  ``plan_cache`` (or the ambient Session cache) replays previous
    search winners.

    ``check`` (``"off"`` | ``"warn"`` | ``"error"``) runs the static plan
    verifier (:mod:`repro.check`) over the compiled result and attaches its
    frozen :class:`~repro.check.report.CheckReport` as ``.check``; ``"error"``
    raises :class:`~repro.exceptions.PlanVerificationError` on any finding.

    Multi-statement programs are dispatched to :func:`compile_whole_program`
    (and return a :class:`CompiledWholeProgram`).
    """
    slabbing: Dict[str, Any] = dict(
        memory_budget_bytes=memory_budget_bytes,
        slab_ratio=slab_ratio,
        slab_elements=slab_elements,
        policy=policy,
        force_strategy=force_strategy,
        strategies=strategies,
    )
    if program.is_multi_statement():
        return compile_whole_program(
            program,
            params,
            **slabbing,
            optimizer=optimizer,
            plan_cache=plan_cache,
            check=check,
            fusion=fusion,
        )
    normalize_fusion(fusion)  # validated even where it cannot apply
    if (
        optimizer not in (None, "none")
        and memory_budget_bytes is not None
        and policy is None
        and slab_ratio is None
        and slab_elements is None
    ):
        from repro.planner.plan_cache import active_plan_cache
        from repro.planner.search import plan_whole_program

        start = time.perf_counter()
        planner_decision, units = plan_whole_program(
            program,
            params or touchstone_delta(),
            int(memory_budget_bytes),
            optimizer=optimizer,
            strategies=strategies,
            force_strategy=force_strategy,
            plan_cache=plan_cache if plan_cache is not None else active_plan_cache(),
            check=check,
            fusion=fusion,
        )
        compiled = dataclasses.replace(
            units[0],
            planner=planner_decision,
            compile_seconds=time.perf_counter() - start,
        )
        return _apply_check(compiled, check)
    return lower(plan_statement(program, params, **slabbing), check)


def compile_whole_program(
    program: ProgramIR,
    params: Optional[MachineParameters] = None,
    *,
    memory_budget_bytes: Optional[int] = None,
    slab_ratio: Optional[float] = None,
    slab_elements: Optional[Dict[str, int]] = None,
    policy: Optional[AllocationPolicy] = None,
    force_strategy: Optional[SlabbingStrategy | str] = None,
    strategies: Sequence[SlabbingStrategy | str] = _SLABBINGS,
    optimizer: Optional[str] = None,
    plan_cache: Optional["PlanCache"] = None,
    check: str = "off",
    fusion: str = "off",
) -> CompiledWholeProgram:
    """Compile a (possibly multi-statement) program for out-of-core execution.

    Each statement goes through the unchanged single-statement pipeline —
    analysis, strip-mining, cost estimation, reorganization, code generation —
    on the whole program's shared array descriptors, so consecutive statements
    agree on every array's distribution and Local Array File layout.  The slab
    specification is interpreted per statement:

    * ``memory_budget_bytes`` is one *shared* node budget: statements execute
      back to back, but the compiler conservatively bounds every statement's
      working set so a schedule interleaving statement windows (e.g. with
      prefetch) stays within memory.  How the budget is divided is decided by
      ``optimizer``: ``"none"`` (or a pinned ``policy``) keeps the even split
      (remainder redistributed, no byte dropped), while ``"greedy"`` /
      ``"beam"`` / ``"exhaustive"`` delegate the division to the plan
      optimizer (:mod:`repro.planner`), which searches per-statement budgets
      and allocation policies against the cost model and never returns a plan
      worse than the even split; its :class:`~repro.planner.search.PlanDecision`
      is attached as ``.planner``.  ``plan_cache`` (or the ambient Session
      cache installed with
      :func:`repro.planner.plan_cache.use_plan_cache`) replays previous
      search winners;
    * ``slab_ratio`` applies to every array of every statement;
    * ``slab_elements`` entries are routed to the statements referencing them.

    The per-statement plans are summed into one program-level
    :class:`~repro.core.cost_model.PlanCost`; an intermediate's I/O appears
    exactly once as a write (producer statement) and once as a read (consumer
    statement).
    """
    params = params or touchstone_delta()
    start = time.perf_counter()
    fusion = normalize_fusion(fusion)
    statements = program.statements
    specified = sum(x is not None for x in (memory_budget_bytes, slab_ratio, slab_elements))
    if specified != 1:
        raise CompilationError(
            "specify exactly one of memory_budget_bytes, slab_ratio or slab_elements"
        )
    statement_budgets: Optional[Sequence[int]] = None
    planner_decision = None
    units: Sequence[CompiledProgram] = ()
    if memory_budget_bytes is not None:
        from repro.planner.budget import split_evenly
        from repro.planner.plan_cache import active_plan_cache
        from repro.planner.search import normalize_optimizer, plan_whole_program

        if int(memory_budget_bytes) < len(statements):
            raise CompilationError(
                f"memory budget of {memory_budget_bytes} bytes cannot be split "
                f"between {len(statements)} statements"
            )
        effective = normalize_optimizer(optimizer)
        if policy is None:
            cache = plan_cache if plan_cache is not None else active_plan_cache()
            planner_decision, units = plan_whole_program(
                program,
                params,
                int(memory_budget_bytes),
                optimizer=effective,
                strategies=strategies,
                force_strategy=force_strategy,
                plan_cache=cache if effective != "none" else None,
                check=check,
                fusion=fusion,
            )
        else:
            # A pinned allocation policy bypasses the search: even budget split
            # (exact — the remainder is redistributed, not dropped).
            statement_budgets = split_evenly(int(memory_budget_bytes), len(statements))

    if planner_decision is None:
        compiled_statements = []
        for index in range(len(statements)):
            sub_program = program.statement_program(index)
            sub_slabs: Optional[Dict[str, int]] = None
            if slab_elements is not None:
                referenced = sub_program.statement.referenced_arrays()
                sub_slabs = {
                    name: int(slab_elements[name]) for name in referenced if name in slab_elements
                }
            compiled_statements.append(
                compile_program(
                    sub_program,
                    params,
                    memory_budget_bytes=(
                        statement_budgets[index] if statement_budgets is not None else None
                    ),
                    slab_ratio=slab_ratio,
                    slab_elements=sub_slabs,
                    policy=policy,
                    force_strategy=force_strategy,
                    strategies=strategies,
                )
            )
        units = compiled_statements

    whole = CompiledWholeProgram(
        program=program,
        statements=tuple(units),
        schedule=generate_program_schedule(program, list(units)),
        cost=combine_plan_costs([unit.plan.cost for unit in units]),
        params=params,
        nprocs=program.nprocs(),
        compile_seconds=time.perf_counter() - start,
        planner=planner_decision,
        memory_budget_bytes=(
            int(memory_budget_bytes) if memory_budget_bytes is not None else None
        ),
    )
    return _apply_check(whole, check)


def compile_gaxpy(
    n: int,
    nprocs: int,
    params: Optional[MachineParameters] = None,
    *,
    dtype: str = "float32",
    memory_budget_bytes: Optional[int] = None,
    slab_ratio: Optional[float] = None,
    slab_elements: Optional[Dict[str, int]] = None,
    policy: Optional[AllocationPolicy] = None,
    force_strategy: Optional[SlabbingStrategy | str] = None,
    optimizer: Optional[str] = None,
) -> CompiledProgram:
    """Build and compile the paper's out-of-core GAXPY matrix multiplication."""
    program = build_gaxpy_ir(n, nprocs, dtype=dtype)
    return compile_program(
        program,
        params,
        memory_budget_bytes=memory_budget_bytes,
        slab_ratio=slab_ratio,
        slab_elements=slab_elements,
        policy=policy,
        force_strategy=force_strategy,
        optimizer=optimizer,
    )
