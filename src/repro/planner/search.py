"""Plan-space search strategies: greedy, exhaustive and beam.

Every search *prices* candidates with the existing cost model and lowers
nothing but its winner — as the paper's compiler chooses the access plan from
closed-form counts (eqs. 3–6, Figure 14, Table 2) and never generates a node
program to find out what one would cost.  A statement is analyzed once; a
candidate assigns each statement a budget and a policy, each
``(statement, budget, policy)`` is priced by
:func:`~repro.core.pipeline.plan_statement` (strip-mining, allocation probes
and Figure-14 reorganization on scalar :meth:`CostModel.price` calls), and
the candidate's cost key is the per-statement costs summed in the order
:func:`~repro.core.cost_model.combine_plan_costs` sums them.  Only the
returned plan goes through :func:`~repro.core.pipeline.lower` (code
generation) — unless the search was asked to verify, in which case every
priced statement is lowered and checked on the spot so an unverifiable plan
is never ranked.  Because every search seeds with the even-split baseline
and only ever replaces it with a strictly cheaper candidate, the returned
plan is provably no worse than the legacy even split under the model.

* ``"none"`` — the even split itself (the legacy behaviour, remainder fixed);
* ``"greedy"`` — hill-climbing quantum transfers between statements with a
  halving step size, plus a per-statement allocation-policy refinement;
* ``"exhaustive"`` — a full grid over the budget simplex with per-statement
  best policies (search time is paid for; the grid and the
  :class:`~repro.core.memory_alloc.SearchAllocation` fraction set are finer);
* ``"beam"`` — greedy's neighbourhood expansion keeping the best
  ``BEAM_WIDTH`` states per round (escapes single-path local minima at a
  bounded multiple of greedy's pricing cost).

Statement plans are memoized on ``(statement, budget, policy)``, so the
searches share work: an exhaustive grid over three statements prices a few
dozen statement plans, and every further candidate is a handful of dictionary
lookups and float additions.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from repro.core.analysis import analyze_program
from repro.core.cost_model import CostModel, PlanCost, Price, combine_plan_costs
from repro.core.pipeline import (
    CompiledProgram,
    StatementPlan,
    fuse_statement_pair,
    lower,
    normalize_fusion,
    plan_statement,
    price_fused_pair,
)
from repro.exceptions import CompilationError, CostModelError, MemoryAllocationError
from repro.machine.cluster import fold
from repro.machine.parameters import MachineParameters
from repro.planner.plan_cache import PlanCache, plan_fingerprint
from repro.planner.space import (
    NO_POLICY,
    POLICY_NAMES,
    PlanChoice,
    budget_grid,
    even_choice,
    fusable_edges,
    fusion_masks,
    policy_instance,
    statement_kinds,
    transfer_neighbors,
)
from repro.runtime.slab import SlabbingStrategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ir import ProgramIR

__all__ = ["OPTIMIZERS", "PlanDecision", "normalize_optimizer", "plan_whole_program"]

#: recognised optimizer names, in increasing compile-time order.
OPTIMIZERS: Tuple[str, ...] = ("none", "greedy", "beam", "exhaustive")

#: states kept per round by the beam search.
BEAM_WIDTH = 4
#: hard cap on hill-climbing rounds (greedy and beam).
MAX_ROUNDS = 64


def normalize_optimizer(optimizer: Optional[str]) -> str:
    """Map ``None`` to ``"none"`` and reject unknown optimizer names."""
    name = "none" if optimizer is None else str(optimizer)
    if name not in OPTIMIZERS:
        raise CompilationError(
            f"unknown plan optimizer {name!r} (choose from {sorted(OPTIMIZERS)})"
        )
    return name


@dataclasses.dataclass(frozen=True)
class PlanDecision:
    """What the planner decided and why — attached to compiled programs.

    ``statement_budgets`` / ``policies`` pin the winning
    :class:`~repro.planner.space.PlanChoice`; the ``predicted_*`` numbers are
    the winner's modelled cost, the ``even_*`` numbers the even-split
    baseline's, so callers can verify the no-worse guarantee and records can
    report predicted-vs-charged quantities.  ``cache_status`` is ``"off"``
    (no cache in play), ``"hit"`` (winner replayed from the plan cache) or
    ``"miss"`` (search ran, winner stored).
    """

    optimizer: str
    statement_budgets: Tuple[int, ...]
    policies: Tuple[str, ...]
    predicted_total_time: float
    predicted_io_time: float
    predicted_io_bytes: float
    even_total_time: float
    even_io_time: float
    even_io_bytes: float
    candidates_evaluated: int
    cache_status: str = "off"
    #: producer indices fused with their successor (empty: fully materialized)
    fused_edges: Tuple[int, ...] = ()

    @property
    def choice(self) -> PlanChoice:
        return PlanChoice(self.statement_budgets, self.policies, self.fused_edges)

    @property
    def improvement(self) -> float:
        """Even-split time over chosen-plan time (>= 1.0 by construction)."""
        if self.predicted_total_time <= 0:
            return 1.0
        return self.even_total_time / self.predicted_total_time

    def describe(self) -> str:
        lines = [
            f"plan optimizer [{self.optimizer}] "
            f"(cache {self.cache_status}, {self.candidates_evaluated} candidates):",
            f"  chosen budgets: {list(self.statement_budgets)} bytes, "
            f"policies {list(self.policies)}",
            f"  predicted time {self.predicted_total_time:.2f}s "
            f"(io {self.predicted_io_time:.2f}s) vs even split "
            f"{self.even_total_time:.2f}s (io {self.even_io_time:.2f}s) — "
            f"{self.improvement:.2f}x",
        ]
        if self.fused_edges:
            lines.append(
                "  fused statement pairs: "
                + ", ".join(f"(s{i}, s{i + 1})" for i in self.fused_edges)
            )
        return "\n".join(lines)


CostKey = Tuple[float, float, float]
"""Total order over plan costs: time first, I/O time, then data volume."""

#: a statement under one budget and policy: priced, or lowered as well when
#: the search verifies its candidates
_Unit = Union[StatementPlan, CompiledProgram]

#: the share of a :data:`CostKey` one unit contributes:
#: ``(io_time, compute_time, comm_time, io_bytes)``
_Part = Tuple[float, float, float, float]


def _part(price: Price, itemsize: int) -> _Part:
    return (price.io_time, price.compute_time, price.comm_time, price.io_elements * itemsize)


def _key(parts: Sequence[_Part]) -> CostKey:
    """``(total_time, io_time, io_bytes)`` of the units contributing ``parts``.

    Bit for bit what :func:`combine_plan_costs` of the units' costs reports:
    times are left folds in unit order (:func:`~repro.machine.cluster.fold`),
    and element counts are whole numbers, so their sum does not depend on
    how it is grouped.
    """
    io_time = fold(0, [part[0] for part in parts])
    compute_time = fold(0, [part[1] for part in parts])
    comm_time = fold(0, [part[2] for part in parts])
    return (io_time + compute_time + comm_time, io_time, sum(part[3] for part in parts))


def _units_under(mask: Sequence[int], statements: int) -> Iterator[Tuple[int, bool]]:
    """``(first statement, is a fused pair)`` of each unit when ``mask`` fuses."""
    index = 0
    while index < statements:
        is_pair = index in mask
        yield index, is_pair
        index += 2 if is_pair else 1


@dataclasses.dataclass
class _Evaluation:
    """One priced candidate: its cost key, knobs and per-statement plans."""

    key: CostKey
    budgets: Tuple[int, ...]
    policies: Tuple[str, ...]
    units: Tuple[_Unit, ...]  # one per statement, fused or not
    #: producer indices whose pair is priced (and will be lowered) fused
    fused_edges: Tuple[int, ...] = ()


class _ProgramEvaluator:
    """Prices plan candidates, memoized per statement knob; lowers the winner."""

    def __init__(
        self,
        program: "ProgramIR",
        params: MachineParameters,
        strategies: "Sequence[SlabbingStrategy | str]",
        force_strategy: "Optional[SlabbingStrategy | str]",
        *,
        fine: bool,
        check: str = "off",
        fusion: str = "off",
    ) -> None:
        self.program = program
        self.params = params
        self.strategies = tuple(strategies)
        self.force_strategy = force_strategy
        self.fine = fine
        #: statically legal fusion edges (dataflow only); conformality of the
        #: chosen slab extents is re-checked per candidate by the pair pricer
        self.fusable = fusable_edges(program) if fusion != "off" else ()
        # Any enabled check mode becomes "error" inside the search: a
        # statement plan whose lowering fails static verification raises
        # PlanVerificationError (a CompilationError), lands in the except
        # clause of _priced, and is rejected like any other infeasible
        # candidate — the search only ever returns verified plans.
        self.check = "error" if check != "off" else "off"
        self.kinds = statement_kinds(program)
        self.subs = [
            program.statement_program(index)
            for index in range(len(program.statements))
        ]
        self.analyses = [analyze_program(sub) for sub in self.subs]
        self.cost_model = CostModel(params, program.nprocs())
        self._statement_memo: Dict[Tuple[int, int, str], Optional[Tuple[_Part, _Unit]]] = {}
        self._best_memo: Dict[Tuple[int, int], Optional[Tuple[_Part, str, _Unit]]] = {}
        self.candidates_evaluated = 0

    # ------------------------------------------------------------------
    def _plan(self, index: int, budget: int, policy_name: str) -> _Unit:
        """Price one statement under one budget/policy; raises if infeasible."""
        planned = plan_statement(
            self.subs[index],
            self.params,
            analysis=self.analyses[index],
            memory_budget_bytes=int(budget),
            policy=policy_instance(policy_name, fine=self.fine),
            force_strategy=self.force_strategy,
            strategies=self.strategies,
        )
        return planned if self.check == "off" else lower(planned, self.check)

    def _priced(
        self, index: int, budget: int, policy_name: str
    ) -> Optional[Tuple[_Part, _Unit]]:
        """Memoized :meth:`_plan` with its price; ``None`` if infeasible."""
        key = (index, int(budget), policy_name)
        if key in self._statement_memo:
            return self._statement_memo[key]
        result: Optional[Tuple[_Part, _Unit]]
        try:
            unit = self._plan(index, budget, policy_name)
            cost: PlanCost = unit.plan.cost
            result = (_part(cost.price, cost.itemsize), unit)
        except (CompilationError, MemoryAllocationError, CostModelError):
            result = None
        self._statement_memo[key] = result
        return result

    def _best_statement(
        self, index: int, budget: int
    ) -> Optional[Tuple[_Part, str, _Unit]]:
        """Cheapest (price, policy, plan) for one statement at one budget."""
        key = (index, int(budget))
        if key in self._best_memo:
            return self._best_memo[key]
        names = POLICY_NAMES if self.kinds[index] else (NO_POLICY,)
        best = None
        for name in names:
            priced = self._priced(index, budget, name)
            if priced is None:
                continue
            if best is None or _key(priced[:1]) < _key(best[:1]):
                best = (priced[0], name, priced[1])
        self._best_memo[key] = best
        return best

    def _fused_parts(
        self, mask: Tuple[int, ...], parts: Sequence[_Part], units: Sequence[_Unit]
    ) -> Optional[List[_Part]]:
        """Per-unit prices with the pairs of ``mask`` fused, or ``None``.

        ``None`` means some chosen edge is not conformal under these budgets
        (the pair pricer refused); the candidate simply does not fuse there.
        """
        fused: List[_Part] = []
        for index, is_pair in _units_under(mask, len(units)):
            if not is_pair:
                fused.append(parts[index])
                continue
            consumer = units[index + 1]
            try:
                price = price_fused_pair(index, units[index], consumer, self.cost_model)
            except (CompilationError, CostModelError):
                return None
            # The fused unit is costed in its result's item size: the consumer's.
            fused.append(_part(price, consumer.plan.cost.itemsize))
        return fused

    def lower(self, evaluation: _Evaluation) -> Tuple[CompiledProgram, ...]:
        """Lower ``evaluation`` — the one candidate that reaches code generation."""
        units = evaluation.units
        lowered: List[CompiledProgram] = []
        for index, is_pair in _units_under(evaluation.fused_edges, len(units)):
            unit = units[index]
            if is_pair:
                unit = fuse_statement_pair(
                    self.program, index, unit, units[index + 1], self.params
                )
            lowered.append(unit if isinstance(unit, CompiledProgram) else lower(unit))
        return tuple(lowered)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        budgets: Sequence[int],
        policies: Optional[Sequence[str]] = None,
        *,
        must_succeed: bool = False,
        allow_fusion: bool = True,
        fused_edges: Optional[Sequence[int]] = None,
    ) -> Optional[_Evaluation]:
        """Price a full candidate; ``None`` when any statement is infeasible.

        With ``policies`` the given policy names are used verbatim (the even
        baseline, cached replays); without, each statement independently takes
        its cheapest policy at its budget — the costs are separable, so the
        per-statement optimum is the program optimum for that budget vector.

        The fusion dimension rides along: with ``allow_fusion`` (and legal
        edges) every non-overlapping fusion mask is priced on top of the
        per-statement plans and the cheapest wins, so each budget vector the
        searches visit is automatically evaluated fused *and* unfused.
        ``fused_edges`` pins one exact mask instead (cache replays); a pinned
        mask that is not conformal under these budgets degrades to unfused.

        ``must_succeed`` (the baseline) re-raises the error that made a
        statement infeasible instead of returning ``None``.
        """
        self.candidates_evaluated += 1
        parts: List[_Part] = []
        chosen_policies: List[str] = []
        units: List[_Unit] = []
        for index, budget in enumerate(budgets):
            if policies is not None:
                priced = self._priced(index, budget, policies[index])
                entry = (priced[0], policies[index], priced[1]) if priced else None
            else:
                entry = self._best_statement(index, budget)
            if entry is None:
                if must_succeed:
                    # Surface the error the search hit, from the same call.
                    self._plan(index, budget, policies[index] if policies else NO_POLICY)
                return None
            parts.append(entry[0])
            chosen_policies.append(entry[1])
            units.append(entry[2])
        if must_succeed:
            # Refuse mixed item sizes here, where the search starts, with the
            # error assembling the program would raise after it.
            combine_plan_costs([unit.plan.cost for unit in units])
        best = _Evaluation(
            key=_key(parts),
            budgets=tuple(int(b) for b in budgets),
            policies=tuple(chosen_policies),
            units=tuple(units),
        )
        if fused_edges is not None:
            masks: Sequence[Tuple[int, ...]] = [tuple(sorted(int(i) for i in fused_edges))]
        elif allow_fusion and self.fusable:
            masks = list(fusion_masks(self.fusable))
        else:
            masks = []
        for mask in masks:
            if not mask:
                continue
            fused = self._fused_parts(mask, parts, units)
            if fused is None:
                continue
            self.candidates_evaluated += 1
            key = _key(fused)
            if key < best.key or fused_edges is not None:
                best = dataclasses.replace(best, key=key, fused_edges=mask)
        return best


# ---------------------------------------------------------------------------
# the search strategies
# ---------------------------------------------------------------------------
def _search_greedy(
    evaluator: _ProgramEvaluator, start: _Evaluation, total: int
) -> _Evaluation:
    """Hill-climb quantum transfers between statements, halving the step."""
    best = start
    nstatements = len(start.budgets)
    if nstatements < 2:
        return best
    quantum = max(total // (2 * nstatements), 1)
    floor = max(total // 256, 1)
    rounds = 0
    while quantum >= floor and rounds < MAX_ROUNDS:
        rounds += 1
        winner = None
        for candidate in transfer_neighbors(best.budgets, quantum):
            priced = evaluator.evaluate(candidate)
            if priced is None:
                continue
            if winner is None or priced.key < winner.key:
                winner = priced
        if winner is not None and winner.key < best.key:
            best = winner
        else:
            quantum //= 2
    return best


def _search_beam(
    evaluator: _ProgramEvaluator, start: _Evaluation, total: int
) -> _Evaluation:
    """Greedy's neighbourhood expansion, keeping ``BEAM_WIDTH`` states alive."""
    best = start
    nstatements = len(start.budgets)
    if nstatements < 2:
        return best
    beam: List[_Evaluation] = [start]
    quantum = max(total // (2 * nstatements), 1)
    floor = max(total // 256, 1)
    rounds = 0
    while quantum >= floor and rounds < MAX_ROUNDS:
        rounds += 1
        frontier: Dict[Tuple[int, ...], _Evaluation] = {
            state.budgets: state for state in beam
        }
        for state in beam:
            for candidate in transfer_neighbors(state.budgets, quantum):
                if candidate in frontier:
                    continue
                priced = evaluator.evaluate(candidate)
                if priced is not None:
                    frontier[candidate] = priced
        ranked = sorted(frontier.values(), key=lambda e: e.key)
        improved = ranked[0].key < best.key
        if improved:
            best = ranked[0]
        beam = ranked[:BEAM_WIDTH]
        if not improved:
            quantum //= 2
    return best


def _search_exhaustive(
    evaluator: _ProgramEvaluator, start: _Evaluation, total: int
) -> _Evaluation:
    """Full budget-simplex grid with per-statement best policies."""
    best = start
    nstatements = len(start.budgets)
    if nstatements < 2:
        # Only the policy choice exists; evaluate() already optimized it.
        refined = evaluator.evaluate(start.budgets)
        if refined is not None and refined.key < best.key:
            best = refined
        return best
    steps = 12 if nstatements <= 3 else max(2 * nstatements, 8)
    for budgets in budget_grid(total, nstatements, steps):
        priced = evaluator.evaluate(budgets)
        if priced is not None and priced.key < best.key:
            best = priced
    # Polish the grid winner with fine-grained transfers: the grid quantum is
    # total/steps, far coarser than greedy's final halved step.
    return _search_greedy(evaluator, best, total)


_SEARCHES = {
    "greedy": _search_greedy,
    "beam": _search_beam,
    "exhaustive": _search_exhaustive,
}


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------
def plan_whole_program(
    program: "ProgramIR",
    params: MachineParameters,
    memory_budget_bytes: int,
    *,
    optimizer: Optional[str] = "greedy",
    strategies: "Sequence[SlabbingStrategy | str]" = (SlabbingStrategy.COLUMN, SlabbingStrategy.ROW),
    force_strategy: "Optional[SlabbingStrategy | str]" = None,
    plan_cache: Optional[PlanCache] = None,
    check: str = "off",
    fusion: str = "off",
) -> Tuple[PlanDecision, Tuple[CompiledProgram, ...]]:
    """Search the plan space of ``program`` under one node byte budget.

    Returns the :class:`PlanDecision` plus the winning candidate's compiled
    statements (one :class:`~repro.core.pipeline.CompiledProgram` each), ready
    for :func:`~repro.core.pipeline.compile_whole_program` to assemble.  The
    winner's predicted cost is never worse than the even split's: the even
    candidate seeds every search and is only displaced by strictly cheaper
    plans.

    With ``check`` enabled (anything but ``"off"``), every candidate's
    compiled plan runs through the static verifier and failing candidates are
    rejected during the search, so the returned decision is both no-worse
    *and* verified.  A cached winner that no longer verifies is discarded and
    the search re-runs.
    """
    optimizer = normalize_optimizer(optimizer)
    fusion = normalize_fusion(fusion)
    total = int(memory_budget_bytes)
    evaluator = _ProgramEvaluator(
        program,
        params,
        strategies,
        force_strategy,
        fine=optimizer == "exhaustive",
        check=check,
        fusion=fusion if optimizer != "none" else "off",
    )
    even = even_choice(program, total)
    # The no-worse anchor is the *unfused* even split — exactly the plan the
    # legacy pipeline produced; fusion only ever displaces it by pricing
    # strictly cheaper.
    baseline = evaluator.evaluate(
        even.statement_budgets, even.policies, must_succeed=True, allow_fusion=False
    )
    best = baseline
    cache_status = "off"

    if optimizer == "none":
        return _decision(optimizer, best, baseline, evaluator, cache_status), evaluator.lower(best)

    key = None
    if plan_cache is not None:
        force_name = (
            SlabbingStrategy.from_name(force_strategy).value
            if force_strategy is not None
            else None
        )
        key = plan_fingerprint(
            program,
            params,
            memory_budget_bytes=total,
            optimizer=optimizer,
            strategies=[SlabbingStrategy.from_name(s).value for s in strategies],
            force_strategy=force_name,
            fusion=fusion,
        )
        cached = plan_cache.lookup(key)
        if (
            cached is not None
            and len(cached.statement_budgets) == len(program.statements)
            and cached.total_budget == total
            and set(cached.fused_edges) <= set(evaluator.fusable)
        ):
            replay = evaluator.evaluate(
                cached.statement_budgets,
                cached.policies,
                fused_edges=cached.fused_edges,
            )
            if replay is not None:
                if replay.key < best.key:
                    best = replay
                return (
                    _decision(optimizer, best, baseline, evaluator, "hit"),
                    evaluator.lower(best),
                )
        cache_status = "miss"

    # Refine the starting point: keep even budgets but let every statement
    # take its cheapest allocation policy (costs are separable, so this is
    # exact), then search budget transfers from there.
    start = evaluator.evaluate(even.statement_budgets)
    if start is None or baseline.key < start.key:
        start = baseline
    best = _SEARCHES[optimizer](evaluator, start, total)
    if baseline.key < best.key:  # pragma: no cover - safety net
        best = baseline
    if key is not None and plan_cache is not None:
        plan_cache.store(
            key,
            PlanChoice(best.budgets, best.policies, best.fused_edges),
            metadata={
                "optimizer": optimizer,
                "predicted_total_time": best.key[0],
                "predicted_io_bytes": best.key[2],
                "even_total_time": baseline.key[0],
            },
        )
    return _decision(optimizer, best, baseline, evaluator, cache_status), evaluator.lower(best)


def _decision(
    optimizer: str,
    best: _Evaluation,
    baseline: _Evaluation,
    evaluator: _ProgramEvaluator,
    cache_status: str,
) -> PlanDecision:
    return PlanDecision(
        optimizer=optimizer,
        statement_budgets=best.budgets,
        policies=best.policies,
        predicted_total_time=best.key[0],
        predicted_io_time=best.key[1],
        predicted_io_bytes=best.key[2],
        even_total_time=baseline.key[0],
        even_io_time=baseline.key[1],
        even_io_bytes=baseline.key[2],
        candidates_evaluated=evaluator.candidates_evaluated,
        cache_status=cache_status,
        fused_edges=best.fused_edges,
    )
