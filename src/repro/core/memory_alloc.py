"""Memory allocation for competing out-of-core arrays (Section 4.2.1).

When several out-of-core arrays are staged simultaneously, the node memory
budget must be divided between their In-core Local Arrays.  The paper
compares dividing the memory equally against giving the most frequently
accessed array a larger slab, and concludes the compiler should do the
latter ("the compiler can determine which array requires more I/O accesses
and accordingly allocate the available memory").

Three policies are provided:

* :class:`EqualAllocation` — the naive equal split,
* :class:`ProportionalAllocation` — split proportionally to each array's
  predicted data traffic under an equal-split probe (the paper's heuristic),
* :class:`SearchAllocation` — a coarse search over split fractions that
  minimises the cost model's predicted time (what a compiler with a little
  more budget for compile-time analysis would do).

All policies reserve one line (one column / row of the local array) for the
result array, which is only written, and divide the remainder between the
streamed and coefficient arrays.

The concrete policies are frozen (hashable, value-compared) dataclasses, so
two compilations under equal policies produce equal plans.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Dict, Tuple

from repro.exceptions import MemoryAllocationError
from repro.core.analysis import InCorePhaseResult
from repro.core.cost_model import CostModel, Price, local_elements
from repro.core.stripmine import SlabPlanEntry, build_plan_entry, slab_lines
from repro.runtime.slab import SlabbingStrategy

__all__ = [
    "AllocationPolicy",
    "EqualAllocation",
    "ProportionalAllocation",
    "SearchAllocation",
]


def _local_geometry(analysis: InCorePhaseResult, name: str) -> Tuple[int, int]:
    rows, cols = analysis.program.arrays[name].max_local_shape()
    return rows, cols


def _result_reserve(analysis: InCorePhaseResult) -> int:
    """Elements reserved for the result array's staging buffer: one local column."""
    rows, _cols = _local_geometry(analysis, analysis.result)
    return max(rows, 1)


def _line_elements(analysis: InCorePhaseResult, name: str, strategy: SlabbingStrategy) -> int:
    rows, cols = _local_geometry(analysis, name)
    if strategy is SlabbingStrategy.COLUMN:
        return max(rows, 1)
    return max(cols, 1)


class AllocationPolicy(abc.ABC):
    """Split a memory budget (in elements) between the statement's arrays."""

    name = "abstract"

    @abc.abstractmethod
    def split(
        self,
        analysis: InCorePhaseResult,
        strategy: SlabbingStrategy,
        budget_elements: int,
        cost_model: CostModel,
    ) -> Dict[str, int]:
        """Return slab sizes in elements for the streamed, coefficient and result arrays."""

    # -- shared helpers -------------------------------------------------------
    def _validate_budget(self, analysis: InCorePhaseResult, strategy: SlabbingStrategy,
                         budget_elements: int) -> int:
        minimum = (
            _result_reserve(analysis)
            + _line_elements(analysis, analysis.streamed, strategy)
            + _line_elements(analysis, analysis.coefficient, SlabbingStrategy.COLUMN)
        )
        if budget_elements < minimum:
            raise MemoryAllocationError(
                f"memory budget of {budget_elements} elements is below the minimum of "
                f"{minimum} (one slab line per array)"
            )
        return budget_elements

    def _clamp(self, analysis: InCorePhaseResult, name: str, elements: int) -> int:
        rows, cols = _local_geometry(analysis, name)
        return max(1, min(elements, rows * cols))

    def _package(
        self,
        analysis: InCorePhaseResult,
        strategy: SlabbingStrategy,
        streamed_elements: int,
        coefficient_elements: int,
    ) -> Dict[str, int]:
        return {
            analysis.streamed: self._clamp(analysis, analysis.streamed, streamed_elements),
            analysis.coefficient: self._clamp(analysis, analysis.coefficient, coefficient_elements),
            analysis.result: self._clamp(analysis, analysis.result, _result_reserve(analysis)),
        }


@dataclasses.dataclass(frozen=True)
class EqualAllocation(AllocationPolicy):
    """Divide the budget equally between the streamed and coefficient arrays."""

    name = "equal"

    def split(
        self,
        analysis: InCorePhaseResult,
        strategy: "SlabbingStrategy | str",
        budget_elements: int,
        cost_model: CostModel,
    ) -> Dict[str, int]:
        strategy = SlabbingStrategy.from_name(strategy)
        budget_elements = self._validate_budget(analysis, strategy, budget_elements)
        available = budget_elements - _result_reserve(analysis)
        half = available // 2
        return self._package(analysis, strategy, half, available - half)


@dataclasses.dataclass(frozen=True)
class ProportionalAllocation(AllocationPolicy):
    """Split proportionally to how much I/O each array's slab size controls.

    Starting from an equal split, the policy probes the cost model twice —
    once with the streamed array's slab doubled, once with the coefficient
    array's slab doubled — and divides the budget in proportion to the I/O
    time each enlargement saves.  This realises the paper's guidance ("the
    compiler can determine which array requires more I/O accesses and
    accordingly allocate the available memory"): for the row-slab GAXPY plan
    the streamed array wins because enlarging its slab also cuts the number
    of times the coefficient array is re-read.
    """

    name = "proportional"

    def split(
        self,
        analysis: InCorePhaseResult,
        strategy: "SlabbingStrategy | str",
        budget_elements: int,
        cost_model: CostModel,
    ) -> Dict[str, int]:
        strategy = SlabbingStrategy.from_name(strategy)
        budget_elements = self._validate_budget(analysis, strategy, budget_elements)
        available = budget_elements - _result_reserve(analysis)
        baseline = EqualAllocation().split(analysis, strategy, budget_elements, cost_model)
        price_of = _prober(analysis, strategy, cost_model)
        baseline_io = price_of(baseline).io_time

        def savings(array: str) -> float:
            probe = dict(baseline)
            probe[array] = self._clamp(analysis, array, probe[array] * 2)
            return max(baseline_io - price_of(probe).io_time, 0.0)

        streamed_gain = savings(analysis.streamed)
        coefficient_gain = savings(analysis.coefficient)
        total = streamed_gain + coefficient_gain
        share = 0.5 if total <= 0 else streamed_gain / total
        streamed_elements = max(
            _line_elements(analysis, analysis.streamed, strategy), int(available * share)
        )
        coefficient_elements = max(
            _line_elements(analysis, analysis.coefficient, SlabbingStrategy.COLUMN),
            available - streamed_elements,
        )
        return self._package(analysis, strategy, streamed_elements, coefficient_elements)


@dataclasses.dataclass(frozen=True)
class SearchAllocation(AllocationPolicy):
    """Coarse search over split fractions, minimising the modelled total time."""

    name = "search"
    fractions: int = 9

    def split(
        self,
        analysis: InCorePhaseResult,
        strategy: "SlabbingStrategy | str",
        budget_elements: int,
        cost_model: CostModel,
    ) -> Dict[str, int]:
        strategy = SlabbingStrategy.from_name(strategy)
        budget_elements = self._validate_budget(analysis, strategy, budget_elements)
        available = budget_elements - _result_reserve(analysis)
        best: Dict[str, int] | None = None
        best_time = float("inf")
        price_of = _prober(analysis, strategy, cost_model)
        for step in range(1, self.fractions + 1):
            fraction = step / (self.fractions + 1)
            streamed_elements = max(
                _line_elements(analysis, analysis.streamed, strategy), int(available * fraction)
            )
            coefficient_elements = max(
                _line_elements(analysis, analysis.coefficient, SlabbingStrategy.COLUMN),
                available - streamed_elements,
            )
            split = self._package(analysis, strategy, streamed_elements, coefficient_elements)
            total_time = price_of(split).total_time
            if total_time < best_time:
                best_time = total_time
                best = split
        if best is None:  # pragma: no cover - fractions >= 1 always yields a candidate
            raise MemoryAllocationError("search allocation produced no candidate")
        return best


def _entry_strategy(
    analysis: InCorePhaseResult, strategy: SlabbingStrategy, name: str
) -> SlabbingStrategy:
    """The streamed array uses the candidate strategy; the coefficient and
    result arrays are always staged by whole local columns (their access
    order in both of the paper's program versions)."""
    return strategy if name == analysis.streamed else SlabbingStrategy.COLUMN


def _entries_from_split(
    analysis: InCorePhaseResult,
    strategy: SlabbingStrategy,
    split: Dict[str, int],
) -> Dict[str, SlabPlanEntry]:
    """Build slab plan entries for a {array: slab_elements} split."""
    return {
        name: build_plan_entry(
            analysis.program.arrays[name], _entry_strategy(analysis, strategy, name), elements
        )
        for name, elements in split.items()
    }


def _prober(
    analysis: InCorePhaseResult, strategy: SlabbingStrategy, cost_model: CostModel
) -> Callable[[Dict[str, int]], Price]:
    """The policies' probe: ``split -> Price`` for one statement and strategy.

    The statement's geometry is read once; a probe then strip-mines with
    :func:`slab_lines` and asks :meth:`CostModel.price` for scalars — the
    entries and :class:`PlanCost` :func:`_entries_from_split` +
    :meth:`CostModel.estimate` would build for the same split carry exactly
    these numbers.  Memoised on the lines-per-slab tuple: many element splits
    round to the same whole lines.
    """
    local = local_elements(analysis.program)
    geometry = {
        name: (descriptor.max_local_shape(), _entry_strategy(analysis, strategy, name))
        for name, descriptor in analysis.program.arrays.items()
    }
    memo: Dict[Tuple[int, ...], Price] = {}

    def price_of(split: Dict[str, int]) -> Price:
        cuts = [slab_lines(*geometry[name], elements) for name, elements in split.items()]
        key = tuple(lines for _, lines, _ in cuts)
        price = memo.get(key)
        if price is None:
            slabs = {name: cut[2] for name, cut in zip(split, cuts, strict=True)}
            price = memo[key] = cost_model.price(analysis, strategy, slabs, local)
        return price

    return price_of
