"""Strip-mining: turning a memory budget into slab sizes.

The out-of-core phase sections ("strip-mines") the local iteration space so
each stage operates on a slab that fits in the In-core Local Array.  This
module provides the conversions between the three ways a slab size is
specified in the paper and the experiments:

* a **slab ratio** — slab size as a fraction of the out-of-core local array
  (Figure 10 / Table 1 sweep the ratio from 1/8 to 1),
* a **memory budget in bytes** — what the machine model exposes, and
* an **element count** ``M`` — what the cost formulas use.

It also defines :class:`SlabPlanEntry`, the per-array slabbing decision the
reorganization step produces (strategy, slab size, number of slabs, on-disk
storage order).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

from repro.exceptions import CompilationError
from repro.hpf.array_desc import ArrayDescriptor
from repro.runtime.slab import SlabbingStrategy

__all__ = [
    "slab_elements_from_ratio",
    "slab_elements_from_bytes",
    "slab_ratio_from_elements",
    "SlabPlanEntry",
    "slab_lines",
    "build_plan_entry",
]


def _max_local_elements(descriptor: ArrayDescriptor) -> int:
    return math.prod(descriptor.max_local_shape())


def slab_elements_from_ratio(descriptor: ArrayDescriptor, ratio: float) -> int:
    """Convert a slab ratio (slab size / OCLA size) into an element count.

    The result is clamped to at least one column/row worth of elements so a
    slab is never empty, and at most the full local array.
    """
    if not 0 < ratio <= 1:
        raise CompilationError(f"slab ratio must be in (0, 1], got {ratio}")
    local = _max_local_elements(descriptor)
    return max(1, min(local, int(round(local * ratio))))


def slab_elements_from_bytes(descriptor: ArrayDescriptor, nbytes: int) -> int:
    """Convert a per-array memory budget in bytes into an element count."""
    if nbytes <= 0:
        raise CompilationError(f"memory budget must be positive, got {nbytes}")
    elements = nbytes // descriptor.itemsize
    if elements < 1:
        raise CompilationError(
            f"memory budget of {nbytes} bytes cannot hold one element of {descriptor.name!r}"
        )
    return int(min(elements, _max_local_elements(descriptor)))


def slab_ratio_from_elements(descriptor: ArrayDescriptor, elements: int) -> float:
    """Inverse of :func:`slab_elements_from_ratio` (for reporting)."""
    local = _max_local_elements(descriptor)
    if local == 0:
        return 1.0
    return min(1.0, elements / local)


@dataclasses.dataclass(frozen=True)
class SlabPlanEntry:
    """The slabbing decision for one out-of-core array."""

    array: str
    strategy: SlabbingStrategy
    #: slab capacity in elements (the paper's ``M``)
    slab_elements: int
    #: local array shape the slabbing applies to (max over processors)
    local_shape: Tuple[int, int]
    #: number of slabs the local array is divided into
    num_slabs: int
    #: whole rows / columns per slab
    lines_per_slab: int
    #: on-disk storage order chosen so each slab is contiguous ('F' or 'C')
    storage_order: str

    @property
    def slab_bytes_factor(self) -> int:
        return self.slab_elements

    def describe(self) -> str:
        return (
            f"{self.array}: {self.strategy.value}-slabs of {self.lines_per_slab} "
            f"{'columns' if self.strategy is SlabbingStrategy.COLUMN else 'rows'} "
            f"({self.slab_elements} elements, {self.num_slabs} slabs, "
            f"storage order {self.storage_order})"
        )


def slab_lines(
    local_shape: Tuple[int, ...], strategy: SlabbingStrategy, slab_elements: int
) -> Tuple[int, int, int]:
    """``(elements per line, lines per slab, number of slabs)`` of one slabbing.

    The slab size is rounded to whole columns (column slabbing) or whole rows
    (row slabbing), never less than one line.  This is all of a slabbing the
    cost model needs, so pricing (:meth:`CostModel.price`) strip-mines with
    three integer operations and no :class:`SlabPlanEntry`.
    """
    rows, cols = local_shape
    per_line, count = (rows, cols) if strategy is SlabbingStrategy.COLUMN else (cols, rows)
    per_line = max(per_line, 1)
    lines = max(1, min(max(count, 1), slab_elements // per_line or 1))
    return per_line, lines, (math.ceil(count / lines) if count else 1)


def build_plan_entry(
    descriptor: ArrayDescriptor,
    strategy: SlabbingStrategy | str,
    slab_elements: int,
) -> SlabPlanEntry:
    """Derive the concrete slabbing of one array from a strategy and a size.

    The line rounding is :func:`slab_lines`, applied to the largest local
    array (ranks with smaller parts simply have fewer slabs at run time).
    The storage order is picked so that every slab is one contiguous extent
    of the Local Array File: 'F' (column-major) for column slabs, 'C'
    (row-major) for row slabs — this is the on-disk data reorganization of
    the paper.
    """
    strategy = SlabbingStrategy.from_name(strategy)
    if slab_elements < 1:
        raise CompilationError(f"slab_elements must be positive, got {slab_elements}")
    rows, cols = descriptor.max_local_shape()
    per_line, lines, num_slabs = slab_lines((rows, cols), strategy, slab_elements)
    return SlabPlanEntry(
        array=descriptor.name,
        strategy=strategy,
        slab_elements=lines * per_line,
        local_shape=(rows, cols),
        num_slabs=num_slabs,
        lines_per_slab=lines,
        storage_order="F" if strategy is SlabbingStrategy.COLUMN else "C",
    )
