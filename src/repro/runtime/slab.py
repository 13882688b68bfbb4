"""Slabs: the unit of strip-mined out-of-core computation.

The out-of-core local array of each processor is processed in *slabs*, each
small enough to fit in the In-core Local Array.  The paper considers two
slabbings of a two-dimensional local array (Figure 11):

* **column slabs** — a slab is a contiguous group of whole local columns,
* **row slabs** — a slab is a contiguous group of whole local rows.

A :class:`Slab` describes one rectangular region of the *local* index space;
:func:`column_slabs` and :func:`row_slabs` partition a local array into slabs
of a requested size, and :func:`make_slabs` dispatches on a
:class:`SlabbingStrategy`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Tuple

from repro.exceptions import IOEngineError

__all__ = [
    "Slab", "SlabbingStrategy", "column_slabs", "row_slabs", "make_slabs",
    "lines_per_slab", "slab_runs",
]


class SlabbingStrategy(enum.Enum):
    """Which dimension of the local array is strip-mined."""

    COLUMN = "column"
    ROW = "row"

    @classmethod
    def from_name(cls, name: "SlabbingStrategy | str") -> "SlabbingStrategy":
        if isinstance(name, SlabbingStrategy):
            return name
        key = str(name).strip().lower()
        for member in cls:
            if member.value == key or member.name.lower() == key:
                return member
        raise IOEngineError(f"unknown slabbing strategy {name!r}")

    def other(self) -> "SlabbingStrategy":
        """The opposite slabbing (used when enumerating reorganization candidates)."""
        return SlabbingStrategy.ROW if self is SlabbingStrategy.COLUMN else SlabbingStrategy.COLUMN


@dataclasses.dataclass(frozen=True)
class Slab:
    """A rectangular region ``[row_start:row_stop, col_start:col_stop]`` of a local array."""

    index: int
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    def __post_init__(self) -> None:
        if self.row_start < 0 or self.col_start < 0:
            raise IOEngineError(f"slab {self} has negative start")
        if self.row_stop < self.row_start or self.col_stop < self.col_start:
            raise IOEngineError(f"slab {self} has negative extent")

    # -- geometry -------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def ncols(self) -> int:
        return self.col_stop - self.col_start

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nelements(self) -> int:
        return self.nrows * self.ncols

    def nbytes(self, itemsize: int) -> int:
        return self.nelements * int(itemsize)

    @property
    def row_slice(self) -> slice:
        return slice(self.row_start, self.row_stop)

    @property
    def col_slice(self) -> slice:
        return slice(self.col_start, self.col_stop)

    def contains(self, row: int, col: int) -> bool:
        return self.row_start <= row < self.row_stop and self.col_start <= col < self.col_stop

    def describe(self) -> str:
        return (
            f"slab#{self.index}[{self.row_start}:{self.row_stop}, "
            f"{self.col_start}:{self.col_stop}]"
        )


def column_slabs(local_shape: Tuple[int, int], cols_per_slab: int) -> List[Slab]:
    """Partition a local array into slabs of ``cols_per_slab`` whole columns."""
    nrows, ncols = int(local_shape[0]), int(local_shape[1])
    cols_per_slab = int(cols_per_slab)
    if cols_per_slab < 1:
        raise IOEngineError(f"cols_per_slab must be positive, got {cols_per_slab}")
    slabs: List[Slab] = []
    for index, start in enumerate(range(0, ncols, cols_per_slab)):
        stop = min(start + cols_per_slab, ncols)
        slabs.append(Slab(index=index, row_start=0, row_stop=nrows, col_start=start, col_stop=stop))
    if ncols == 0:
        slabs.append(Slab(index=0, row_start=0, row_stop=nrows, col_start=0, col_stop=0))
    return slabs


def row_slabs(local_shape: Tuple[int, int], rows_per_slab: int) -> List[Slab]:
    """Partition a local array into slabs of ``rows_per_slab`` whole rows."""
    nrows, ncols = int(local_shape[0]), int(local_shape[1])
    rows_per_slab = int(rows_per_slab)
    if rows_per_slab < 1:
        raise IOEngineError(f"rows_per_slab must be positive, got {rows_per_slab}")
    slabs: List[Slab] = []
    for index, start in enumerate(range(0, nrows, rows_per_slab)):
        stop = min(start + rows_per_slab, nrows)
        slabs.append(Slab(index=index, row_start=start, row_stop=stop, col_start=0, col_stop=ncols))
    if nrows == 0:
        slabs.append(Slab(index=0, row_start=0, row_stop=0, col_start=0, col_stop=ncols))
    return slabs


def lines_per_slab(
    local_shape: Tuple[int, int],
    strategy: SlabbingStrategy | str,
    slab_elements: int,
) -> int:
    """Whole columns (column slabbing) or rows (row slabbing) per slab of
    roughly ``slab_elements`` elements — always at least one."""
    strategy = SlabbingStrategy.from_name(strategy)
    nrows, ncols = int(local_shape[0]), int(local_shape[1])
    if slab_elements < 1:
        raise IOEngineError(f"slab_elements must be positive, got {slab_elements}")
    if strategy is SlabbingStrategy.COLUMN:
        return max(1, min(ncols if ncols else 1, slab_elements // max(nrows, 1) or 1))
    return max(1, min(nrows if nrows else 1, slab_elements // max(ncols, 1) or 1))


def make_slabs(
    local_shape: Tuple[int, int],
    strategy: SlabbingStrategy | str,
    slab_elements: int,
) -> List[Slab]:
    """Partition a local array into slabs holding roughly ``slab_elements`` elements.

    ``slab_elements`` is the in-core local array capacity ``M`` of the paper;
    it is converted into whole columns (column slabbing) or whole rows (row
    slabbing), always at least one (:func:`lines_per_slab`).
    """
    strategy = SlabbingStrategy.from_name(strategy)
    lines = lines_per_slab(local_shape, strategy, slab_elements)
    if strategy is SlabbingStrategy.COLUMN:
        return column_slabs(local_shape, lines)
    return row_slabs(local_shape, lines)


def slab_runs(
    local_shape: Tuple[int, int],
    strategy: SlabbingStrategy | str,
    lines: int,
) -> List[Tuple[Slab, int]]:
    """:func:`column_slabs` / :func:`row_slabs` ``(local_shape, lines)`` as runs
    of one shape: ``(first slab of the run, slabs in the run)``, in order.

    At most two runs — the full slabs, then a narrower last one — computed
    without building every slab: what an engine that charges one lane per
    rank needs to price its slabs without walking them.
    """
    strategy = SlabbingStrategy.from_name(strategy)
    nrows, ncols = int(local_shape[0]), int(local_shape[1])
    lines = int(lines)
    if lines < 1:
        raise IOEngineError(f"lines per slab must be positive, got {lines}")
    column = strategy is SlabbingStrategy.COLUMN
    extent = ncols if column else nrows
    full, rest = divmod(extent, lines)
    runs = [(0, lines, full)] if full else []
    if rest or not extent:
        runs.append((full * lines, extent, 1))
    return [
        (Slab(index=start // lines, row_start=0, row_stop=nrows, col_start=start, col_stop=stop)
         if column else
         Slab(index=start // lines, row_start=start, row_stop=stop, col_start=0, col_stop=ncols),
         count)
        for start, stop, count in runs
    ]
