"""The generated node + message-passing + I/O program.

The out-of-core compiler's output in the paper is a node program with
explicit I/O and communication calls (Figures 9 and 12 show the column-slab
and row-slab versions for GAXPY as pseudo-code).  Here the node program is a
small tree of symbolic operations: loops whose bodies contain I/O reads and
writes, local computation, global sums and owner stores.

The representation serves three purposes:

* it can be **pretty-printed**, giving output directly comparable to the
  paper's figures;
* it can be **statically counted** — the static verifier's walk
  (:mod:`repro.check`) derives the exact per-processor
  :class:`~repro.check.ledger.ChargeLedger` from it, which equals the cost
  model's ``PlanCost``; and
* it **drives execution** — the executor walks the same structure when
  running the program on the virtual machine (the innermost arithmetic is
  the engines' batched NumPy in :mod:`repro.runtime.executor`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Tuple

__all__ = [
    "NodeOp",
    "LoopOp",
    "IOReadOp",
    "IOWriteOp",
    "ComputeOp",
    "GlobalSumOp",
    "AllToAllOp",
    "OwnerStoreOp",
    "NodeProgram",
]


@dataclasses.dataclass(frozen=True)
class NodeOp:
    """Base class of node program operations."""

    def pretty(self, indent: int = 0) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class IOReadOp(NodeOp):
    """``Call I/O routine to read the ICLA (one slab) of an array``."""

    array: str
    what: str = "slab"
    elements: float = 0.0

    def pretty(self, indent: int = 0) -> str:
        return " " * indent + f"call I/O read  ({self.what} of {self.array}, {self.elements:.0f} elements)"


@dataclasses.dataclass(frozen=True)
class IOWriteOp(NodeOp):
    """``Call I/O routine to write the ICLA (one slab) of an array``."""

    array: str
    what: str = "slab"
    elements: float = 0.0

    def pretty(self, indent: int = 0) -> str:
        return " " * indent + f"call I/O write ({self.what} of {self.array}, {self.elements:.0f} elements)"


@dataclasses.dataclass(frozen=True)
class ComputeOp(NodeOp):
    """A block of local arithmetic, measured in floating point operations.

    ``per_slab_of`` names the plan array whose *current slab* the flop count
    was sized for: ``flops`` is stated for a nominal full slab, and on an
    iteration holding a partial (last) slab the executed flops scale with the
    actual slab extent.  Empty string means the count is iteration-invariant.
    """

    description: str
    flops: float
    per_slab_of: str = ""

    def pretty(self, indent: int = 0) -> str:
        return " " * indent + f"compute {self.description} ({self.flops:.0f} flops)"


@dataclasses.dataclass(frozen=True)
class GlobalSumOp(NodeOp):
    """A global sum (reduction) of ``elements`` values across all processors.

    ``per_line_of`` names the plan array whose current-slab *line count* the
    ``elements`` field was sized for (the row-slab version reduces one
    subcolumn of ``lines_per_slab`` values per call, shorter on the last
    slab).  Empty string means ``elements`` is exact on every call.
    """

    elements: float
    target: str
    per_line_of: str = ""

    def pretty(self, indent: int = 0) -> str:
        return " " * indent + f"global sum of {self.elements:.0f} elements -> {self.target}"


@dataclasses.dataclass(frozen=True)
class AllToAllOp(NodeOp):
    """A personalized all-to-all exchange of ``elements_per_pair`` elements.

    ``per_slab_of`` names the plan array whose current slab is being
    exchanged: ``elements_per_pair`` is stated for a nominal full slab and
    scales with the actual extent on a partial last slab.
    """

    elements_per_pair: float
    target: str = ""
    per_slab_of: str = ""

    def pretty(self, indent: int = 0) -> str:
        suffix = f" -> {self.target}" if self.target else ""
        return " " * indent + (
            f"all-to-all exchange of {self.elements_per_pair:.0f} elements/pair{suffix}"
        )


@dataclasses.dataclass(frozen=True)
class OwnerStoreOp(NodeOp):
    """The owner of the result column stores it into its In-core Local Array."""

    array: str
    what: str = "column"

    def pretty(self, indent: int = 0) -> str:
        return " " * indent + f"if owner: store {self.what} into ICLA of {self.array}"


@dataclasses.dataclass(frozen=True)
class LoopOp(NodeOp):
    """A counted loop around a body of operations.

    The static verifier needs to know *what* a loop enumerates, not just how
    often it runs, so codegen annotates each loop with one of two markers:

    ``slabs_of``
        The loop visits every slab of the named plan array once;
        ``trip_count`` equals the plan entry's ``num_slabs`` and the last
        iteration may hold a partial slab.

    ``lines_of``
        The loop visits the lines (columns of a column slab, rows of a row
        slab) of the *current* slab of the named array; ``trip_count`` is
        the nominal ``lines_per_slab`` and the actual count is shorter on a
        partial last slab.  Such a loop is only meaningful nested inside the
        matching ``slabs_of`` loop.

    Both default to the empty string: a plain counted loop.
    """

    index: str
    trip_count: int
    body: Tuple[NodeOp, ...]
    comment: str = ""
    slabs_of: str = ""
    lines_of: str = ""

    def __init__(
        self,
        index: str,
        trip_count: int,
        body: Iterable[NodeOp],
        comment: str = "",
        slabs_of: str = "",
        lines_of: str = "",
    ) -> None:
        object.__setattr__(self, "index", str(index))
        object.__setattr__(self, "trip_count", int(trip_count))
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "comment", str(comment))
        object.__setattr__(self, "slabs_of", str(slabs_of))
        object.__setattr__(self, "lines_of", str(lines_of))

    def pretty(self, indent: int = 0) -> str:
        pad = " " * indent
        header = f"{pad}do {self.index} = 1, {self.trip_count}"
        if self.comment:
            header += f"    ! {self.comment}"
        lines = [header]
        for op in self.body:
            lines.append(op.pretty(indent + 4))
        lines.append(f"{pad}end do")
        return "\n".join(lines)


@dataclasses.dataclass
class NodeProgram:
    """The complete generated program for one processor (SPMD: all run it)."""

    name: str
    strategy: str
    ops: Tuple[NodeOp, ...]

    def __init__(self, name: str, strategy: str, ops: Iterable[NodeOp]) -> None:
        self.name = str(name)
        self.strategy = str(strategy)
        self.ops = tuple(ops)

    # ------------------------------------------------------------------
    def pretty(self) -> str:
        lines = [f"! node + MP + I/O program for {self.name} ({self.strategy} version)"]
        for op in self.ops:
            lines.append(op.pretty())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def operation_totals(self) -> Dict[str, float]:
        """Nominal operation counts: each op's nominal quantity times the trip
        counts of its enclosing loops.

        Returns a dictionary with, per array, ``read_requests:<array>``,
        ``read_elements:<array>``, ``write_requests:<array>`` and
        ``write_elements:<array>``, plus ``flops``, ``global_sums`` and
        ``global_sum_elements``.  Nominal, not exact: an op inside a slab
        loop counts a full slab on every trip, so the totals overcount
        whenever the last slab is partial.  Nothing in the package charges
        from them — every charge comes from the engines, and the exact
        static count is :class:`~repro.check.ledger.ChargeLedger` — they
        stay for the benchmark suite's global-sum replay.
        """
        totals: Dict[str, float] = {"flops": 0.0, "global_sums": 0.0, "global_sum_elements": 0.0}

        def visit(op: NodeOp, multiplier: float) -> None:
            if isinstance(op, LoopOp):
                for child in op.body:
                    visit(child, multiplier * op.trip_count)
            elif isinstance(op, IOReadOp):
                totals[f"read_requests:{op.array}"] = totals.get(f"read_requests:{op.array}", 0.0) + multiplier
                totals[f"read_elements:{op.array}"] = (
                    totals.get(f"read_elements:{op.array}", 0.0) + multiplier * op.elements
                )
            elif isinstance(op, IOWriteOp):
                totals[f"write_requests:{op.array}"] = totals.get(f"write_requests:{op.array}", 0.0) + multiplier
                totals[f"write_elements:{op.array}"] = (
                    totals.get(f"write_elements:{op.array}", 0.0) + multiplier * op.elements
                )
            elif isinstance(op, ComputeOp):
                totals["flops"] += multiplier * op.flops
            elif isinstance(op, GlobalSumOp):
                totals["global_sums"] += multiplier
                totals["global_sum_elements"] += multiplier * op.elements
            elif isinstance(op, AllToAllOp):
                totals["all_to_alls"] = totals.get("all_to_alls", 0.0) + multiplier
                totals["all_to_all_elements_per_pair"] = (
                    totals.get("all_to_all_elements_per_pair", 0.0)
                    + multiplier * op.elements_per_pair
                )
            # OwnerStoreOp is a local memory operation; it has no cost entry.

        for op in self.ops:
            visit(op, 1.0)
        return totals

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.pretty()
