"""Simulated message passing collectives.

The compiled node programs need these communication primitives:

* :func:`global_sum` — the reduction producing one column (or subcolumn) of
  the result array in the GAXPY kernel,
* :func:`global_sum_columns` — a *column block*: a run of those result
  columns, each rank's per-column charges and the per-column global sums
  charged in one call and the contributions summed as one matrix,
* :func:`broadcast` — one processor's data delivered to all (the
  single-operand reduction's schedule).

Because all simulated processors live in one OS process, the data movement is
just NumPy arithmetic; the *cost* is charged to the machine model with the
same binomial-tree formulas an NX / MPI implementation would incur.  In
``ESTIMATE`` mode the data arguments may be ``None`` and only costs are
charged.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import CollectiveError
from repro.machine.cluster import Machine

__all__ = [
    "global_sum",
    "global_sum_columns",
    "sum_in_rank_order",
    "broadcast",
    "payload_bytes",
]


def payload_bytes(shape: Sequence[int], itemsize: int) -> int:
    """Bytes of a message carrying an array of ``shape`` with ``itemsize`` elements."""
    nelements = 1
    for extent in shape:
        nelements *= int(extent)
    return nelements * int(itemsize)


def _checked_contributions(
    what: str,
    nprocs: int,
    contributions: Mapping[int, np.ndarray],
    shape: Sequence[int],
) -> List[np.ndarray]:
    """One contribution of ``shape`` per rank, in rank order — or raise."""
    if len(contributions) != nprocs:
        raise CollectiveError(
            f"{what} expected {nprocs} contributions, got {len(contributions)}"
        )
    expected = tuple(int(s) for s in shape)
    pieces = []
    for rank in range(nprocs):
        if rank not in contributions:
            raise CollectiveError(f"{what} missing contribution from rank {rank}")
        piece = np.asarray(contributions[rank])
        if piece.shape != expected:
            raise CollectiveError(
                f"{what}: rank {rank} contributed shape {piece.shape}, expected {expected}"
            )
        pieces.append(piece)
    return pieces


def sum_in_rank_order(pieces: Sequence[np.ndarray]) -> np.ndarray:
    """Float64 element-wise sum of ``pieces``, accumulated left to right."""
    total = pieces[0].astype(np.float64, copy=True)
    for piece in pieces[1:]:
        total += piece
    return total


def global_sum(
    machine: Machine,
    contributions: Optional[Dict[int, np.ndarray]],
    *,
    shape: Sequence[int],
    itemsize: int,
) -> Optional[np.ndarray]:
    """Element-wise sum of one contribution per processor (all-reduce).

    Parameters
    ----------
    machine:
        Machine to charge; all its processors take part.
    contributions:
        Mapping rank -> local contribution, or ``None`` in estimate mode.
    shape / itemsize:
        Payload geometry, used for cost accounting (and validation).

    A malformed call raises :class:`CollectiveError` before anything is
    charged, so a rejected collective leaves counters and clocks unmoved.
    """
    nbytes = payload_bytes(shape, itemsize)
    nelements = nbytes // max(int(itemsize), 1)
    pieces = None
    if contributions is not None:
        pieces = _checked_contributions("global_sum", machine.nprocs, contributions, shape)
    machine.charge_global_sum(nbytes, nelements=nelements)
    return None if pieces is None else sum_in_rank_order(pieces)


def global_sum_columns(
    machine: Machine,
    contributions: Optional[Dict[int, np.ndarray]],
    steps: Mapping[int, Sequence[tuple]],
    *,
    ncols: int,
    rows: int,
    itemsize: int,
    prefix: Optional[Mapping[int, Sequence[tuple]]] = None,
) -> Optional[np.ndarray]:
    """``ncols`` result columns of ``rows`` elements as one column block.

    Charges exactly what each rank's ``prefix`` steps, once, then ``ncols``
    repetitions of "each rank's ``steps`` (``("read", nbytes, nrequests)`` /
    ``("compute", flops)``), then :func:`global_sum` of one ``(rows,)``
    column" would, through :meth:`Machine.charge_column_block`, and returns
    the ``(rows, ncols)`` float64 sum of the ranks' contributions,
    accumulated in rank order like every column of it would be (``None`` in
    estimate mode).  A prefix carries a one-off charge that opens the block
    — the row-slab engine's re-read of a coefficient slab — so it costs no
    call of its own.  Validation comes first, as in :func:`global_sum`.
    """
    nbytes = payload_bytes((rows,), itemsize)
    nelements = nbytes // max(int(itemsize), 1)
    pieces = None
    if contributions is not None:
        pieces = _checked_contributions(
            "global_sum_columns", machine.nprocs, contributions, (rows, ncols)
        )
    prefix = prefix or {}
    lanes = [
        machine.column_lane(rank, steps.get(rank, ()), prefix.get(rank, ()))
        for rank in range(machine.nprocs)
    ]
    machine.charge_column_block(lanes, ncols, nbytes, nelements)
    return None if pieces is None else sum_in_rank_order(pieces)


def broadcast(
    machine: Machine,
    data: Optional[np.ndarray],
    *,
    shape: Sequence[int],
    itemsize: int,
) -> Optional[np.ndarray]:
    """Broadcast ``data`` from one processor to all others; returns the payload.

    The shape is checked before the machine is charged.
    """
    nbytes = payload_bytes(shape, itemsize)
    if data is not None:
        data = np.asarray(data)
        expected = tuple(int(s) for s in shape)
        if data.shape != expected:
            raise CollectiveError(f"broadcast: data shape {data.shape}, expected {expected}")
    machine.charge_broadcast(nbytes)
    return data
