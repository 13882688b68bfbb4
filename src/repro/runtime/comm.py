"""Collective-communication backends for the virtual machine.

The engines in :mod:`repro.runtime.executor` reach every collective through
``vm.comm`` so one code path serves two execution styles:

* :class:`SimulatedComm` — all P simulated processors live in this process.
  Data movement is NumPy arithmetic and every processor's clocks/counters are
  charged together, by delegating to the module-level collectives of
  :mod:`repro.runtime.collectives` and the machine's ``charge_*`` methods.
  This is the historical behaviour, bit-for-bit.
* ``ProcessComm`` (:mod:`repro.runtime.distributed.proc_comm`) — one rank per
  OS process.  Bytes really move between workers over a pipe/shared-memory
  transport, and each worker charges only its *own* rank's clock and counter
  row with exactly the arithmetic the simulator applies to that row, so the
  merged per-processor statistics stay bit-identical to a simulated run.

A backend is bound to a machine once (``bind``), then serves ``global_sum`` /
``global_sum_columns`` / ``broadcast`` / ``charge_all_to_all`` / ``scatter``
for the life of the VM.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.machine.cluster import Machine
from repro.runtime import collectives

__all__ = ["CommBackend", "SimulatedComm"]


class CommBackend:
    """Interface the executor engines program against (see module docstring)."""

    #: the single rank this backend serves, or ``None`` for all ranks.
    rank: Optional[int] = None

    def bind(self, machine: Machine) -> None:
        raise NotImplementedError

    def global_sum(
        self,
        contributions: Optional[Dict[int, np.ndarray]],
        *,
        shape: Sequence[int],
        itemsize: int,
    ) -> Optional[np.ndarray]:
        raise NotImplementedError

    def global_sum_columns(
        self,
        contributions: Optional[Dict[int, np.ndarray]],
        steps: Mapping[int, Sequence[tuple]],
        *,
        ncols: int,
        rows: int,
        itemsize: int,
        prefix: Optional[Mapping[int, Sequence[tuple]]] = None,
    ) -> Optional[np.ndarray]:
        """A column block: see :func:`repro.runtime.collectives.global_sum_columns`.

        ``contributions``, ``steps`` and ``prefix`` (the one-off steps that
        open the block) are keyed by the ranks this backend serves.
        """
        raise NotImplementedError

    def broadcast(
        self,
        root: int,
        data: Optional[np.ndarray],
        *,
        shape: Sequence[int],
        itemsize: int,
    ) -> Optional[np.ndarray]:
        raise NotImplementedError

    def charge_all_to_all(self, nbytes_per_pair: int) -> float:
        raise NotImplementedError

    def scatter(
        self, root: int, parts: Optional[Dict[int, np.ndarray]]
    ) -> Dict[int, np.ndarray]:
        raise NotImplementedError


class SimulatedComm(CommBackend):
    """All ranks in-process: delegate to the historical simulated collectives."""

    def __init__(self) -> None:
        self.machine: Optional[Machine] = None

    def bind(self, machine: Machine) -> None:
        self.machine = machine

    def global_sum(self, contributions, *, shape, itemsize):
        return collectives.global_sum(
            self.machine, contributions, shape=shape, itemsize=itemsize
        )

    def global_sum_columns(self, contributions, steps, *, ncols, rows, itemsize, prefix=None):
        return collectives.global_sum_columns(
            self.machine, contributions, steps, ncols=ncols, rows=rows, itemsize=itemsize,
            prefix=prefix,
        )

    def broadcast(self, root, data, *, shape, itemsize):
        # The simulated broadcast does not care which rank owns the payload:
        # every processor is charged and the data is already local.
        return collectives.broadcast(self.machine, data, shape=shape, itemsize=itemsize)

    def charge_all_to_all(self, nbytes_per_pair: int) -> float:
        return self.machine.charge_all_to_all(nbytes_per_pair)

    def scatter(self, root, parts):
        # Every destination's piece is already in this process.
        return dict(parts or {})
