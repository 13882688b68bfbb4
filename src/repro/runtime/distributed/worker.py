"""The rank worker of the process-parallel EXECUTE backend.

:func:`run_worker` is the target of every worker :class:`multiprocessing.Process`.
It must be importable at module top level so the ``spawn`` start method can
find it; everything a worker needs travels in a picklable :class:`WorkerSpec`
(workload name + point + machine parameters + run configuration) — the worker
recompiles the program itself, which is deterministic, so spawn-started
workers see exactly the schedule the parent planned.

Each worker builds a single-rank :class:`~repro.runtime.vm.VirtualMachine`
(``rank=r`` with a :class:`~repro.runtime.distributed.proc_comm.ProcessComm`)
inside its own scratch subtree and drives the ordinary executors over it.
Input data comes from the workload's counter-keyed operands
(:mod:`repro.runtime.operands`): a value depends only on the seed, the array
and its global index, so each worker draws just the tiles of its own rank's
blocks, bit-identical to what the simulator writes for that rank.  On
success the worker ships its charged statistics (its own rank's row — every
other row of its machine stays zero) and the paths of its result Local Array
Files back through a result pipe; the parent max-merges the statistics and,
when verifying, reads the files where they are.
"""

from __future__ import annotations

import dataclasses
import traceback
from pathlib import Path
from typing import Dict

from repro.config import RunConfig
from repro.machine.parameters import MachineParameters

__all__ = ["WorkerSpec", "run_worker"]


@dataclasses.dataclass(frozen=True)
class WorkerSpec:
    """Everything one rank worker needs, shippable through pickle."""

    workload_name: str
    point: "object"  # WorkloadPoint (frozen, hashable, picklable)
    params: MachineParameters
    config: RunConfig
    job_dir: str


def _materialized_names(program) -> tuple:
    """The result arrays that actually exist on disk after the run."""
    from repro.core.pipeline import CompiledWholeProgram

    if isinstance(program, CompiledWholeProgram):
        fused_away = {name for step in program.schedule.steps for name in step.fused}
        return tuple(
            name for name in program.program.result_arrays() if name not in fused_away
        )
    return (program.program.statements[-1].result.array,)


def _run(rank: int, nprocs: int, spec: WorkerSpec, transport) -> Dict[str, object]:
    from repro.api.workload import get_workload
    from repro.runtime.distributed.proc_comm import ProcessComm
    from repro.runtime.vm import VirtualMachine

    workload = get_workload(spec.workload_name)
    compiled = workload.compile(spec.point, spec.params)
    program = compiled.program
    # The worker's files outlive its VM: the parent verifies
    # them, then removes the whole job directory.
    config = dataclasses.replace(spec.config, keep_files=True)
    vm = VirtualMachine(
        compiled.nprocs,
        compiled.params,
        config,
        work_dir=Path(spec.job_dir) / f"rank_{rank}",
        rank=rank,
        comm=ProcessComm(transport),
    )
    inputs = workload.generate_inputs(compiled, config.seed)
    result = workload.drive(compiled, vm, inputs, verify=False)

    results_meta: Dict[str, Dict[str, str]] = {}
    for name in _materialized_names(program):
        laf = vm.arrays[name].locals[rank].laf
        laf.flush()
        results_meta[name] = {"path": str(laf.path), "order": laf.order}
    payload = {
        "rank": rank,
        "elapsed": vm.elapsed(),
        "time_breakdown": vm.time_breakdown(),
        "io_statistics": vm.io_statistics(),
        "statement_totals": result.statement_totals,
        "resilience": vm.resilience.as_dict(),
        "results": results_meta,
    }
    # keep_files=True: closes every LAF handle but leaves the files (and the
    # journal) in place for the parent.
    vm.cleanup()
    return payload


def run_worker(rank: int, nprocs: int, spec: WorkerSpec, peers, result_conn) -> None:
    """Process entry point: run rank ``rank`` and report through ``result_conn``."""
    from repro.runtime.distributed.transport import PipeTransport

    transport = PipeTransport(rank, nprocs, peers)
    try:
        payload = _run(rank, nprocs, spec, transport)
    except BaseException:
        try:
            result_conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass
        raise SystemExit(1)
    finally:
        transport.close()
    result_conn.send(("ok", payload))
