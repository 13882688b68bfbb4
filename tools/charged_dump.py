#!/usr/bin/env python
"""Dump every charged number of a fixed configuration set, and diff two dumps.

``CHARGED.jsonl`` at the repository root is this tool's dump of the tree,
committed.  ``tests/test_charged_dump.py`` (tier-1) and ``make charged`` dump
the tree again and compare: each configuration that differs in a *checked*
field prints its first such field, and the check fails.  A change that
predicts a charged movement regenerates the file (``python
tools/charged_dump.py --out CHARGED.jsonl``), and the file's diff is the
reviewed movement.  The *data* fields — each gathered array's sha256
(results and stored inputs) and ``max_abs_error`` — move whenever the
generated inputs do, so they never mask a charged field: they are compared
last, counted, and never fail a compare.  Every compare ends with one
summary line, ``<n> configurations compared: <k> differ in checked fields,
<m> in data fields only``, so an empty comparison cannot pass for a clean
one.  ``verified`` is a checked field, so a flip is printed.

Each output line is one JSON object ``{"config": label, "fields": {...}}``,
keys sorted.  Fields are every quantity of
``VirtualMachine.snapshot_charges()`` (clocks, busy times, counters of every
processor, disk and the network), flattened to dotted names, plus the run's
simulated seconds, time breakdown, I/O statistics and per-statement
breakdown, and — for an EXECUTE run — its ``verified`` flag,
``max_abs_error`` and a sha256 of every result array and of every program
input the run stored (dtype, shape and bytes), so inputs and results are
proven byte-identical too, not only the charges.  A run gathers nothing
itself: the tool reads each array back with ``VirtualMachine.to_dense``
after the run — the final result as ``result``, for a whole program every
result that has files, and each stored input as ``input.<name>``; a run
through ``Session`` is read while its VM is still open
(:func:`session_record`), and on the ``processes`` backend each rank worker
digests its own blocks (``<name>@rank<r>``).  Every number is written with
``repr``, so floats compare exactly.  A configuration the tree refuses
(compile or run error) records the error text instead.  Every input is drawn
by ``Workload.generate_inputs``.

Configurations, all built from ``tests/scenarios.py``, each charged in
EXECUTE and in ESTIMATE unless said otherwise:

* the four sets ``make check-plans`` verifies (``STATIC``, ``EXECUTED``,
  ``FUSED`` and 40 seeded draws of ``enumerate_scenarios``), CYCLIC and
  CYCLIC(2) included;
* the two reduction engines (column, row) over the ``ENGINE`` GAXPY points
  (block, partial slabs, CYCLIC, CYCLIC(2));
* the in-core GAXPY version through ``Session`` (the full ``RunRecord``):
  Table 1's points (N = 1024, P = 4, 16, 32, 64) in ESTIMATE, the ``ENGINE``
  sizes in both modes, and the ``PARITY`` in-core point on the ``processes``
  backend;
* the ``REFUSED`` and ``RAGGED`` (P ∤ N) sets through ``Session``, whatever
  each mode does with them;
* the first ``PARITY`` point run through ``Session`` on the ``processes``
  backend and on the simulated one (EXECUTE);
* a seeded-fault set: a lone reduction, a lone elementwise statement, a
  fused pair and a three-statement program run through ``Session`` under
  bit-flip policies that really fire (EXECUTE, resilience counters
  included);
* larger points through ``Session`` (:func:`sized_configs`): the GAXPY at
  N = 256 (column and row), the two-statement pipeline at N = 256 (and on
  the ``processes`` backend), the three-statement chain under a 48 KiB
  budget with each optimizer, the pipeline at N = 768 with checksums off,
  on and under a mixed fault schedule, and the four N = 128 kinds of the
  service mix.

Usage (from any directory)::

    python tools/charged_dump.py --out tree.jsonl
    python tools/charged_dump.py --compare CHARGED.jsonl tree.jsonl
    python tools/charged_dump.py --out CHARGED.jsonl   # after a predicted move
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
import types
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def flatten(value, prefix, out):
    """Every leaf of ``value`` under a dotted name, numbers as ``repr``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    elif hasattr(value, "__dict__") and not isinstance(value, (type, types.ModuleType)):
        value = vars(value)
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            flatten(value[key], f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            flatten(item, f"{prefix}[{index}]", out)
    else:
        out[prefix] = repr(value)
    return out


def digest(array):
    """sha256 of an array's dtype, shape and bytes."""
    import numpy as np

    array = np.ascontiguousarray(array)
    meta = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(meta + array.tobytes()).hexdigest()


def gather(vm, compiled):
    """The results of an EXECUTE run of ``compiled``, and every program input
    it stored (as ``input.<name>``), read back from ``vm``."""
    if not vm.perform_io:
        return {}
    # a fused-away intermediate has no files
    names = [name for name in compiled.program.result_arrays() if name in vm.arrays]
    gathered = {"result": vm.to_dense(names[-1])}
    if hasattr(compiled, "statements"):  # a whole program: every result
        gathered.update((name, vm.to_dense(name)) for name in names)
    gathered.update((f"input.{name}", vm.to_dense(name))
                    for name in compiled.program.input_arrays() if name in vm.arrays)
    return gathered


def run_fields(vm, result, compiled):
    fields = flatten(vm.snapshot_charges(), "", {})
    gathered = gather(vm, compiled)
    fields.update(flatten({
        "simulated_seconds": result.simulated_seconds,
        "time_breakdown": result.time_breakdown,
        "io_statistics": result.io_statistics,
        "statements": result.statements,
        "verified": result.verified,
        "max_abs_error": result.max_abs_error,
        "sha256": {name: digest(array) for name, array in gathered.items()},
    }, "result", {}))
    return fields


def charged_runs(compiled, scratch):
    """``{mode: fields}`` for one compiled program."""
    from repro.api import get_workload
    from repro.config import ExecutionMode, RunConfig
    from repro.runtime import NodeProgramExecutor, VirtualMachine
    from repro.runtime.executor import ProgramExecutor

    whole = hasattr(compiled, "statements")
    executor = (ProgramExecutor if whole else NodeProgramExecutor)(compiled)
    runs = {}
    for mode in (ExecutionMode.ESTIMATE, ExecutionMode.EXECUTE):
        config = RunConfig(scratch_dir=Path(scratch), mode=mode)
        try:
            with VirtualMachine(compiled.nprocs, compiled.params, config) as vm:
                inputs = None
                if mode is ExecutionMode.EXECUTE:
                    holder = types.SimpleNamespace(program=compiled)
                    inputs = get_workload("hpf").generate_inputs(holder, 7)
                result = executor.run(vm, inputs, verify=mode is ExecutionMode.EXECUTE)
                runs[mode.value] = run_fields(vm, result, compiled)
        except Exception as exc:  # a refusal is a charged outcome too
            runs[mode.value] = {"error": f"{type(exc).__name__}: {exc}"}
    return runs


def plan_configs(scenarios):
    sets = {"static": scenarios.STATIC, "executed": scenarios.EXECUTED,
            "fused": scenarios.FUSED, "fuzz": scenarios.enumerate_scenarios(40, 1997)}
    for name, scenario_set in sets.items():
        for scenario in scenario_set:
            label = f"{name} {scenario.label}"
            try:
                yield label, scenario.compile()
            except Exception as exc:
                yield label, f"{type(exc).__name__}: {exc}"


def engine_configs(scenarios, scratch):
    from repro.api import get_workload
    from repro.config import ExecutionMode, RunConfig
    from repro.machine.parameters import MachineParameters
    from repro.runtime import VirtualMachine
    from repro.runtime.executor import run_reduction_column, run_reduction_row

    engines = {"column": run_reduction_column, "row": run_reduction_row}
    for scenario in scenarios.ENGINE:
        program = scenario.compile()
        p = scenario.nprocs
        inputs = get_workload("hpf").generate_inputs(
            types.SimpleNamespace(program=program), scenario.n * p)
        for name, engine in engines.items():
            runs = {}
            for mode in (ExecutionMode.ESTIMATE, ExecutionMode.EXECUTE):
                config = RunConfig(scratch_dir=Path(scratch), mode=mode)
                with VirtualMachine(p, MachineParameters(), config) as vm:
                    result = engine(vm, program,
                                    inputs if mode is ExecutionMode.EXECUTE else None)
                    runs[mode.value] = run_fields(vm, result, program)
            yield f"engine {name} {scenario.label}", runs


def local_digests(vm, compiled, sink):
    """Append to ``sink`` the sha256 of each array a rank worker stored: its
    own rank's block of every result (``<name>@rank<r>``) and every input
    (``input.<name>@rank<r>``)."""
    from repro.runtime.slab import Slab

    inputs = set(compiled.program.input_arrays())
    with open(sink, "a") as handle:
        for name, array in sorted(vm.arrays.items()):
            laf = array.locals[vm.rank].laf
            rows, cols = laf.shape
            data = laf.read_slab(Slab(index=0, row_start=0, row_stop=rows,
                                      col_start=0, col_stop=cols))
            key = f"{'input.' if name in inputs else ''}{name}@rank{vm.rank}"
            handle.write(json.dumps({key: digest(data)}) + "\n")


def session_record(point, config, mode="execute", backend="simulated"):
    """Every field of the ``RunRecord`` of ``point`` — and, for an EXECUTE
    run, the sha256 of every result and input it stored — or the refusal's
    text.

    The digests are taken by wrapping ``Workload.drive`` while the run's VM
    is still open: in this process as :func:`gather` reads them, and in a
    ``processes`` rank worker (which inherits the wrapper through ``fork``)
    one block per rank, appended to a file this process reads back.
    """
    from repro.api import Session
    from repro.api.workload import Workload

    drive = Workload.drive
    digests = {}
    with tempfile.TemporaryDirectory() as sink_dir:
        sink = Path(sink_dir) / "digests.jsonl"

        def recording_drive(self, compiled, vm, inputs, verify):
            result = drive(self, compiled, vm, inputs, verify)
            if vm.perform_io and vm.rank is None:
                digests.update((name, digest(array))
                               for name, array in gather(vm, compiled.program).items())
            elif vm.perform_io:
                local_digests(vm, compiled.program, sink)
            return result

        Workload.drive = recording_drive
        try:
            with Session(config=config, backend=backend) as session:
                record = session.run(point, mode=mode)
        except Exception as exc:  # a refusal is a charged outcome too
            return {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            Workload.drive = drive
        if sink.exists():
            for line in sink.read_text().splitlines():
                digests.update(json.loads(line))
    fields = flatten(dataclasses.asdict(record), "record", {})
    fields.update(flatten({"sha256": digests}, "record", {}))
    return fields


def session_configs(scenarios, scratch):
    from repro.config import RunConfig

    config = RunConfig(scratch_dir=Path(scratch))
    scenario = scenarios.PARITY[0]
    for backend in ("simulated", "processes"):
        fields = session_record(scenario.point(), config, backend=backend)
        yield f"session {scenario.label} {backend}", {"execute": fields}
    for name, scenario_set in (("refused", scenarios.REFUSED), ("ragged", scenarios.RAGGED)):
        for scenario in scenario_set:
            yield f"{name} {scenario.label}", {
                mode: session_record(scenario.point(), config, mode)
                for mode in ("estimate", "execute")}


def incore_configs(scenarios, scratch):
    from repro.api import WorkloadPoint
    from repro.config import RunConfig

    config = RunConfig(scratch_dir=Path(scratch))
    for nprocs in (4, 16, 32, 64):
        point = WorkloadPoint("gaxpy", n=1024, nprocs=nprocs, version="incore")
        yield f"incore table1 N=1024 P={nprocs}", {
            "estimate": session_record(point, config, "estimate")}
    for n, nprocs in sorted({(scenario.n, scenario.nprocs) for scenario in scenarios.ENGINE}):
        point = WorkloadPoint("gaxpy", n=n, nprocs=nprocs, version="incore")
        yield f"incore engine N={n} P={nprocs}", {
            mode: session_record(point, config, mode) for mode in ("estimate", "execute")}
    scenario = next(s for s in scenarios.PARITY if s.strategy == "incore")
    yield f"session {scenario.label} processes", {
        "execute": session_record(scenario.point(), config, backend="processes")}


def fault_configs(scenarios, scratch):
    from repro.config import RunConfig
    from repro.resilience.faults import FaultPolicy

    Scenario = scenarios.Scenario
    points = [
        (Scenario("gaxpy", 64, 4, ratio=0.25), 2, 0.05),
        (Scenario("gaxpy", 64, 4, ratio=0.25, strategy="column"), 2, 0.05),
        (Scenario("elementwise", 64, 4, ratio=0.25), 2, 0.05),
        (Scenario("pair", 64, 4, budget=16 * 1024, optimizer="greedy", fusion="on"), 4, 0.2),
        (Scenario("mm_add_mul", 64, 4, ratio=0.25), 2, 0.05),
    ]
    for scenario, seed, rate in points:
        policy = FaultPolicy(seed=seed, bitflip_rate=rate, max_failures_per_site=1)
        config = RunConfig(scratch_dir=Path(scratch), fault_policy=policy)
        fields = session_record(scenario.point(), config)
        yield f"faults {scenario.label} seed={seed} bitflip={rate}", {"execute": fields}


def sized_configs(scenarios, scratch):
    """Larger points through ``Session``: the full ``RunRecord`` of each."""
    from repro.config import RunConfig
    from repro.resilience.faults import FaultPolicy

    Scenario = scenarios.Scenario
    scratch = Path(scratch)
    plain = RunConfig(scratch_dir=scratch)
    both, execute = ("estimate", "execute"), ("execute",)
    pipeline = Scenario("mm_add", 256, 4, ratio=0.25)
    large = Scenario("mm_add", 768, 4, ratio=0.25)
    faults = FaultPolicy(seed=1997, read_error_rate=0.05, write_error_rate=0.02,
                         disk_full_rate=0.01, torn_write_rate=0.02, bitflip_rate=0.01)
    service = RunConfig(scratch_dir=scratch, seed=1997)
    # (label prefix, scenario, run configuration, backend, modes)
    points = [
        *(("session", Scenario("gaxpy", 256, 4, ratio=0.25, strategy=strategy), plain,
           "simulated", execute) for strategy in ("column", "row")),
        ("session", pipeline, plain, "simulated", both),
        ("session", pipeline, plain, "processes", execute),
        *(("session", Scenario("mm_add_mul", 256, 4, budget=48 * 1024, optimizer=optimizer,
                               fusion=fusion), plain, "simulated", both)
          for optimizer, fusion in (("none", None), ("greedy", None), ("greedy", "on"))),
        ("checksums=off", large, RunConfig(scratch_dir=scratch, checksums=False),
         "simulated", execute),
        ("checksums=on", large, plain, "simulated", execute),
        ("faults seed=1997 mixed", large,
         RunConfig(scratch_dir=scratch, fault_policy=faults, io_retry_backoff_s=0.0),
         "simulated", execute),
        *(("service seed=1997", Scenario(shape, 128, 4, ratio=0.25, strategy=strategy),
           service, "simulated", execute)
          for shape, strategy in (("gaxpy", "column"), ("gaxpy", "row"),
                                  ("transpose", None), ("elementwise", None))),
    ]
    for prefix, scenario, config, backend, modes in points:
        yield f"{prefix} {scenario.label} {backend}", {
            mode: session_record(scenario.point(), config, mode, backend) for mode in modes}


def dump(out):
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    from tests import scenarios

    with tempfile.TemporaryDirectory() as scratch, open(out, "w") as sink:
        def emit(label, runs):
            for mode, fields in runs.items():
                sink.write(json.dumps({"config": f"{label} [{mode}]", "fields": fields},
                                      sort_keys=True) + "\n")

        for label, compiled in plan_configs(scenarios):
            if isinstance(compiled, str):
                emit(label, {"compile": {"error": compiled}})
            else:
                emit(label, charged_runs(compiled, scratch))
        for configs in (engine_configs, session_configs, incore_configs, fault_configs,
                        sized_configs):
            for label, runs in configs(scenarios, scratch):
                emit(label, runs)


def read_dump(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def is_data_field(key):
    """A field that records the data a run produced, not what it charged."""
    return ".sha256." in key or key.endswith("max_abs_error")


def compare(before_path, after_path):
    """Print the first differing checked field per configuration, then one
    summary line — how many configurations were compared, how many differ in
    a checked field and how many in data fields only; return the number of
    configurations with a checked difference."""
    before, after = read_dump(before_path), read_dump(after_path)
    after_by_config = {entry["config"]: entry["fields"] for entry in after}
    compared = len({entry["config"] for entry in before} | set(after_by_config))
    differing = data_only = 0
    for entry in before:
        config, old = entry["config"], entry["fields"]
        new = after_by_config.pop(config, None)
        if new is None:
            print(f"{config}: only in {before_path}")
            differing += 1
            continue
        changed = [key for key in sorted(set(old) | set(new)) if old.get(key) != new.get(key)]
        checked = [key for key in changed if not is_data_field(key)]
        if checked:
            key = checked[0]
            print(f"{config}: {key} {old.get(key)} -> {new.get(key)}")
            differing += 1
        elif changed:
            data_only += 1
    for config in after_by_config:
        print(f"{config}: only in {after_path}")
        differing += 1
    print(f"{compared} configurations compared: {differing} differ in checked fields, "
          f"{data_only} in data fields only")
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON-lines file to write")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="diff two dumps instead of writing one")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if not args.out:
        parser.error("--out is required unless --compare is given")
    dump(args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
