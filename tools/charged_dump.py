#!/usr/bin/env python
"""Dump every charged number of a fixed configuration set, and diff two dumps.

``make diff-parent PARENT=<checkout>`` runs this twice — once against the
parent checkout's ``src/``, once against this tree's — and prints the first
differing *checked* field per configuration.  No such line means no charged
number moved between the two trees.  The *data* fields — each gathered
array's sha256 (results and stored inputs) and ``max_abs_error`` — move
whenever the generated inputs do, so they never mask a charged field: they
are compared last.  Every
compare ends with one summary line, ``<n> configurations compared: <k>
differ in checked fields, <m> in data fields only``, so an empty comparison
cannot pass for a clean one.  ``verified`` is a checked field, so a flip is
printed.

Each output line is one JSON object ``{"config": label, "fields": {...}}``.
Fields are every quantity of ``VirtualMachine.snapshot_charges()`` (clocks,
busy times, counters of every processor, disk and the network), flattened to
dotted names, plus the run's simulated seconds, time breakdown, I/O
statistics and per-statement breakdown, and — for an EXECUTE run — its
``verified`` flag, ``max_abs_error`` and a sha256 of every result array
and of every program input the run stored (dtype, shape and bytes), so
inputs and results are proven byte-identical too, not only the charges — a
change to how inputs are drawn or written is checked directly, not only
through the results.  A run gathers nothing itself: the tool reads each
array back with ``VirtualMachine.to_dense`` after the run — the final
result as ``result``, for a whole program every result that has files, and
each stored input as ``input.<name>``.  Every number is written with
``repr``, so floats compare exactly.  A configuration the tree refuses
(compile or run error) records the error text instead.  Every input is
drawn by ``Workload.generate_inputs``, whichever input shape the tree's
engines take.

Configurations, all drawn from ``tests/scenarios.py`` and each charged in
EXECUTE and in ESTIMATE (and, for a lone reduction, the bulk
``NodeProgramExecutor.estimate``):

* the four sets ``make check-plans`` verifies (``STATIC``, ``EXECUTED``,
  ``FUSED`` and 40 seeded draws of ``enumerate_scenarios``), CYCLIC and
  CYCLIC(2) included;
* the two reduction engines (column, row) over the ``ENGINE`` GAXPY points
  (block, partial slabs, CYCLIC, CYCLIC(2));
* the in-core GAXPY version through ``Session`` (the full ``RunRecord``):
  Table 1's points (N = 1024, P = 4, 16, 32, 64) in ESTIMATE, the ``ENGINE``
  sizes in both modes, and the ``PARITY`` in-core point on the ``processes``
  backend;
* the ``REFUSED`` set through ``Session``, whatever each mode does with it;
* the first ``PARITY`` point run through ``Session`` on the ``processes``
  backend and on the simulated one (the full ``RunRecord`` of each);
* a seeded-fault set: a lone reduction, a lone elementwise statement, a
  fused pair and a three-statement program run through ``Session`` under
  bit-flip policies that really fire (the full ``RunRecord``, resilience
  counters included).

Usage (from any directory; ``--src`` picks whose ``repro`` is charged, the
scenario sets are always this checkout's)::

    python tools/charged_dump.py --src <checkout>/src --out parent.jsonl
    python tools/charged_dump.py --src src --out tree.jsonl
    python tools/charged_dump.py --compare parent.jsonl tree.jsonl
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

TOOLS = Path(__file__).resolve().parent


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


def load_repro(src):
    """Import ``repro`` from ``src``, then this checkout's scenario sets."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import repro  # noqa: F401 — pins the package (and its submodules) to ``src``

    sys.path.insert(0, str(TOOLS.parent))
    from tests import scenarios

    return src, scenarios


def assert_from(src):
    """Refuse a dump that mixed modules of two trees."""
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if name.split(".")[0] == "repro" and path and src not in Path(path).resolve().parents:
            raise SystemExit(f"{name} was imported from {path}, not from {src}")


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
    from repro.machine.cluster import Machine
    from repro.runtime import NodeProgramExecutor, VirtualMachine
    from repro.runtime.executor import ProgramExecutor, _statement_kind

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
    if not whole and _statement_kind(compiled) == "reduction":
        machine = Machine(compiled.nprocs, compiled.params)
        try:
            result = executor.estimate(machine)
            fields = flatten({"processors": machine.processors, "disks": machine.disks,
                              "network": machine.network, "clocks": machine.clocks,
                              "metrics": machine.metrics}, "", {})
            fields["result.simulated_seconds"] = repr(result.simulated_seconds)
            runs["bulk"] = fields
        except Exception as exc:
            runs["bulk"] = {"error": f"{type(exc).__name__}: {exc}"}
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


def session_record(point, config, mode="execute", backend="simulated"):
    """Every field of the ``RunRecord`` of ``point``, or the refusal's text."""
    from repro.api import Session

    try:
        with Session(config=config, backend=backend) as session:
            record = session.run(point, mode=mode)
        return flatten(dataclasses.asdict(record), "record", {})
    except Exception as exc:  # a refusal is a charged outcome too
        return {"error": f"{type(exc).__name__}: {exc}"}


def session_configs(scenarios, scratch):
    from repro.config import RunConfig

    config = RunConfig(scratch_dir=Path(scratch))
    scenario = scenarios.PARITY[0]
    for backend in ("simulated", "processes"):
        fields = session_record(scenario.point(), config, backend=backend)
        yield f"session {scenario.label} {backend}", {"execute": fields}
    for scenario in scenarios.REFUSED:
        yield f"refused {scenario.label}", {
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


def dump(src, out):
    src, scenarios = load_repro(src)
    with tempfile.TemporaryDirectory() as scratch, open(out, "w") as sink:
        def emit(label, runs):
            for mode, fields in runs.items():
                sink.write(json.dumps({"config": f"{label} [{mode}]", "fields": fields}) + "\n")

        for label, compiled in plan_configs(scenarios):
            if isinstance(compiled, str):
                emit(label, {"compile": {"error": compiled}})
            else:
                emit(label, charged_runs(compiled, scratch))
        for configs in (engine_configs, session_configs, incore_configs, fault_configs):
            for label, runs in configs(scenarios, scratch):
                emit(label, runs)
    assert_from(src)


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
    parser.add_argument("--src", default=str(TOOLS.parent / "src"),
                        help="the src/ directory whose repro package is charged")
    parser.add_argument("--out", help="JSON-lines file to write")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="diff two dumps instead of writing one")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if not args.out:
        parser.error("--out is required unless --compare is given")
    dump(args.src, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
