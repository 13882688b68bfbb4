"""Property-based slab fuzzing over random N / P / slab_ratio grids.

Two charge invariants of the compilation pipeline, checked on configurations
drawn by ``tests/scenarios.py``'s seeded enumerator (P ∤ N included) and,
for lone reductions, by a seeded hypothesis strategy:

* **mode equivalence** — ``ESTIMATE`` and ``EXECUTE`` report identical
  charged counters and simulated seconds for every workload (the estimate
  drives the same engines charge-only, so any divergence means the
  executor's two modes disagree about the generated program), and
* **slab-size invariance** — for single-pass statements (elementwise,
  transpose) the total bytes read and written are independent of the slab
  size: slabbing may change *request counts*, never data volume.
"""

import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.api import Session, WorkloadPoint
from repro.config import RunConfig
from repro.core.ir import build_pipeline_ir
from repro.core.pipeline import compile_program
from repro.runtime.executor import ProgramExecutor
from repro.runtime.operands import input_operands
from repro.runtime.vm import VirtualMachine

from tests.scenarios import RECORD_CHARGES, enumerate_scenarios, hpf_source

SEED = 20260726

CHARGED_FIELDS = (
    "io_requests_per_proc",
    "io_read_bytes_per_proc",
    "io_write_bytes_per_proc",
)


def _charged(record):
    return tuple(getattr(record, field) for field in CHARGED_FIELDS)


def _random_configs(seed, count):
    """Seeded ``(n, nprocs, slab_ratio)`` draws."""
    return [(s.n, s.nprocs, s.ratio) for s in enumerate_scenarios(count, seed)]


# ---------------------------------------------------------------------------
# invariant 1: ESTIMATE and EXECUTE charge identical I/O counters
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["elementwise", "transpose"])
def test_estimate_equals_execute_charges(tmp_path, workload):
    session = Session(config=RunConfig(scratch_dir=tmp_path))
    for n, nprocs, slab_ratio in _random_configs(SEED, 6):
        point = WorkloadPoint(workload, n=n, nprocs=nprocs, slab_ratio=slab_ratio)
        estimate = session.estimate(point)
        execute = session.execute(point)
        assert _charged(estimate) == _charged(execute), (
            f"{workload} N={n} P={nprocs} ratio={slab_ratio}: "
            f"ESTIMATE charges {_charged(estimate)} but EXECUTE charges "
            f"{_charged(execute)}"
        )
        assert execute.verified is True


@st.composite
def reduction_points(draw):
    """A lone reduction: two-operand (``c = a @ b``) or single-operand
    (``c = a @ a``), column or row slabs, a slab ratio or a memory budget,
    BLOCK or CYCLIC over P ∈ {1, 2, 4, 7, 8} processors, P ∤ N included."""
    n = draw(st.integers(8, 96))
    nprocs = draw(st.sampled_from((1, 2, 4, 7, 8)))
    shape = draw(st.sampled_from(("matmul", "square")))
    dist = draw(st.sampled_from(("block", "cyclic")))
    version = draw(st.sampled_from(("column", "row")))
    options = {"source": hpf_source(shape, n, nprocs, dist=dist)}
    ratio = draw(st.sampled_from((1 / 8, 1 / 4, 0.3, 1 / 2, 3 / 4, 1.0, None)))
    if ratio is None:
        options["memory_budget_bytes"] = draw(st.integers(4 * n, 3 * n * n)) * 4
    return WorkloadPoint("hpf", version=version, slab_ratio=ratio, options=options,
                         optimize="greedy")


@seed(1997)
@settings(max_examples=24, deadline=None, database=None)
@given(point=reduction_points())
def test_reduction_estimate_equals_execute(tmp_path_factory, point):
    """A lone reduction's ESTIMATE charges exactly what its EXECUTE charges."""
    scratch = tmp_path_factory.mktemp("reduction")
    with Session(config=RunConfig(scratch_dir=scratch)) as session:
        estimate = session.run(point, mode="estimate")
        execute = session.run(point, mode="execute")
    assert execute.verified is True
    for field in RECORD_CHARGES:
        assert getattr(estimate, field) == getattr(execute, field), field


def test_estimate_equals_execute_charges_whole_program(tmp_path):
    for index, (n, nprocs, slab_ratio) in enumerate(_random_configs(SEED + 1, 4)):
        compiled = compile_program(
            build_pipeline_ir(n, nprocs), slab_ratio=slab_ratio
        )
        executor = ProgramExecutor(compiled)
        estimate = executor.estimate()
        dense = input_operands(compiled.program, SEED + index)
        with VirtualMachine(
            nprocs, compiled.params, RunConfig(scratch_dir=tmp_path / str(index))
        ) as vm:
            execute = executor.execute(vm, dense)
        assert estimate.io_statistics == execute.io_statistics, (
            f"pipeline N={n} P={nprocs} ratio={slab_ratio}: modes disagree"
        )
        assert execute.verified is True
        # per-statement charge deltas agree between the modes too
        for est_stmt, exe_stmt in zip(estimate.statements, execute.statements, strict=True):
            for field in ("bytes_read_per_proc", "bytes_written_per_proc",
                          "io_requests_per_proc"):
                assert est_stmt[field] == exe_stmt[field]


# ---------------------------------------------------------------------------
# invariant 2: bytes moved are slab-size-invariant for single-pass statements
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["elementwise", "transpose"])
def test_bytes_are_slab_size_invariant(tmp_path, workload):
    rng = random.Random(SEED + 2)
    session = Session(config=RunConfig(scratch_dir=tmp_path))
    for n, nprocs, _ in _random_configs(SEED + 2, 4):
        ratios = rng.sample([0.125, 0.2, 0.25, 0.4, 0.5, 0.75, 1.0], 4)
        volumes = set()
        requests = []
        for slab_ratio in ratios:
            record = session.estimate(
                WorkloadPoint(workload, n=n, nprocs=nprocs, slab_ratio=slab_ratio)
            )
            volumes.add(
                (record.io_read_bytes_per_proc, record.io_write_bytes_per_proc)
            )
            requests.append(record.io_requests_per_proc)
        assert len(volumes) == 1, (
            f"{workload} N={n} P={nprocs}: bytes moved varied with the slab "
            f"ratio ({sorted(volumes)})"
        )
        # sanity: smaller slabs never yield fewer requests
        paired = sorted(zip(ratios, requests, strict=True), key=lambda item: item[0])
        ordered = [count for _, count in paired]
        assert ordered == sorted(ordered, reverse=True) or len(set(ordered)) == 1


def test_pipeline_elementwise_statement_bytes_are_slab_invariant(tmp_path):
    """In a whole program, statement 2 (elementwise) keeps the invariance."""
    rng = random.Random(SEED + 3)
    nprocs = 4
    n = 32
    volumes = set()
    for slab_ratio in rng.sample([0.125, 0.25, 0.5, 1.0], 3):
        compiled = compile_program(build_pipeline_ir(n, nprocs), slab_ratio=slab_ratio)
        estimate = ProgramExecutor(compiled).estimate()
        stmt2 = estimate.statements[1]
        volumes.add((stmt2["bytes_read_per_proc"], stmt2["bytes_written_per_proc"]))
    assert len(volumes) == 1
