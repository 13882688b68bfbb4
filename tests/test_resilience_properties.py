"""Property-based resilience testing: seeded fault schedules vs the oracle.

Hypothesis draws fault policies (seeds and per-kind rates under the retry
budget's convergence bound) and asserts the out-of-core execution still
converges to the in-core NumPy oracle, with charged statistics bit-identical
to a fault-free run and deterministic resilience counters — the differential
harness of PR 4 pointed at the fault injector of this PR.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import RunConfig
from repro.core.ir import build_pipeline_ir
from repro.core.pipeline import compile_program
from repro.resilience import FaultPolicy
from repro.runtime.executor import ProgramExecutor, program_reference
from repro.runtime.vm import VirtualMachine

from repro.runtime.operands import input_operands

N = 16
NPROCS = 2

rates = st.floats(min_value=0.0, max_value=0.25, allow_nan=False)

policies = st.builds(
    FaultPolicy,
    seed=st.integers(min_value=0, max_value=2**31),
    read_error_rate=rates,
    write_error_rate=rates,
    disk_full_rate=rates,
    torn_write_rate=rates,
    bitflip_rate=rates,
    max_failures_per_site=st.just(2),
)


def _run(tmp_path, policy, tag):
    compiled = compile_program(build_pipeline_ir(N, NPROCS), slab_ratio=0.25)
    dense = input_operands(compiled.program, 11)
    config = RunConfig(
        scratch_dir=tmp_path / tag, fault_policy=policy,
        io_retries=4, io_retry_backoff_s=0.0,
    )
    with VirtualMachine(NPROCS, compiled.params, config) as vm:
        result = ProgramExecutor(compiled).execute(vm, dense, verify=False)
        outputs = {name: vm.to_dense(name) for name in compiled.program.result_arrays()}
    oracle = program_reference(compiled.program, dense)
    return result, outputs, oracle


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(policy=policies)
def test_faulted_execution_converges_to_oracle(tmp_path, policy):
    faulty, outputs, oracle = _run(tmp_path, policy, f"faulty_{policy.seed}")
    clean, _, _ = _run(tmp_path, None, f"clean_{policy.seed}")
    for name in outputs:
        np.testing.assert_allclose(
            outputs[name].astype(np.float64), oracle[name],
            rtol=1e-3, atol=1e-3,
            err_msg=f"array {name!r} diverged under policy {policy}",
        )
    # Charged statistics are bit-identical to the fault-free run.
    assert faulty.simulated_seconds == clean.simulated_seconds
    assert faulty.time_breakdown == clean.time_breakdown
    assert faulty.io_statistics == clean.io_statistics
    assert faulty.statements == clean.statements


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(policy=policies)
def test_resilience_counters_are_reproducible(tmp_path, policy):
    first, _, _ = _run(tmp_path, policy, f"first_{policy.seed}")
    second, _, _ = _run(tmp_path, policy, f"second_{policy.seed}")
    assert first.resilience == second.resilience
