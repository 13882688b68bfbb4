"""Differential testing: every compiled program vs the in-core NumPy oracle.

The harness (:func:`assert_matches_oracle`) executes any compiled program —
single- or multi-statement, any workload, either slab strategy, any processor
count — on a real ``EXECUTE``-mode virtual machine with seeded dense inputs,
evaluates the *same statement list* in core with NumPy
(:func:`repro.runtime.executor.program_reference`), and asserts the
out-of-core numerics match within the dtype's tolerance.

This is the safety net under the whole-program refactor: any future change
to the slab loops, the exchange schedules or the LAF reuse machinery that
alters numerics fails here, against an oracle that knows nothing about slabs.
"""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core.ir import (
    build_elementwise_ir,
    build_gaxpy_ir,
    build_pipeline_ir,
    build_transpose_ir,
)
from repro.core.pipeline import CompiledWholeProgram, compile_program
from repro.hpf.frontend import frontend_to_ir
from repro.hpf.parser import parse_program
from repro.runtime.executor import (
    NodeProgramExecutor,
    ProgramExecutor,
    ReductionInputs,
    program_reference,
    verify_outputs,
)
from repro.runtime.vm import VirtualMachine


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------
def _tolerances(dtype) -> dict:
    """Comparison tolerances scaled to the dtype's precision."""
    if np.dtype(dtype).itemsize <= 4:
        return {"rtol": 1e-3, "atol": 1e-3}
    return {"rtol": 1e-9, "atol": 1e-9}


def generate_dense_inputs(program, seed: int = 11) -> dict:
    """Seeded dense data for every program input array."""
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(program.arrays[name].shape).astype(
            program.arrays[name].dtype
        )
        for name in program.input_arrays()
    }


def _single_statement_inputs(compiled, dense):
    from repro.core.ir import ReductionStatement

    statement = compiled.program.statement
    if isinstance(statement, ReductionStatement):
        analysis = compiled.analysis
        return ReductionInputs(
            streamed=dense[analysis.streamed],
            coefficient=dense[analysis.coefficient],
        )
    return dense


def assert_matches_oracle(compiled, scratch, seed: int = 11) -> dict:
    """Execute ``compiled`` and assert every output matches the NumPy oracle.

    Returns the mapping of output array name to executed dense result, so
    callers can run extra assertions.
    """
    program = compiled.program
    dense = generate_dense_inputs(program, seed)
    oracle = program_reference(program, dense)
    with VirtualMachine(
        compiled.nprocs, compiled.params, RunConfig(scratch_dir=scratch)
    ) as vm:
        if isinstance(compiled, CompiledWholeProgram):
            result = ProgramExecutor(compiled).execute(
                vm, dense, verify=False, collect_outputs=True
            )
            outputs = result.outputs
        else:
            statement = program.statement
            result = NodeProgramExecutor(compiled).execute(
                vm, _single_statement_inputs(compiled, dense), verify=False
            )
            outputs = {statement.result.array: result.result}
    for name, actual in outputs.items():
        np.testing.assert_allclose(
            actual.astype(np.float64),
            oracle[name],
            err_msg=f"array {name!r} of {program.name} diverged from the oracle",
            **_tolerances(program.arrays[name].dtype),
        )
    return outputs


# ---------------------------------------------------------------------------
# single-statement workloads x strategies x processor counts
# ---------------------------------------------------------------------------
N = 16


@pytest.mark.parametrize("nprocs", [1, 4])
@pytest.mark.parametrize("strategy", ["column", "row"])
def test_gaxpy_matches_oracle(tmp_path, nprocs, strategy):
    compiled = compile_program(
        build_gaxpy_ir(N, nprocs), slab_ratio=0.5, force_strategy=strategy
    )
    assert_matches_oracle(compiled, tmp_path)


@pytest.mark.parametrize("nprocs", [1, 4])
def test_gaxpy_cost_model_choice_matches_oracle(tmp_path, nprocs):
    compiled = compile_program(build_gaxpy_ir(N, nprocs), slab_ratio=0.25)
    assert_matches_oracle(compiled, tmp_path)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_gaxpy_dtypes_match_oracle(tmp_path, dtype):
    compiled = compile_program(
        build_gaxpy_ir(N, 4, dtype=dtype), slab_ratio=0.5, force_strategy="row"
    )
    assert_matches_oracle(compiled, tmp_path)


@pytest.mark.parametrize("nprocs", [1, 4])
@pytest.mark.parametrize("strategy", ["column", "row"])
@pytest.mark.parametrize("op", ["add", "multiply", "subtract"])
def test_elementwise_matches_oracle(tmp_path, nprocs, strategy, op):
    compiled = compile_program(
        build_elementwise_ir(N, nprocs, op=op), slab_ratio=0.3, force_strategy=strategy
    )
    assert_matches_oracle(compiled, tmp_path)


@pytest.mark.parametrize("nprocs", [1, 4])
def test_transpose_matches_oracle(tmp_path, nprocs):
    compiled = compile_program(build_transpose_ir(N, nprocs), slab_ratio=0.5)
    assert_matches_oracle(compiled, tmp_path)


SINGLE_OPERAND_SOURCE = """
program square
  parameter (n = 16, nprocs = 4)
  real a(n, n), c(n, n)
!hpf$ processors Pr(nprocs)
!hpf$ template tmpl(n)
!hpf$ distribute tmpl(block) onto Pr
!hpf$ align a(*, :) with tmpl
!hpf$ align c(*, :) with tmpl
  do j = 1, n
    forall (k = 1 : n)
      c(:, j) = sum(a(:, k) * a(k, j))
    end forall
  end do
end program
"""


def test_single_operand_reduction_matches_oracle(tmp_path):
    compiled = compile_program(
        frontend_to_ir(parse_program(SINGLE_OPERAND_SOURCE)), slab_ratio=0.5
    )
    assert_matches_oracle(compiled, tmp_path)


# ---------------------------------------------------------------------------
# multi-statement programs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("nprocs", [1, 4])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_two_statement_pipeline_matches_oracle(tmp_path, nprocs, dtype):
    compiled = compile_program(
        build_pipeline_ir(N, nprocs, dtype=dtype), slab_ratio=0.25
    )
    assert_matches_oracle(compiled, tmp_path)


@pytest.mark.parametrize("strategy", ["column", "row"])
def test_two_statement_pipeline_both_strategies(tmp_path, strategy):
    # Forcing the reduction strategy must not change the numerics; the
    # elementwise statement accepts both slab directions too.
    compiled = compile_program(
        build_pipeline_ir(N, 4), slab_ratio=0.25, force_strategy=strategy
    )
    assert_matches_oracle(compiled, tmp_path)


THREE_STATEMENT_SOURCE = """
program chain
  parameter (n = 16, nprocs = 4)
  real a(n, n), b(n, n), t(n, n), d(n, n), u(n, n), e(n, n), c(n, n)
!hpf$ processors Pr(nprocs)
!hpf$ template tmpl(n)
!hpf$ distribute tmpl(block) onto Pr
!hpf$ align a(*, :) with tmpl
!hpf$ align t(*, :) with tmpl
!hpf$ align d(*, :) with tmpl
!hpf$ align u(*, :) with tmpl
!hpf$ align e(*, :) with tmpl
!hpf$ align c(*, :) with tmpl
!hpf$ align b(:, *) with tmpl
  do j = 1, n
    forall (k = 1 : n)
      t(:, j) = sum(a(:, k) * b(k, j))
    end forall
  end do
  u(:, :) = add(t(:, :), d(:, :))
  c(:, :) = multiply(u(:, :), e(:, :))
end program
"""


def test_three_statement_chain_matches_oracle(tmp_path):
    compiled = compile_program(
        frontend_to_ir(parse_program(THREE_STATEMENT_SOURCE)), slab_ratio=0.25
    )
    outputs = assert_matches_oracle(compiled, tmp_path)
    assert set(outputs) == {"t", "u", "c"}


TRANSPOSE_PIPELINE_SOURCE = """
program transpose_mm
  parameter (n = 16, nprocs = 4)
  real a(n, n), u(n, n), b(n, n), c(n, n)
!hpf$ processors Pr(nprocs)
!hpf$ template tmpl(n)
!hpf$ distribute tmpl(block) onto Pr
!hpf$ align a(*, :) with tmpl
!hpf$ align u(*, :) with tmpl
!hpf$ align c(*, :) with tmpl
!hpf$ align b(:, *) with tmpl
  u(:, :) = transpose(a(:, :))
  do j = 1, n
    forall (k = 1 : n)
      c(:, j) = sum(u(:, k) * b(k, j))
    end forall
  end do
end program
"""


def test_transpose_then_multiply_matches_oracle(tmp_path):
    compiled = compile_program(
        frontend_to_ir(parse_program(TRANSPOSE_PIPELINE_SOURCE)), slab_ratio=0.5
    )
    outputs = assert_matches_oracle(compiled, tmp_path)
    # u really is the transpose, c really is u @ b
    dense = generate_dense_inputs(compiled.program)
    np.testing.assert_allclose(
        outputs["u"], np.asarray(dense["a"], dtype=np.float64).T, rtol=1e-3, atol=1e-3
    )


# ---------------------------------------------------------------------------
# seeds: the harness is deterministic per seed, distinct across seeds
# ---------------------------------------------------------------------------
def test_harness_is_seed_deterministic(tmp_path):
    compiled = compile_program(build_pipeline_ir(N, 4), slab_ratio=0.25)
    first = assert_matches_oracle(compiled, tmp_path / "one", seed=3)
    second = assert_matches_oracle(compiled, tmp_path / "two", seed=3)
    np.testing.assert_array_equal(first["c"], second["c"])
    third = assert_matches_oracle(compiled, tmp_path / "three", seed=4)
    assert not np.array_equal(first["c"], third["c"])


# ---------------------------------------------------------------------------
# verify_outputs: the one routine behind every record's ``verified`` flag
# ---------------------------------------------------------------------------
def _verification_case(build, dtype):
    """A compiled program, its inputs, and oracle-exact outputs in its dtypes."""
    compiled = compile_program(build(N, 4, dtype=dtype), slab_ratio=0.5)
    program = compiled.program
    dense = generate_dense_inputs(program)
    if isinstance(compiled, CompiledWholeProgram):
        inputs, names = dense, program.result_arrays()
    else:
        inputs = _single_statement_inputs(compiled, dense)
        names = (program.statement.result.array,)
    oracle = program_reference(program, dense)
    exact = {name: oracle[name].astype(program.arrays[name].dtype) for name in names}
    return compiled, inputs, exact


@pytest.mark.parametrize("build,dtype,reports_error,passes,fails", [
    (build_gaxpy_ir, "float32", True, 1e-4, 1e-2),         # lone reduction: 1e-3 x scale ...
    (build_gaxpy_ir, "float64", True, 1e-4, 1e-2),         # ... whatever the dtype
    (build_elementwise_ir, "float32", False, 1e-5, 1e-3),  # allclose at 1e-4
    (build_transpose_ir, "float32", False, 1e-6, 1e-4),    # allclose at 1e-5
    (build_pipeline_ir, "float32", True, 1e-4, 1e-2),      # whole program: 1e-3 x scale ...
    (build_pipeline_ir, "float64", True, 1e-10, 1e-6),     # ... 1e-9 x scale above 4 bytes
])
def test_verify_outputs_applies_each_kinds_tolerance(build, dtype, reports_error, passes, fails):
    compiled, inputs, exact = _verification_case(build, dtype)
    for relative, expected in ((0.0, True), (passes, True), (fails, False)):
        outputs = {
            name: (value + relative * np.max(np.abs(value))).astype(value.dtype)
            for name, value in exact.items()
        }
        verified, max_abs_error = verify_outputs(compiled, inputs, outputs)
        assert verified is expected, relative
        assert (max_abs_error is not None) == reports_error


@pytest.mark.parametrize("build", [build_gaxpy_ir, build_elementwise_ir, build_pipeline_ir])
def test_verify_outputs_rejects_nan(build):
    compiled, inputs, outputs = _verification_case(build, "float32")
    next(iter(outputs.values()))[0, 0] = np.nan
    verified, max_abs_error = verify_outputs(compiled, inputs, outputs)
    assert verified is False
    assert max_abs_error is None or np.isnan(max_abs_error)
