"""Differential testing: every compiled program vs the in-core NumPy oracle.

The harness (:func:`assert_matches_oracle`) executes any compiled program —
single- or multi-statement, any workload, either slab strategy, any processor
count — on a real ``EXECUTE``-mode virtual machine with the seeded operands every
run draws (:func:`repro.runtime.operands.input_operands`),
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
    ProgramIR,
    build_elementwise_ir,
    build_gaxpy_ir,
    build_pipeline_ir,
    build_transpose_ir,
)
from repro.core.pipeline import CompiledWholeProgram, compile_program
from repro.exceptions import RuntimeExecutionError
from repro.runtime import executor
from repro.runtime.executor import (
    NodeProgramExecutor,
    ProgramExecutor,
    _statement_kind,
    program_reference,
    reduction_reference,
    verify_outputs,
)
from repro.runtime.operands import input_operands
from repro.runtime.vm import VirtualMachine

from tests.scenarios import ORACLE, Scenario


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------
def _tolerances(dtype) -> dict:
    """Comparison tolerances scaled to the dtype's precision."""
    if np.dtype(dtype).itemsize <= 4:
        return {"rtol": 1e-3, "atol": 1e-3}
    return {"rtol": 1e-9, "atol": 1e-9}


def assert_matches_oracle(compiled, scratch, seed: int = 11) -> dict:
    """Execute ``compiled`` and assert every output matches the NumPy oracle.

    Returns the mapping of output array name to executed dense result (every
    result that has Local Array Files, read back with ``vm.to_dense``), so
    callers can run extra assertions.
    """
    program = compiled.program
    dense = input_operands(program, seed)
    oracle = program_reference(program, dense)
    with VirtualMachine(
        compiled.nprocs, compiled.params, RunConfig(scratch_dir=scratch)
    ) as vm:
        executor = (ProgramExecutor if isinstance(compiled, CompiledWholeProgram)
                    else NodeProgramExecutor)(compiled)
        executor.execute(vm, dense, verify=False)
        # a fused-away intermediate has no files
        outputs = {name: vm.to_dense(name)
                   for name in program.result_arrays() if name in vm.arrays}
    for name, actual in outputs.items():
        np.testing.assert_allclose(
            actual.astype(np.float64),
            oracle[name],
            err_msg=f"array {name!r} of {program.name} diverged from the oracle",
            **_tolerances(program.arrays[name].dtype),
        )
    return outputs


# ---------------------------------------------------------------------------
# every statement kind x strategy x processor count x dtype x distribution
# (the ORACLE scenario set)
# ---------------------------------------------------------------------------
N = 16


@pytest.mark.parametrize("scenario", ORACLE["gaxpy"], ids=str)
def test_gaxpy_matches_oracle(tmp_path, scenario):
    assert_matches_oracle(scenario.compile(), tmp_path)


@pytest.mark.parametrize("scenario", ORACLE["gaxpy-choice"], ids=str)
def test_gaxpy_cost_model_choice_matches_oracle(tmp_path, scenario):
    assert_matches_oracle(scenario.compile(), tmp_path)


@pytest.mark.parametrize("scenario", ORACLE["gaxpy-dtype"], ids=str)
def test_gaxpy_dtypes_match_oracle(tmp_path, scenario):
    assert_matches_oracle(scenario.compile(), tmp_path)


@pytest.mark.parametrize("scenario", ORACLE["elementwise"], ids=str)
def test_elementwise_matches_oracle(tmp_path, scenario):
    assert_matches_oracle(scenario.compile(), tmp_path)


@pytest.mark.parametrize("scenario", ORACLE["transpose"], ids=str)
def test_transpose_matches_oracle(tmp_path, scenario):
    assert_matches_oracle(scenario.compile(), tmp_path)


def test_single_operand_reduction_matches_oracle(tmp_path):
    assert_matches_oracle(Scenario("square", N, 4, ratio=0.5).compile(), tmp_path)


@pytest.mark.parametrize("scenario", ORACLE["cyclic"], ids=str)
def test_cyclic_distributions_match_oracle(tmp_path, scenario):
    """CYCLIC and CYCLIC(2) with P | N: a reduction (both strategies), an
    elementwise statement, a transpose and two whole programs."""
    assert_matches_oracle(scenario.compile(), tmp_path)


@pytest.mark.parametrize("scenario", ORACLE["ragged"], ids=str)
def test_ragged_distributions_match_oracle(tmp_path, scenario):
    """P ∤ N under BLOCK and CYCLIC(2): ranks hold unequal local arrays, and
    on P = 7 one holds none."""
    assert_matches_oracle(scenario.compile(), tmp_path)


# ---------------------------------------------------------------------------
# multi-statement programs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scenario", ORACLE["pipeline"], ids=str)
def test_two_statement_pipeline_matches_oracle(tmp_path, scenario):
    assert_matches_oracle(scenario.compile(), tmp_path)


@pytest.mark.parametrize("scenario", ORACLE["pipeline-strategy"], ids=str)
def test_two_statement_pipeline_both_strategies(tmp_path, scenario):
    # Forcing the reduction strategy must not change the numerics; the
    # elementwise statement accepts both slab directions too.
    assert_matches_oracle(scenario.compile(), tmp_path)


def test_three_statement_chain_matches_oracle(tmp_path):
    compiled = Scenario("mm_add_mul", N, 4, ratio=0.25).compile()
    outputs = assert_matches_oracle(compiled, tmp_path)
    assert set(outputs) == {"t", "u", "c"}


def test_transpose_then_multiply_matches_oracle(tmp_path):
    compiled = Scenario("transpose_mm", N, 4, ratio=0.5).compile()
    outputs = assert_matches_oracle(compiled, tmp_path)
    # u really is the transpose, c really is u @ b
    dense = input_operands(compiled.program, 11)
    np.testing.assert_allclose(
        outputs["u"], np.asarray(dense["a"], dtype=np.float64).T, rtol=1e-3, atol=1e-3
    )


@pytest.mark.parametrize("scenario", ORACLE["integer"], ids=str)
def test_integer_programs_verify_and_a_flipped_element_fails(tmp_path, scenario):
    """An HPF ``integer`` program's inputs are non-zero integers, so its
    verification is not trivial: the run verifies, one sign-flipped result
    element does not."""
    from repro.api import Session

    compiled = scenario.compile()
    inputs = input_operands(compiled.program, 11)
    assert all(np.count_nonzero(np.asarray(x)) > 0.8 * np.prod(x.shape)
               for x in inputs.values())
    outputs = assert_matches_oracle(compiled, tmp_path / "oracle")
    assert all(value.dtype == np.int32 for value in outputs.values())
    assert verify_outputs(compiled, inputs, outputs)[0] is True
    name = compiled.program.statements[-1].result.array
    flipped = {key: value.copy() for key, value in outputs.items()}
    i, j = np.unravel_index(np.argmax(np.abs(flipped[name])), flipped[name].shape)
    flipped[name][i, j] *= -1
    assert flipped[name][i, j] != 0
    assert verify_outputs(compiled, inputs, flipped)[0] is False
    with Session(config=RunConfig(scratch_dir=tmp_path / "session")) as session:
        assert session.run(scenario.point(), "execute").verified is True


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
    built = build(N, 4, dtype=dtype)
    compiled = compile_program(built, slab_ratio=0.5) if isinstance(built, ProgramIR) else built
    program = compiled.program
    dense = input_operands(program, 11)
    # a whole program checks every result; a unit (a fused pair's included)
    # only its last statement's
    names = program.result_arrays()
    if not isinstance(compiled, CompiledWholeProgram):
        names = names[-1:]
    oracle = program_reference(program, dense)
    exact = {name: oracle[name].astype(program.arrays[name].dtype) for name in names}
    return compiled, dense, exact


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


# ---------------------------------------------------------------------------
# the panel oracle: verify_outputs folds over column panels of the reference
# ---------------------------------------------------------------------------
def build_fused_pair(n, nprocs, dtype="float32"):
    """The fused unit of ``t = a + b; c = t * d`` — compiled already: only the
    planner fuses.  ``real`` arrays, so float32 only."""
    assert dtype == "float32"
    pair = Scenario("pair", n, nprocs, budget=8 * 1024, optimizer="greedy", fusion="on")
    (unit,) = pair.compile().statements
    assert _statement_kind(unit) == "fused-elementwise"
    return unit


def _f64(array):
    return np.asarray(array, dtype=np.float64)


#: kind -> (builder, the statement list evaluated densely, in one line of NumPy each)
KINDS = {
    "reduction": (build_gaxpy_ir, lambda d: {"c": _f64(d["a"]) @ _f64(d["b"])}),
    "elementwise": (build_elementwise_ir, lambda d: {"c": _f64(d["a"]) + _f64(d["b"])}),
    "transpose": (build_transpose_ir, lambda d: {"dst": _f64(d["src"]).T}),
    "fused-elementwise": (
        build_fused_pair, lambda d: {"c": (_f64(d["a"]) + _f64(d["b"])) * _f64(d["d"])}
    ),
    "program": (
        build_pipeline_ir,
        lambda d: {"t": _f64(d["a"]) @ _f64(d["b"]),
                   "c": _f64(d["a"]) @ _f64(d["b"]) + _f64(d["d"])},
    ),
}

PANEL_WIDTH = 5
#: the first column, each side of the first panel boundary, the last partial panel
PANEL_EDGES = (0, PANEL_WIDTH - 1, PANEL_WIDTH, N - 1)


@pytest.fixture
def narrow_panels(monkeypatch):
    """Shrink the oracle's panel to PANEL_WIDTH columns of an N-row result, so
    an N x N case spans three whole panels and a partial one."""
    assert N % PANEL_WIDTH
    monkeypatch.setattr(executor, "_PANEL_BYTES", 8 * N * PANEL_WIDTH)


def dense_verdict(kind, expected, outputs):
    """The tolerance table applied to whole arrays at once, N x N temporaries
    and all: what the panel fold has to reproduce."""
    allclose = {"elementwise": 1e-4, "fused-elementwise": 1e-4, "transpose": 1e-5}.get(kind)
    if allclose is not None:
        return all(
            np.allclose(result, expected[name], rtol=allclose, atol=allclose)
            for name, result in outputs.items()
        ), None
    verified, worst = True, 0.0
    for name, result in outputs.items():
        err = np.max(np.abs(result.astype(np.float64) - expected[name]))
        scale = np.max(np.abs(expected[name])) or 1.0
        tolerance = 1e-3 if kind == "reduction" or result.dtype.itemsize <= 4 else 1e-9
        verified = verified and bool(err <= tolerance * scale)
        worst = np.maximum(worst, err)
    return verified, float(worst)


def _kind_case(kind, dtype="float32"):
    """``(compiled, inputs, the inputs drawn densely, oracle-exact outputs)``."""
    build, _ = KINDS[kind]
    compiled, inputs, exact = _verification_case(build, dtype)
    return compiled, inputs, {name: np.asarray(x) for name, x in inputs.items()}, exact


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", [
    (N, N, N),        # three whole panels and a partial one
    (N, N, 3),        # fewer columns than one panel
    (7, 11, 13),      # rectangular (n x k) . (k x m)
])
def test_reduction_reference_is_the_dense_product(narrow_panels, shape, dtype):
    n, k, m = shape
    rng = np.random.default_rng(5)
    a = rng.standard_normal((n, k)).astype(dtype)
    b = rng.standard_normal((k, m)).astype(dtype)
    dense = _f64(a) @ _f64(b)
    reference = reduction_reference(a, b)
    assert reference.dtype == np.float64 and reference.shape == (n, m)
    np.testing.assert_allclose(reference, dense, rtol=0, atol=1e-12 * np.max(np.abs(dense)))
    if n == k == m:  # the single-operand statement: one array in both roles
        square = _f64(a) @ _f64(a)
        np.testing.assert_allclose(
            reduction_reference(a, a), square, rtol=0, atol=1e-12 * np.max(np.abs(square))
        )


def test_reduction_reference_at_the_default_panel_size():
    """N smaller than one panel, and N not a multiple of the panel's width."""
    rng = np.random.default_rng(6)
    for n, k, m in ((48, 48, 48), (1024, 8, 300)):
        assert m % max(1, executor._PANEL_BYTES // (8 * n))
        a, b = rng.standard_normal((n, k)), rng.standard_normal((k, m)).astype("float32")
        np.testing.assert_allclose(reduction_reference(a, b), a @ _f64(b), rtol=0, atol=1e-12 * k)


@pytest.mark.parametrize("relative", [0.0, 1e-7, 1e-1])
@pytest.mark.parametrize("kind", KINDS)
def test_panel_fold_equals_the_dense_verdict(narrow_panels, kind, relative):
    compiled, inputs, dense, exact = _kind_case(kind)
    expected = KINDS[kind][1](dense)
    rng = np.random.default_rng(7)
    outputs = {
        name: (value + relative * np.max(np.abs(value)) * rng.standard_normal(value.shape))
        .astype(value.dtype)
        for name, value in exact.items()
    }
    verified, max_abs_error = verify_outputs(compiled, inputs, outputs)
    want_verified, want_error = dense_verdict(kind, expected, outputs)
    assert verified is want_verified is (relative < 1e-2)
    if want_error is None:
        assert max_abs_error is None
    else:
        assert max_abs_error == pytest.approx(want_error, rel=0, abs=1e-12)


@pytest.mark.parametrize("column", PANEL_EDGES)
@pytest.mark.parametrize("kind", KINDS)
def test_one_bad_element_in_any_panel_fails_verification(narrow_panels, kind, column):
    compiled, inputs, _, exact = _kind_case(kind)
    assert verify_outputs(compiled, inputs, exact)[0] is True
    for name in exact:  # of a whole program: the intermediate, then the output
        for bad in (2.0 * np.max(np.abs(exact[name])) + 1.0, np.nan):
            outputs = {key: value.copy() for key, value in exact.items()}
            outputs[name][3, column] += bad
            verified, max_abs_error = verify_outputs(compiled, inputs, outputs)
            assert verified is False, (name, bad)
            if max_abs_error is not None:  # the kinds that report one
                assert np.isnan(max_abs_error) if np.isnan(bad) else max_abs_error >= 1.0


def test_verify_outputs_rejects_an_array_the_oracle_does_not_compute():
    compiled, inputs, _, exact = _kind_case("reduction")
    with pytest.raises(RuntimeExecutionError, match="oracle"):
        verify_outputs(compiled, inputs, {"nope": exact["c"]})


@pytest.mark.parametrize("n", [512, 1024])
def test_verification_memory_is_one_operand_copy_plus_panels(n):
    """The dynamic twin of the static budget fit, for the verify path: beyond
    its arguments, checking a float32 GAXPY allocates the float64 copy of the
    streamed operand (``8 n^2``) plus at most ``PANELS`` panels — the
    coefficient panel cast to float64 and its product; the previous product
    is released before the next is computed — whatever ``n`` is.  A dense oracle and a dense
    comparison hold several ``n x n`` float64 arrays at once instead, which
    at n = 1024 (four panels to the array) is over this bound."""
    import tracemalloc

    PANELS = 3  # two live; the drawn float32 coefficient panel and a tile share the spare
    compiled = compile_program(build_gaxpy_ir(n, 4, dtype="float32"), slab_ratio=0.5)
    dense = input_operands(compiled.program, 11)
    outputs = {"c": (_f64(dense["a"]) @ _f64(dense["b"])).astype("float32")}
    tracemalloc.start()
    try:
        verified, _ = verify_outputs(compiled, dense, outputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verified is True
    assert peak <= 8 * n * n + PANELS * executor._PANEL_BYTES
