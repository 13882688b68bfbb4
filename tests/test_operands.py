"""The counter-keyed operand source (``repro.runtime.operands``).

An element's value is a function of (seed, array name, global index) only,
so any selection equals the same selection of the whole array whatever was
drawn before it, and in either memory order; a Local Array File holds the same bytes whether its block
was cut from a dense array or drawn in place; staging the inputs of an
N = 1024 run holds less than one dense operand; and a rank draws only the
tiles covering its own block.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import WorkloadPoint, get_workload
from repro.config import ExecutionMode, RunConfig
from repro.hpf import Alignment, ArrayDescriptor, ProcessorGrid, Template
from repro.hpf.template import DimDistributionSpec
from repro.machine.parameters import MachineParameters
from repro.runtime import VirtualMachine, operands
from repro.runtime.operands import Operand, input_operands

from tests.scenarios import CYCLIC

TILE = operands._TILE
SPECS = {"block": "block", "cyclic": "cyclic", "cyclic(2)": DimDistributionSpec("cyclic", block=2)}


def column_descriptor(rows, n, p, dist, name="x", dtype=np.float32):
    """An ``rows x n`` array distributed by columns over ``p`` processors."""
    template = Template("d", n, ProcessorGrid("Pr", p), [SPECS[dist]])
    return ArrayDescriptor(name, (rows, n), Alignment(template, ["*", ":"]), dtype=dtype)


def make_vm(p, tmp_path, **kwargs):
    config = RunConfig(scratch_dir=tmp_path, mode=ExecutionMode.EXECUTE)
    return VirtualMachine(p, "delta", config, **kwargs)


# ---------------------------------------------------------------------------
# equivalence: a selection is the same selection of the whole array
# ---------------------------------------------------------------------------
def _panels(extent, width):
    return [slice(start, min(start + width, extent)) for start in range(0, extent, width)]


@st.composite
def selections(draw):
    """An operand shape and selections the runtime and the oracle make of it:
    every rank's owned set under BLOCK / CYCLIC / CYCLIC(2) (P | N or not,
    empty ranks included), oracle column and row panels, and slices
    straddling tile edges."""
    rows = draw(st.integers(1, 2 * TILE + 40))
    n = draw(st.integers(1, 2 * TILE + 40))
    p = draw(st.integers(1, 8))
    dist = draw(st.sampled_from(sorted(SPECS)))
    desc = column_descriptor(rows, n, p, dist)
    picks = [desc._local_selector(rank) for rank in range(p)]
    picks += [(slice(None), cols) for cols in _panels(n, draw(st.integers(1, n)))]
    picks += [(cols, slice(None)) for cols in _panels(rows, draw(st.integers(1, rows)))]
    edge = draw(st.sampled_from([TILE - 1, TILE, TILE + 1, 2 * TILE - 3]))
    step = draw(st.integers(1, 300))
    picks.append((slice(edge % rows, None, step), slice(max(0, n - edge), n)))
    picks.append((np.array([rows - 1, 0, rows // 2]), slice(None, None, -step)))
    order = draw(st.permutations(range(len(picks))))
    return (rows, n), [picks[i] for i in order]


@settings(max_examples=40, deadline=None)
@given(case=selections(), seed=st.integers(0, 2**40), dtype=st.sampled_from(["float32", "float64"]))
def test_any_selection_equals_that_selection_of_the_whole_array(case, seed, dtype):
    shape, picks = case
    operand = Operand("a", shape, dtype, seed)
    before = [operand[pick] for pick in picks]  # nothing drawn yet ...
    whole = np.asarray(operand)
    after = [operand[pick] for pick in reversed(picks)][::-1]  # ... everything drawn
    for pick, first, second in zip(picks, before, after, strict=True):
        expected = whole[pick]
        assert first.dtype == expected.dtype == np.dtype(dtype)
        assert first.tobytes() == second.tobytes() == np.ascontiguousarray(expected).tobytes()
        # drawn in column-major order: the same elements, F-contiguous
        fortran = operand.select(pick, order="F")
        assert fortran.flags.f_contiguous and fortran.dtype == first.dtype
        assert fortran.tobytes(order="C") == first.tobytes()


def test_index_array_pairs_select_in_the_np_ix_sense():
    operand = Operand("a", (300, 520), "float32", 4)
    rows, cols = np.array([299, 3, 256]), np.array([519, 0, 255, 256])
    whole = np.asarray(operand)
    np.testing.assert_array_equal(operand[rows, cols], whole[np.ix_(rows, cols)])
    np.testing.assert_array_equal(operand[np.ix_(rows, cols)], whole[np.ix_(rows, cols)])
    fortran = operand.select(np.ix_(rows, cols), order="F")
    assert fortran.flags.f_contiguous
    np.testing.assert_array_equal(fortran, whole[np.ix_(rows, cols)])


def test_asarray_casts_tile_by_tile_to_the_asked_dtype():
    operand = Operand("a", (TILE + 7, 3), "float32", 4)
    wide = np.asarray(operand, dtype=np.float64)
    assert wide.dtype == np.float64
    np.testing.assert_array_equal(wide, np.asarray(operand).astype(np.float64))


def test_a_selection_into_out_fills_it_in_its_dtype():
    operand = Operand("a", (TILE + 7, 3 * TILE), "float32", 4)
    rows = slice(TILE - 2, TILE + 5)
    buffer = np.full((3 * TILE, 7), np.nan)  # a transposed panel, C-ordered
    filled = operand.select((rows, slice(None)), out=buffer.T)
    assert filled.base is buffer and not np.isnan(buffer).any()
    np.testing.assert_array_equal(buffer.T, operand[rows, :].astype(np.float64))
    with pytest.raises(ValueError, match="shape"):
        operand.select((rows, slice(None)), out=buffer)


def test_selections_an_operand_does_not_take_are_refused():
    operand = Operand("a", (4, 4), "float32", 4)
    with pytest.raises(TypeError):
        operand[1]
    with pytest.raises(TypeError):
        operand[0, 1]
    with pytest.raises(IndexError):
        operand[np.array([4]), :]


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_values_are_uniform_on_minus_one_one_in_the_declared_dtype(dtype):
    values = np.asarray(Operand("a", (TILE + 5, 2 * TILE + 1), dtype, 1994))
    assert values.dtype == np.dtype(dtype)
    assert values.min() >= -1.0 and values.max() < 1.0
    assert abs(values.mean()) < 0.02 and 0.3 < values.std() < 0.65  # uniform: 1/sqrt(3)


def test_integer_values_are_small_nonzero_integers():
    """A non-float dtype maps the float64 draw to ``floor(8 v)``: an HPF
    ``integer`` array is not all zeros, and still a function of the index."""
    operand = Operand("a", (300, 300), "int32", 1994)
    values = np.asarray(operand)
    assert values.dtype == np.int32
    assert values.min() == -8 and values.max() == 7
    assert np.count_nonzero(values) > 0.9 * values.size
    assert np.array_equal(operand[:, TILE - 3: TILE + 40], values[:, TILE - 3: TILE + 40])
    float64 = np.asarray(Operand("a", (300, 300), "float64", 1994))
    np.testing.assert_array_equal(values, np.floor(8 * float64))


def test_seed_and_name_key_the_values():
    shape = (40, 40)
    one = np.asarray(Operand("a", shape, "float32", 7))
    assert np.array_equal(one, np.asarray(Operand("a", shape, "float32", 7)))
    assert not np.array_equal(one, np.asarray(Operand("a", shape, "float32", 8)))
    assert not np.array_equal(one, np.asarray(Operand("b", shape, "float32", 7)))


def test_generate_inputs_is_one_operand_per_program_input():
    workload = get_workload("gaxpy")
    point = WorkloadPoint("gaxpy", n=32, nprocs=4, version="row", slab_ratio=0.5)
    compiled = workload.compile(point, MachineParameters())
    inputs = workload.generate_inputs(compiled, 3)
    assert sorted(inputs) == ["a", "b"]
    assert all(isinstance(x, Operand) and x.shape == (32, 32) for x in inputs.values())
    assert inputs.keys() == input_operands(compiled.program.program, 3).keys()


# ---------------------------------------------------------------------------
# layout independence: drawing in place == cutting from the dense array
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("scenario", CYCLIC, ids=str)
def test_laf_bytes_equal_the_scattered_dense_array(tmp_path, scenario, order):
    program = scenario.compile().program
    for name, operand in input_operands(program, 11).items():
        desc = program.arrays[name]
        expected = desc.scatter(np.asarray(operand))
        with make_vm(scenario.nprocs, tmp_path / f"{name}{order}") as vm:
            array = vm.create_array(desc, initial=operand, storage_order=order)
            for rank, ocla in array.locals.items():
                ocla.laf.flush()
                assert ocla.laf.path.read_bytes() == expected[rank].tobytes(order=order)


# ---------------------------------------------------------------------------
# memory: staging the inputs holds less than one dense operand
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("version", ["column", "row"])
def test_staging_inputs_allocates_less_than_one_dense_operand(tmp_path, version):
    """``generate_inputs`` plus creating every input array of an unverified
    N = 1024, P = 4 GAXPY peaks below ``4 N^2`` bytes (one dense float32
    operand): each rank's block is drawn tile by tile straight into its
    file.  A dense float64 draw alone is ``8 N^2``."""
    n, p = 1024, 4
    workload = get_workload("gaxpy")
    point = WorkloadPoint("gaxpy", n=n, nprocs=p, version=version, slab_ratio=0.25)
    compiled = workload.compile(point, MachineParameters())
    arrays = compiled.program.program.arrays
    with make_vm(p, tmp_path) as vm:
        tracemalloc.start()
        try:
            for name, operand in workload.generate_inputs(compiled, 1994).items():
                vm.create_array(arrays[name], initial=operand)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 4 * n * n


# ---------------------------------------------------------------------------
# worker locality: a rank draws the tiles of its own block, each once, and
# of a column block only the columns it owns
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("rank", range(4))
def test_a_rank_vm_draws_only_the_tiles_of_its_own_block(tmp_path, monkeypatch, rank):
    n, p = 600, 4  # blocks of 150 columns: ranks 1 and 2 straddle a tile edge
    drawn = []
    draw_tile = operands._draw_tile

    def counting(key, tile, rows, cols, dtype):
        drawn.append((key, tile, rows * len(cols)))
        return draw_tile(key, tile, rows, cols, dtype)

    monkeypatch.setattr(operands, "_draw_tile", counting)
    desc = column_descriptor(n, n, p, "block")
    operand = Operand("x", desc.shape, desc.dtype, 5)
    with make_vm(p, tmp_path, rank=rank) as vm:
        vm.create_array(desc, initial=operand)
    rows, cols = (np.unique(np.arange(extent)[owned] // TILE).tolist()
                  for extent, owned in zip(desc.shape, desc.local_slices(rank), strict=True))
    assert [draw[:2] for draw in drawn] == [(operand._key, (ti, tj)) for ti in rows for tj in cols]
    assert sum(values for *_, values in drawn) == desc.local_size(rank)
