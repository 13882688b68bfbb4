"""Tests for processor grids, templates, alignments and array descriptors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import AlignmentError, DistributionError
from repro.hpf import (
    Alignment,
    ArrayDescriptor,
    ProcessorGrid,
    Template,
)
from repro.hpf.align import AlignmentSpec
from repro.hpf.template import DimDistributionSpec


# ---------------------------------------------------------------------------
# ProcessorGrid
# ---------------------------------------------------------------------------
class TestProcessorGrid:
    def test_scalar_shape_promoted(self):
        grid = ProcessorGrid("Pr", 4)
        assert grid.shape == (4,)
        assert grid.size == 4

    def test_rank_coordinate_round_trip_2d(self):
        grid = ProcessorGrid("G", (3, 5))
        for rank in grid.ranks():
            assert grid.rank_of(grid.coordinates(rank)) == rank

    def test_invalid_extent(self):
        with pytest.raises(DistributionError):
            ProcessorGrid("bad", (0,))

    def test_out_of_range_rank(self):
        grid = ProcessorGrid("Pr", 4)
        with pytest.raises(DistributionError):
            grid.coordinates(4)

    def test_bad_coordinate_tuple(self):
        grid = ProcessorGrid("G", (2, 2))
        with pytest.raises(DistributionError):
            grid.rank_of((1,))
        with pytest.raises(DistributionError):
            grid.rank_of((2, 0))


# ---------------------------------------------------------------------------
# Template
# ---------------------------------------------------------------------------
class TestTemplate:
    def test_paper_template(self):
        grid = ProcessorGrid("Pr", 4)
        template = Template("d", 64, grid, ["block"])
        assert template.is_distributed(0)
        assert template.distribution(0).local_size(0) == 16
        assert template.grid_dim(0) == 0

    def test_mismatched_grid_rank(self):
        grid = ProcessorGrid("G", (2, 2))
        with pytest.raises(DistributionError):
            Template("d", 64, grid, ["block"])  # 1 distributed dim, 2-D grid

    def test_star_dimension_not_distributed(self):
        grid = ProcessorGrid("Pr", 4)
        template = Template("d", (8, 64), grid, ["*", "block"])
        assert not template.is_distributed(0)
        assert template.is_distributed(1)
        assert template.grid_dim(0) is None

    def test_dim_spec_objects(self):
        grid = ProcessorGrid("Pr", 3)
        template = Template("d", 30, grid, [DimDistributionSpec("cyclic", block=4)])
        assert template.distribution(0).local_size(0) in (8, 12)

    def test_describe(self):
        grid = ProcessorGrid("Pr", 4)
        template = Template("d", 64, grid, ["block"])
        assert "DISTRIBUTE" in template.describe()


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------
class TestAlignment:
    def _template(self, n=64, p=4):
        return Template("d", n, ProcessorGrid("Pr", p), ["block"])

    def test_paper_column_alignment(self):
        align = Alignment(self._template(), ["*", ":"])
        assert align.specs[0].collapsed
        assert align.specs[1].target == 0

    def test_paper_row_alignment(self):
        align = Alignment(self._template(), [":", "*"])
        assert align.specs[0].target == 0
        assert align.specs[1].collapsed

    def test_too_many_colons(self):
        with pytest.raises(AlignmentError):
            Alignment(self._template(), [":", ":"])

    def test_duplicate_targets(self):
        with pytest.raises(AlignmentError):
            Alignment(self._template(), [0, 0])

    def test_target_out_of_range(self):
        with pytest.raises(AlignmentError):
            Alignment(self._template(), [5])

    def test_unknown_entry(self):
        with pytest.raises(AlignmentError):
            Alignment(self._template(), ["?"])

    def test_distributed_dims(self):
        align = Alignment(self._template(), ["*", ":"])
        assert align.distributed_dims() == (1,)
        assert align.collapsed_dims() == (0,)


# ---------------------------------------------------------------------------
# ArrayDescriptor — the paper's three arrays
# ---------------------------------------------------------------------------
def make_paper_arrays(n=64, p=4, dtype=np.float64):
    """Build descriptors for A, B, C exactly as the HPF program in Figure 3."""
    grid = ProcessorGrid("Pr", p)
    template = Template("d", n, grid, ["block"])
    column_align = Alignment(template, ["*", ":"])
    row_align = Alignment(template, [":", "*"])
    a = ArrayDescriptor("a", (n, n), column_align, dtype=dtype)
    b = ArrayDescriptor("b", (n, n), row_align, dtype=dtype)
    c = ArrayDescriptor("c", (n, n), column_align, dtype=dtype)
    return a, b, c


class TestArrayDescriptorPaperProgram:
    def test_distribution_names(self):
        a, b, c = make_paper_arrays()
        assert a.distribution_name() == "column-block"
        assert b.distribution_name() == "row-block"
        assert c.distribution_name() == "column-block"

    def test_local_shapes(self):
        a, b, _ = make_paper_arrays(n=64, p=4)
        assert a.local_shape(0) == (64, 16)   # all rows, 16 columns
        assert b.local_shape(0) == (16, 64)   # 16 rows, all columns

    def test_column_owner(self):
        a, _, _ = make_paper_arrays(n=64, p=4)
        # column 17 belongs to processor 1 (columns 16..31)
        assert a.owner_of((0, 17)) == 1
        assert a.owner_of_dim(1, 17) == 1

    def test_owner_of_dim_rejects_wrong_dim(self):
        a, _, _ = make_paper_arrays()
        with pytest.raises(DistributionError):
            a.owner_of_dim(0, 3)

    def test_global_local_round_trip(self):
        a, _, _ = make_paper_arrays(n=32, p=4)
        for g in [(0, 0), (5, 9), (31, 31), (13, 24)]:
            rank = a.owner_of(g)
            local = a.global_to_local(g)
            assert a.local_to_global(rank, local) == g

    def test_scatter_parts_cover_the_array(self):
        a, b, _ = make_paper_arrays(n=32, p=4)
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((32, 32))
        for desc in (a, b):
            locals_ = desc.scatter(dense)
            assert len(locals_) == 4
            owners = np.zeros(dense.shape, dtype=int)
            for rank, local in locals_.items():
                owned = desc.local_slices(rank)
                np.testing.assert_array_equal(local, dense[owned])
                owners[owned] += 1
            assert (owners == 1).all()

    def test_scatter_shape_mismatch(self):
        a, _, _ = make_paper_arrays(n=32, p=4)
        with pytest.raises(DistributionError):
            a.scatter(np.zeros((8, 8)))

    def test_nbytes(self):
        a, _, _ = make_paper_arrays(n=64, p=4, dtype=np.float32)
        assert a.nbytes == 64 * 64 * 4
        assert a.local_nbytes(0) == 64 * 16 * 4

    def test_alignment_rank_mismatch(self):
        grid = ProcessorGrid("Pr", 4)
        template = Template("d", 64, grid, ["block"])
        align = Alignment(template, ["*", ":"])
        with pytest.raises(AlignmentError):
            ArrayDescriptor("x", (64,), align)

    def test_extent_mismatch_with_template(self):
        grid = ProcessorGrid("Pr", 4)
        template = Template("d", 64, grid, ["block"])
        align = Alignment(template, ["*", ":"])
        with pytest.raises(AlignmentError):
            ArrayDescriptor("x", (64, 32), align)

    def test_shifted_alignment_rejected_on_distributed_dim(self):
        grid = ProcessorGrid("Pr", 4)
        template = Template("d", 64, grid, ["block"])
        align = Alignment(template, [AlignmentSpec(target=None), AlignmentSpec(target=0, offset=1)])
        with pytest.raises(AlignmentError):
            ArrayDescriptor("x", (64, 64), align)

    def test_describe_mentions_out_of_core(self):
        a, _, _ = make_paper_arrays()
        assert "out-of-core" in a.describe()
        in_core = ArrayDescriptor("t", a.shape, a.alignment, out_of_core=False)
        assert "in-core" in in_core.describe()


# ---------------------------------------------------------------------------
# property tests: ownership consistency for random 2-D block layouts
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    p=st.integers(1, 8),
    column_distributed=st.booleans(),
)
def test_owner_matches_scatter(n, p, column_distributed):
    """The element (i, j) of the scattered local array on owner(i, j) equals the dense value."""
    grid = ProcessorGrid("Pr", p)
    template = Template("d", n, grid, ["block"])
    align = Alignment(template, ["*", ":"] if column_distributed else [":", "*"])
    desc = ArrayDescriptor("x", (n, n), align)
    dense = np.arange(n * n, dtype=np.float64).reshape(n, n)
    locals_ = desc.scatter(dense)
    rng = np.random.default_rng(n * 31 + p)
    for _ in range(10):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        rank = desc.owner_of((i, j))
        li, lj = desc.global_to_local((i, j))
        assert locals_[rank][li, lj] == dense[i, j]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), p=st.integers(1, 8))
def test_local_shapes_partition_global(n, p):
    """Sum of local element counts equals the global element count."""
    grid = ProcessorGrid("Pr", p)
    template = Template("d", n, grid, ["block"])
    desc = ArrayDescriptor("x", (n, n), Alignment(template, ["*", ":"]))
    assert sum(desc.local_size(r) for r in range(p)) == n * n


# ---------------------------------------------------------------------------
# property tests: the closed-form data plane for every distribution kind
# ---------------------------------------------------------------------------
_DIM_KINDS = {
    "block": DimDistributionSpec("block"),
    "cyclic": DimDistributionSpec("cyclic"),
    "cyclic3": DimDistributionSpec("cyclic", block=3),
}


def _descriptor_2d(kinds, procs, shape, dtype=np.float64):
    """A 2-D descriptor with dimension ``d`` distributed ``kinds[d]`` (or ``"*"``)."""
    distributed = [d for d, kind in enumerate(kinds) if kind != "*"]
    grid = ProcessorGrid("G", tuple(procs[d] for d in distributed) or (procs[0],))
    if not distributed:
        # Fully replicated: align both dimensions away from a 1-D template.
        template = Template("t", 1, grid, ["block"])
        return ArrayDescriptor("x", shape, Alignment(template, ["*", "*"]), dtype=dtype)
    template = Template("t", tuple(shape[d] for d in distributed), grid,
                        [_DIM_KINDS[kinds[d]] for d in distributed])
    targets = iter(range(len(distributed)))
    align = Alignment(template, ["*" if kind == "*" else next(targets) for kind in kinds])
    return ArrayDescriptor("x", shape, align, dtype=dtype)


_kind = st.sampled_from(["block", "cyclic", "cyclic3", "*"])


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.tuples(_kind, _kind),
    procs=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    shape=st.tuples(st.integers(0, 17), st.integers(0, 17)),
)
def test_scatter_parts_every_kind(kinds, procs, shape):
    """Each part of scatter(x) is what the index sets say, and together the
    parts cover every element of x.

    Covers BLOCK / CYCLIC slices, the CYCLIC(k) fancy-index fallback,
    replicated dimensions, 2-D grids, P not dividing N, zero extents and
    ranks that own nothing.
    """
    desc = _descriptor_2d(kinds, procs, shape, dtype=np.float32)
    dense = np.arange(shape[0] * shape[1], dtype=np.float64).reshape(shape)
    locals_ = desc.scatter(dense)
    assert sorted(locals_) == list(range(desc.nprocs))
    covered = np.zeros(shape, dtype=bool)
    for rank, local in locals_.items():
        rows, cols = desc.local_index_ranges(rank)
        assert local.dtype == np.float32 and local.shape == desc.local_shape(rank)
        np.testing.assert_array_equal(local, dense[np.ix_(rows, cols)])
        covered[np.ix_(rows, cols)] = True
        assert not np.shares_memory(local, dense)
        for owned, indices, extent in zip(desc.local_slices(rank), (rows, cols), shape,
                                          strict=True):
            as_indices = np.arange(extent)[owned] if isinstance(owned, slice) else owned
            np.testing.assert_array_equal(as_indices, indices)
        for lindex in np.ndindex(*local.shape):
            assert desc.local_to_global(rank, lindex) == (rows[lindex[0]], cols[lindex[1]])
    assert covered.all()
    some = [r for r in range(desc.nprocs) if r % 2 == 0]
    subset = desc.scatter(dense, some)
    assert sorted(subset) == some
    for rank in some:
        np.testing.assert_array_equal(subset[rank], locals_[rank])


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["block", "cyclic", "cyclic3"]),
    n=st.integers(1, 40),
    p=st.integers(1, 8),
    column_distributed=st.booleans(),
)
def test_owner_table_matches_per_index_translation(kind, n, p, column_distributed):
    kinds = ("*", kind) if column_distributed else (kind, "*")
    desc = _descriptor_2d(kinds, (p, p), (n, n))
    dim = 1 if column_distributed else 0
    owners, positions = desc.owner_table(dim)
    for g in range(n):
        index = (0, g) if column_distributed else (g, 0)
        assert owners[g] == desc.owner_of_dim(dim, g)
        assert positions[g] == desc.global_to_local(index)[dim]
    with pytest.raises(DistributionError):
        desc.owner_table(1 - dim)
