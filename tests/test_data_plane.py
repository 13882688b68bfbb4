"""The host data plane: staging, transpose delivery and index translation.

None of this is charged — the simulated machine never sees how a dense array
gets into Local Array Files or how an engine finds a column's owner — so the
tests pin results against NumPy and *count calls* instead of reading a clock:
per-index translation inside a slab loop is what made staging dominate the
profile, and a call count is a regression guard that repeats exactly.
"""

import collections

import numpy as np
import pytest

from repro.api import Session, WorkloadPoint
from repro.config import ExecutionMode, RunConfig
from repro.hpf import Alignment, ArrayDescriptor, ProcessorGrid, Template
from repro.hpf import distribution as dist_module
from repro.hpf.template import DimDistributionSpec
from repro.runtime import VirtualMachine
from repro.runtime.executor import run_transpose_plan


def column_descriptor(n, p, name, spec="block", dtype=np.float32):
    template = Template("d", n, ProcessorGrid("Pr", p), [spec])
    return ArrayDescriptor(name, (n, n), Alignment(template, ["*", ":"]), dtype=dtype)


def make_vm(p, tmp_path, **kwargs):
    config = RunConfig(scratch_dir=tmp_path, mode=ExecutionMode.EXECUTE)
    return VirtualMachine(p, "delta", config, **kwargs)


# ---------------------------------------------------------------------------
# transpose: uneven extents, partial slabs, every owned-set form
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "n,p,cols_per_slab,spec",
    [
        (10, 4, 2, "block"),   # local widths 3,3,3,1: partial last slab, short last rank
        (6, 4, 1, "block"),    # local widths 2,2,2,0: a rank that owns nothing
        (13, 3, 2, "block"),   # N prime: divisible by neither P nor cols_per_slab
        (10, 4, 2, "cyclic"),  # strided slices p::P
        (11, 3, 2, DimDistributionSpec("cyclic", block=2)),  # index-array fallback
    ],
    ids=["block-10-4", "block-empty-rank", "block-13-3", "cyclic", "cyclic2"],
)
def test_transpose_matches_numpy_on_uneven_extents(tmp_path, n, p, cols_per_slab, spec):
    assert n % (p * cols_per_slab)
    src, dst = column_descriptor(n, p, "a", spec), column_descriptor(n, p, "t", spec)
    a = np.random.default_rng(n * p).standard_normal((n, n)).astype(np.float32)
    with make_vm(p, tmp_path) as vm:
        result = run_transpose_plan(vm, src, dst, cols_per_slab=cols_per_slab, a_dense=a)
    assert result.verified is True
    np.testing.assert_array_equal(result.result, a.T)


# ---------------------------------------------------------------------------
# a rank worker stages only what it owns
# ---------------------------------------------------------------------------
def test_rank_worker_scatters_only_its_own_part(tmp_path, monkeypatch):
    desc = column_descriptor(10, 4, "x")
    dense = np.arange(100, dtype=np.float32).reshape(10, 10)
    requested = []
    scatter = ArrayDescriptor.scatter

    def recording_scatter(self, global_array, ranks=None):
        requested.append(None if ranks is None else tuple(ranks))
        return scatter(self, global_array, ranks)

    monkeypatch.setattr(ArrayDescriptor, "scatter", recording_scatter)
    with make_vm(4, tmp_path / "worker", rank=2) as worker:
        array = worker.create_array(desc, dense)
        assert sorted(array.locals) == [2]
        staged = array.local(2).laf.read_full()
    with make_vm(4, tmp_path / "simulated") as simulated:
        whole = simulated.create_array(desc, dense)
        np.testing.assert_array_equal(whole.local(2).laf.read_full(), staged)
    assert requested == [(2,), (0, 1, 2, 3)]
    np.testing.assert_array_equal(staged, dense[:, 6:9])


# ---------------------------------------------------------------------------
# index translation does not run per slab (or per index)
# ---------------------------------------------------------------------------
_SCALAR_TRANSLATIONS = ("local_to_global", "owner", "global_to_local")
_CONCRETE = (
    dist_module.BlockDistribution,
    dist_module.CyclicDistribution,
    dist_module.BlockCyclicDistribution,
    dist_module.ReplicatedDistribution,
)


@pytest.fixture
def translation_calls(monkeypatch):
    """Count every scalar index translation any distribution answers."""
    calls = collections.Counter()

    def counting(name, original):
        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)
        return wrapper

    for cls in _CONCRETE:
        for name in _SCALAR_TRANSLATIONS:
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    return calls


@pytest.mark.parametrize(
    "workload,version",
    [("transpose", ""), ("gaxpy", "column"), ("gaxpy", "row")],
    ids=["transpose", "gaxpy-column", "gaxpy-row"],
)
def test_translation_calls_do_not_grow_with_slabs(tmp_path, translation_calls,
                                                  workload, version):
    n = 128
    session = Session(config=RunConfig(scratch_dir=tmp_path))
    seen = {}
    for ratio in (1.0, 0.0625):
        point = WorkloadPoint(workload, n=n, nprocs=4, version=version, slab_ratio=ratio)
        compiled = session.compile(point)
        translation_calls.clear()
        record = session.run(compiled, mode="execute")
        assert record.verified is True
        seen[ratio] = (record.io_requests_per_proc, dict(translation_calls))
    (coarse_requests, coarse_calls), (fine_requests, fine_calls) = seen[1.0], seen[0.0625]
    assert fine_requests >= 8 * coarse_requests  # the slab count really grew
    assert fine_calls == coarse_calls
    # ... and there is no per-index (let alone per-index-per-slab) translation.
    assert sum(fine_calls.values()) < n
