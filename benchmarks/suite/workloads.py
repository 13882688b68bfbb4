"""The six workloads: which points or programs one pass runs, and why.

Everything a seed may change is decided here: ``RunConfig.seed`` (the dense
operands), the identifiers and order of the ``compile_sweep`` programs, and
the job order of ``served_mix``.  What a seed may *not* change is the amount
of work: the program shapes, sizes, budgets and optimizers of
``compile_sweep`` and the job multiset of ``served_mix`` are fixed, so ten
runs with ten seeds measure the same work and their spread is noise.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Tuple

from repro.api import WorkloadPoint

NPROCS = 4
SLAB_RATIO = 0.25
SCALES = ("full", "half", "tiny")

# One line each; BENCHMARK.json repeats them.
WORKLOADS: Dict[str, str] = {
    "gaxpy_col_1k": (
        "paper's naive column-slab GAXPY, N=1024 P=4: 4104 charged requests per proc, "
        "so per-slab I/O and charge accounting dominate and kernels do little"
    ),
    "gaxpy_row_1k": (
        "paper's reorganised row-slab GAXPY, same point: 24 requests per proc, so BLAS-3 "
        "and global sums dominate; an I/O-path change must not move it"
    ),
    "stream_rw_1k": (
        "transpose then elementwise at N=1024: one slab write per one or two reads plus "
        "the all-to-all, so scatter, gather and the write path dominate"
    ),
    "chain_plan_512": (
        "three-statement mini-HPF chain at N=512 under a 96 KiB budget, even split then "
        "greedy+fusion: the only path through ProgramExecutor and the planner's choice"
    ),
    "compile_sweep": (
        "ten seeded mini-HPF programs cold-compiled then ESTIMATEd in a fresh interpreter "
        "per pass: frontend, compiler, planner, verifier and charge-only loops, no files"
    ),
    "served_mix": (
        "closed loop, 2 clients against a 2-worker JobService, four ~45 ms job kinds over 4 "
        "tenants in seeded order: what the service adds on top of the same Session.run"
    ),
}

GAXPY_WORKLOADS = ("gaxpy_col_1k", "gaxpy_row_1k")

_N = {"full": 1024, "half": 512, "tiny": 128}
_CHAIN_N = {"full": 512, "half": 256, "tiny": 64}
# served_mix jobs are sized to cost about the same (~45 ms of Session.run
# each), so the latency distribution has one mode.
_SERVED_GAXPY_N = {"full": 256, "half": 128, "tiny": 64}
_SERVED_STREAM_N = {"full": 512, "half": 256, "tiny": 128}
# Node budget of the chain as a share of one local array: 96 KiB at N=512,
# where the even split charges 531 requests per proc and the planner's 340.
_CHAIN_BUDGET_SHARE = 0.375

TENANTS = 4
JOBS_PER_BLOCK = 8


@dataclasses.dataclass(frozen=True)
class Plan:
    """What one pass of a workload evaluates."""

    name: str
    kind: str  # "execute" | "sweep" | "served"
    seed: int
    scale: str
    points: Tuple[WorkloadPoint, ...]
    #: the in-core twin of a GAXPY workload (traced run only)
    incore: Optional[WorkloadPoint] = None

    @property
    def repeats(self) -> int:
        """Repetitions behind each median of the traced run."""
        return 1 if self.scale == "tiny" else 3

    def job_order(self, block: int) -> List[Tuple[int, str]]:
        """``served_mix``: the (point index, tenant) of each job of ``block``.

        Every block holds each job kind twice; the seed shuffles the tenant
        labels and the order of all but the first two jobs.  Those are the
        two of the kind that holds most memory (the last point), which the
        two clients therefore submit at the same moment: the high-water mark
        of the server's memory is then reached in every block, not only when
        a shuffle happens to align them (74.7-87.6 MB over six seeds).
        """
        rng = random.Random(self.seed * 1_000_003 + block)
        twice = JOBS_PER_BLOCK // len(self.points)
        kinds = list(range(len(self.points) - 1)) * twice
        rng.shuffle(kinds)
        kinds = [len(self.points) - 1] * twice + kinds
        return [(kind, f"tenant-{rng.randrange(TENANTS)}") for kind in kinds]


# ---------------------------------------------------------------------------
# mini-HPF program generation
# ---------------------------------------------------------------------------
_SHAPE_ARRAYS = {
    "mm_add_mul": "a b t d u e c",
    "mm_add": "a b t d c",
    "ew4": "a b t d u e v f c",
    "tr_mm_add": "a u b t d c",
}


def hpf_source(shape: str, n: int, nprocs: int, tag: str = "") -> str:
    """Source text of one program of ``shape``; ``tag`` is appended to every
    identifier, so two tags give two programs the compile caches cannot
    confuse while the compiler does identical work on both."""
    names = {base: f"{base}{tag}" for base in _SHAPE_ARRAYS[shape].split()}

    def matmul(out: str, left: str, right: str) -> List[str]:
        return [
            "  do j = 1, n",
            "    forall (k = 1 : n)",
            f"      {names[out]}(:, j) = sum({names[left]}(:, k) * {names[right]}(k, j))",
            "    end forall",
            "  end do",
        ]

    def elementwise(out: str, op: str, left: str, right: str) -> List[str]:
        return [f"  {names[out]}(:, :) = {op}({names[left]}(:, :), {names[right]}(:, :))"]

    if shape == "mm_add_mul":
        body = (matmul("t", "a", "b") + elementwise("u", "add", "t", "d")
                + elementwise("c", "multiply", "u", "e"))
    elif shape == "mm_add":
        body = matmul("t", "a", "b") + elementwise("c", "add", "t", "d")
    elif shape == "ew4":
        body = (elementwise("t", "add", "a", "b") + elementwise("u", "multiply", "t", "d")
                + elementwise("v", "subtract", "u", "e") + elementwise("c", "add", "v", "f"))
    else:
        body = ([f"  {names['u']}(:, :) = transpose({names['a']}(:, :))"]
                + matmul("t", "u", "b") + elementwise("c", "add", "t", "d"))

    lines = [
        f"program {shape}{tag}",
        f"  parameter (n = {n}, nprocs = {nprocs})",
        "  real " + ", ".join(f"{name}(n, n)" for name in names.values()),
        "!hpf$ processors Pr(nprocs)",
        "!hpf$ template tmpl(n)",
        "!hpf$ distribute tmpl(block) onto Pr",
    ]
    for base, name in names.items():
        # The coefficient of a matmul is row-block distributed (Figure 3).
        dims = "(:, *)" if base == "b" and shape != "ew4" else "(*, :)"
        lines.append(f"!hpf$ align {name}{dims} with tmpl")
    return "\n".join(lines + body + ["end program"]) + "\n"


def _local_bytes(n: int, nprocs: int) -> int:
    return n * n // nprocs * 4


def hpf_point(shape: str, n: int, nprocs: int, budget_share: float, optimize: str,
              fusion: str, tag: str = "") -> WorkloadPoint:
    # Floor: one float32 line of each of three operands for each of up to
    # four statements, so the even split is feasible at every size.
    budget = max(int(_local_bytes(n, nprocs) * budget_share), 4 * 3 * n * 4)
    options: Dict[str, object] = {
        "source": hpf_source(shape, n, nprocs, tag),
        "memory_budget_bytes": budget,
    }
    if fusion != "off":
        options["fusion"] = fusion
    return WorkloadPoint("hpf", optimize=optimize, options=options)


# shape, N, P, budget as a share of a local array, optimizer, fusion
_SWEEP: Tuple[Tuple[str, int, int, float, str, str], ...] = (
    ("mm_add_mul", 512, 4, 0.25, "greedy", "on"),
    ("mm_add_mul", 512, 8, 0.5, "beam", "off"),
    ("mm_add", 1024, 4, 0.5, "greedy", "off"),
    ("mm_add", 512, 4, 0.75, "exhaustive", "on"),
    ("ew4", 2048, 16, 0.125, "beam", "on"),
    ("ew4", 4096, 32, 0.5, "greedy", "off"),
    ("tr_mm_add", 256, 4, 0.25, "greedy", "on"),
    ("tr_mm_add", 1024, 8, 0.5, "greedy", "off"),
    ("mm_add_mul", 1024, 8, 0.75, "greedy", "on"),
    ("ew4", 1024, 4, 0.75, "exhaustive", "off"),
)


def _sweep_points(seed: int, scale: str) -> Tuple[WorkloadPoint, ...]:
    rng = random.Random(seed)
    # The smoke scale keeps one program of each shape.
    rows = list(_SWEEP[::3] if scale == "tiny" else _SWEEP)
    rng.shuffle(rows)
    points = []
    for index, (shape, n, nprocs, share, optimize, fusion) in enumerate(rows):
        if scale == "tiny":
            n, nprocs = max(n // 16, 64), min(nprocs, 8)
        # Identifiers carry the seed: no two seeds share a program text.
        tag = f"_{seed & 0xFFFFFFFF}_{index}"
        points.append(hpf_point(shape, n, nprocs, share, optimize, fusion, tag))
    return tuple(points)


# ---------------------------------------------------------------------------
def build_plan(name: str, seed: int, scale: str = "full") -> Plan:
    """The plan of workload ``name`` for ``seed`` at ``scale``."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r} (choose from {SCALES})")
    n = _N[scale]

    def gaxpy(version: str, size: int) -> WorkloadPoint:
        if version == "incore":
            return WorkloadPoint("gaxpy", n=size, nprocs=NPROCS, version="incore")
        return WorkloadPoint("gaxpy", n=size, nprocs=NPROCS, version=version,
                             slab_ratio=SLAB_RATIO)

    def stream(size: int) -> Tuple[WorkloadPoint, WorkloadPoint]:
        return (WorkloadPoint("transpose", n=size, nprocs=NPROCS, slab_ratio=SLAB_RATIO),
                WorkloadPoint("elementwise", n=size, nprocs=NPROCS, slab_ratio=SLAB_RATIO))

    if name in GAXPY_WORKLOADS:
        version = "column" if name == "gaxpy_col_1k" else "row"
        return Plan(name, "execute", seed, scale, (gaxpy(version, n),),
                    incore=gaxpy("incore", n))
    if name == "stream_rw_1k":
        return Plan(name, "execute", seed, scale, stream(n))
    if name == "chain_plan_512":
        size = _CHAIN_N[scale]
        return Plan(name, "execute", seed, scale, (
            hpf_point("mm_add_mul", size, NPROCS, _CHAIN_BUDGET_SHARE, "none", "off"),
            hpf_point("mm_add_mul", size, NPROCS, _CHAIN_BUDGET_SHARE, "greedy", "on"),
        ))
    if name == "compile_sweep":
        return Plan(name, "sweep", seed, scale, _sweep_points(seed, scale))
    if name == "served_mix":
        small = _SERVED_GAXPY_N[scale]
        return Plan(name, "served", seed, scale,
                    (gaxpy("column", small), gaxpy("row", small),
                     *stream(_SERVED_STREAM_N[scale])))
    raise ValueError(f"unknown workload {name!r} (choose from {list(WORKLOADS)})")
