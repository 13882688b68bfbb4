"""One definition of every configuration the oracle suites and the plan tools run.

A :class:`Scenario` is one configuration: a program (an IR builder of
:mod:`repro.core.ir`, or a mini-HPF shape rendered by :func:`hpf_source`), its
extent and processor count, element type, distribution, slab spec and forced
strategy.  The named sets below are what the tier-1 oracle tests,
``tools/check_plans.py`` (``make check-plans``) and ``tools/charged_dump.py``
(``make diff-parent``) draw from; :data:`AXES` is the one table of ranges
behind both random drivers, the hypothesis strategy :func:`hypothesis_scenarios`
and the seeded enumerator :func:`enumerate_scenarios`.

Add a scenario to a set here rather than a matrix to a test.  Only API that
the parent commit of every change also has may be called: ``make
diff-parent`` imports this module against the parent's ``src/``.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Iterator, List, Optional

from repro.core.ir import (
    ProgramIR,
    build_elementwise_ir,
    build_gaxpy_ir,
    build_pipeline_ir,
    build_transpose_ir,
)
from repro.hpf.align import Alignment
from repro.hpf.array_desc import ArrayDescriptor
from repro.hpf.frontend import frontend_to_ir
from repro.hpf.parser import parse_program
from repro.hpf.template import DimDistributionSpec, Template

BUILDERS = {
    "elementwise": build_elementwise_ir,
    "gaxpy": build_gaxpy_ir,
    "pipeline": build_pipeline_ir,
    "transpose": build_transpose_ir,
}

#: mini-HPF shapes: program name, arrays in declaration order, statements
#: ``(result, op, operands...)`` where op ``sum`` is ``result = a @ b``
SHAPES = {
    "matmul": ("gaxpy", "a b c", [("c", "sum", "a", "b")]),
    "square": ("square", "a c", [("c", "sum", "a", "a")]),
    "mm_add": ("pipeline", "a b t d c", [("t", "sum", "a", "b"), ("c", "add", "t", "d")]),
    "mm_add_mul": ("chain", "a b t d u e c", [
        ("t", "sum", "a", "b"), ("u", "add", "t", "d"), ("c", "multiply", "u", "e")]),
    "pair": ("pair", "a b t d c", [("t", "add", "a", "b"), ("c", "multiply", "t", "d")]),
    "transpose_mm": ("transpose_mm", "a u b c", [("u", "transpose", "a"), ("c", "sum", "u", "b")]),
    "add_chain": ("chain", "a t d u e c", [
        ("t", "add", "a", "d"), ("u", "multiply", "t", "e"), ("c", "add", "u", "a")]),
    # t = a @ b, then k chained elementwise statements r_i = op_i(r_{i-1}, d_i)
    "mm_chain1": ("chain", "a b t d0 r0", [("t", "sum", "a", "b"), ("r0", "add", "t", "d0")]),
    "mm_chain2": ("chain", "a b t d0 d1 r0 r1", [
        ("t", "sum", "a", "b"), ("r0", "add", "t", "d0"), ("r1", "multiply", "r0", "d1")]),
    "mm_chain3": ("chain", "a b t d0 d1 d2 r0 r1 r2", [
        ("t", "sum", "a", "b"), ("r0", "add", "t", "d0"), ("r1", "multiply", "r0", "d1"),
        ("r2", "subtract", "r1", "d2")]),
}


#: the mini-HPF type of each element type a mini-HPF scenario may declare
HPF_TYPES = {"float32": "real", "float64": "double", "int32": "integer"}


def hpf_source(shape: str, n: int, nprocs: int, *, dist: str = "block",
               dtype: str = "float32") -> str:
    """The mini-HPF text of ``shape`` at ``n`` x ``n`` over ``nprocs`` processors.

    Every array has the type of ``dtype`` (``real`` by default) and is
    aligned column-wise with one template, except a reduction's second
    operand, which is aligned row-wise.
    """
    name, arrays, statements = SHAPES[shape]
    rows = {ops[1] for _, op, *ops in statements if op == "sum" and ops[1] != ops[0]}
    arrays = arrays.split()
    aligns = [f"!hpf$ align {a}(*, :) with tmpl" for a in arrays if a not in rows]
    aligns += [f"!hpf$ align {a}(:, *) with tmpl" for a in arrays if a in rows]
    body = []
    for result, op, *operands in statements:
        if op == "sum":
            a, b = operands
            body.append(f"  do j = 1, n\n    forall (k = 1 : n)\n"
                        f"      {result}(:, j) = sum({a}(:, k) * {b}(k, j))\n"
                        "    end forall\n  end do")
        else:
            args = ", ".join(f"{x}(:, :)" for x in operands)
            body.append(f"  {result}(:, :) = {op}({args})")
    return "\n".join([
        f"program {name}",
        f"  parameter (n = {n}, nprocs = {nprocs})",
        f"  {HPF_TYPES[dtype]} " + ", ".join(f"{a}(n, n)" for a in arrays),
        "!hpf$ processors Pr(nprocs)",
        "!hpf$ template tmpl(n)",
        f"!hpf$ distribute tmpl({dist}) onto Pr",
        *aligns,
        *body,
        "end program",
    ]) + "\n"


def distribute(ir: ProgramIR, dist: str) -> ProgramIR:
    """``ir`` with its template distributed ``block``, ``cyclic`` or ``cyclic(k)``.

    Builds the descriptors directly: ``cyclic(k)`` has no frontend syntax.
    """
    kind, _, block = dist.partition("(")
    spec = DimDistributionSpec(kind, int(block[:-1]) if block else None)
    template = next(iter(ir.arrays.values())).template
    template = Template(template.name, template.shape, template.grid, [spec])
    arrays = {
        name: ArrayDescriptor(name, desc.shape, Alignment(template, desc.alignment.specs),
                              dtype=desc.dtype, out_of_core=desc.out_of_core)
        for name, desc in ir.arrays.items()
    }
    return ProgramIR(ir.name, arrays, statements=ir.statements, loop_nests=ir.loop_nests)


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One configuration: a program, its distribution and its slab spec."""

    shape: str  # a key of BUILDERS or of SHAPES
    n: int
    nprocs: int
    dtype: str = "float32"
    dist: str = "block"  # "block", "cyclic" or "cyclic(k)"
    ratio: Optional[float] = None
    budget: Optional[int] = None  # memory_budget_bytes, searched by ``optimizer``
    optimizer: Optional[str] = None
    fusion: Optional[str] = None
    strategy: Optional[str] = None  # forced slab strategy ("incore": the in-core version)
    op: Optional[str] = None  # the elementwise builder's operation
    label: str = dataclasses.field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.label:
            parts = [self.shape, f"n={self.n}", f"P={self.nprocs}"]
            parts += [value for value in (self.op, self.dist) if value not in (None, "block")]
            if self.dtype != "float32":
                parts.append(self.dtype)
            if self.budget is None:
                parts.append(f"r={self.ratio}")
            else:
                parts.append(f"b={self.budget} {self.optimizer} fusion={self.fusion}")
            if self.strategy:
                parts.append(f"s={self.strategy}")
            object.__setattr__(self, "label", " ".join(parts))

    def __str__(self) -> str:  # the test id of a parametrized scenario
        return self.label

    def source(self) -> str:
        return hpf_source(self.shape, self.n, self.nprocs, dist=self.dist, dtype=self.dtype)

    def ir(self) -> ProgramIR:
        native = "(" not in self.dist  # CYCLIC(k) has no frontend syntax
        if self.shape in BUILDERS:
            extra = {"op": self.op} if self.op else {}
            ir = BUILDERS[self.shape](self.n, self.nprocs, dtype=self.dtype, **extra)
            native = self.dist == "block"
        else:
            dist = self.dist if native else "block"
            ir = frontend_to_ir(parse_program(
                hpf_source(self.shape, self.n, self.nprocs, dist=dist, dtype=self.dtype)))
        return ir if native else distribute(ir, self.dist)

    def slabbing(self) -> dict:
        """The slab-spec keywords of ``compile_program``."""
        if self.budget is None:
            return {"slab_ratio": self.ratio, "force_strategy": self.strategy}
        spec = {"memory_budget_bytes": self.budget, "optimizer": self.optimizer}
        return spec if self.fusion is None else {**spec, "fusion": self.fusion}

    def compile(self):
        from repro.core.pipeline import compile_program

        return compile_program(self.ir(), **self.slabbing())

    def point(self):
        """The :class:`~repro.api.WorkloadPoint` of this scenario."""
        from repro.api import WorkloadPoint

        if self.shape in BUILDERS:
            options = {"op": self.op} if self.op else {}
            return WorkloadPoint(self.shape, n=self.n, nprocs=self.nprocs,
                                 version=self.strategy or "", slab_ratio=self.ratio,
                                 dtype=self.dtype, options=options)
        options = {"source": self.source()}
        if self.budget is not None:
            options["memory_budget_bytes"] = self.budget
        if self.fusion is not None:
            options["fusion"] = self.fusion
        return WorkloadPoint("hpf", slab_ratio=self.ratio, options=options,
                             optimize=self.optimizer)


def grid(label: str = "", **axes) -> List[Scenario]:
    """Every combination of the tuple-valued axes (other values are fixed).

    ``label`` is a format string over the axes (a test id); without one each
    scenario labels itself from its fields.
    """
    names = list(axes)
    values = [value if isinstance(value, tuple) else (value,) for value in axes.values()]
    out = []
    for combo in itertools.product(*values):
        fields = dict(zip(names, combo, strict=True))
        out.append(Scenario(**fields, label=label.format(**fields)))
    return out


# ---------------------------------------------------------------------------
# the random drivers: one table of axes, two ways to draw from it
# ---------------------------------------------------------------------------
#: IR builder, extent range, processor counts, slab-ratio range
AXES = {"shape": tuple(sorted(BUILDERS)), "n": (8, 48), "nprocs": (1, 2, 4), "ratio": (0.1, 0.9)}


def enumerate_scenarios(count: int, seed: int, *, executable: bool = False) -> Iterator[Scenario]:
    """``count`` seeded draws from :data:`AXES`.

    ``executable`` rounds ``n`` down to a multiple of ``nprocs``: the
    executable kernels need identical local shapes on every processor.
    """
    rng = random.Random(seed)
    for index in range(count):
        shape = rng.choice(AXES["shape"])
        n = rng.randrange(AXES["n"][0], AXES["n"][1] + 1)
        nprocs = rng.choice(AXES["nprocs"])
        ratio = rng.uniform(*AXES["ratio"])
        if executable:
            n -= n % nprocs
        yield Scenario(shape, n, nprocs, ratio=ratio,
                       label=f"fuzz#{index} {shape} n={n} P={nprocs} r={ratio:.3f}")


def hypothesis_scenarios():
    """The hypothesis strategy over :data:`AXES`."""
    from hypothesis import strategies as st

    return st.builds(
        Scenario,
        shape=st.sampled_from(AXES["shape"]),
        n=st.integers(*AXES["n"]),
        nprocs=st.sampled_from(AXES["nprocs"]),
        ratio=st.floats(*AXES["ratio"]),
    )


# ---------------------------------------------------------------------------
# the named sets
# ---------------------------------------------------------------------------
STRATEGIES = (None, "column", "row")

#: P | N, every statement kind, under CYCLIC and CYCLIC(2)
CYCLIC = (grid(shape="gaxpy", strategy=("column", "row"), n=24, nprocs=4,
               dist=("cyclic", "cyclic(2)"), ratio=0.3)
          + grid(shape=("elementwise", "transpose", "pipeline", "mm_add_mul"), n=24, nprocs=4,
                 dist=("cyclic", "cyclic(2)"), ratio=0.3))

#: tests/test_differential.py: the NumPy oracle, one group per test (labels
#: are the test ids)
ORACLE = {
    "gaxpy": grid("{strategy}-{nprocs}", shape="gaxpy", n=16, strategy=("column", "row"),
                  nprocs=(1, 4), ratio=0.5),
    "gaxpy-choice": grid("{nprocs}", shape="gaxpy", n=16, nprocs=(1, 4), ratio=0.25),
    "gaxpy-dtype": grid("{dtype}", shape="gaxpy", n=16, nprocs=4, dtype=("float32", "float64"),
                        ratio=0.5, strategy="row"),
    "elementwise": grid("{op}-{strategy}-{nprocs}", shape="elementwise", n=16,
                        op=("add", "multiply", "subtract"), strategy=("column", "row"),
                        nprocs=(1, 4), ratio=0.3),
    "transpose": grid("{nprocs}", shape="transpose", n=16, nprocs=(1, 4), ratio=0.5),
    "pipeline": grid("{dtype}-{nprocs}", shape="pipeline", n=16, dtype=("float32", "float64"),
                     nprocs=(1, 4), ratio=0.25),
    "pipeline-strategy": grid("{strategy}", shape="pipeline", n=16, nprocs=4,
                              strategy=("column", "row"), ratio=0.25),
    "cyclic": CYCLIC,
    # HPF ``integer`` arrays: a GAXPY and a two-statement elementwise program
    "integer": [Scenario("matmul", 32, 4, dtype="int32", ratio=0.5, label="gaxpy"),
                Scenario("pair", 32, 4, dtype="int32", ratio=0.5, label="pair")],
}

#: tests/test_check_differential.py: ledger == PlanCost (== the executed
#: counters for "executed"), one group per test (labels are the test ids)
CHECKED = {
    "single": grid("{shape}-{strategy}-{nprocs}-{n}", shape=("gaxpy", "elementwise"),
                   strategy=STRATEGIES, nprocs=(1, 4), n=(16, 23), ratio=0.3),
    "transpose": grid("{nprocs}-{n}", shape="transpose", nprocs=(1, 4), n=(16, 23), ratio=0.5),
    "program": grid("{ratio}-{nprocs}-{n}", shape="pipeline", ratio=(0.5, 0.17),
                    nprocs=(1, 4), n=(16, 23)),
    "square": grid("{strategy}-{ratio}", shape="square", n=16, nprocs=4, strategy=STRATEGIES,
                   ratio=(0.5, 0.25)),
    "executed": [
        Scenario("gaxpy", 24, 4, ratio=0.3, strategy="column", label="gaxpy-24-4-kwargs0-True"),
        Scenario("gaxpy", 24, 4, ratio=0.3, strategy="row", label="gaxpy-24-4-kwargs1-False"),
        Scenario("gaxpy", 16, 1, ratio=0.3, label="gaxpy-16-1-kwargs2-True"),
        Scenario("elementwise", 24, 4, ratio=0.3, label="elementwise-24-4-kwargs3-True"),
        Scenario("transpose", 24, 4, ratio=0.3, label="transpose-24-4-kwargs4-True"),
        Scenario("pipeline", 24, 4, ratio=0.3, label="pipeline-24-4-kwargs5-False"),
    ] + CYCLIC,
}

#: make check-plans: ledger == PlanCost == price on every plan (statically)
STATIC = (grid(shape=("gaxpy", "elementwise"), n=(16, 23, 24), nprocs=(1, 4),
               ratio=(0.5, 0.3, 0.17), strategy=STRATEGIES)
          + grid(shape="transpose", n=(16, 23, 24), nprocs=(1, 4), ratio=0.5)
          + grid(shape="pipeline", n=(16, 23, 24), nprocs=(1, 4), ratio=(0.5, 0.25))
          + grid(shape=("square", "mm_add", "mm_add_mul"), n=16, nprocs=4,
                 ratio=(0.5, 0.25), strategy=STRATEGIES)
          + grid(shape=AXES["shape"], n=23, nprocs=4, dist=("cyclic", "cyclic(2)"), ratio=0.3))

#: make check-plans: ... and == the executed machine counters (P | N)
EXECUTED = (grid(shape=("gaxpy", "elementwise", "transpose"), n=24, nprocs=(1, 4),
                 ratio=(0.5, 0.3))
            + [Scenario("gaxpy", 24, 4, ratio=0.3, strategy="row")]
            + grid(shape="pipeline", n=24, nprocs=(1, 4), ratio=0.3)
            + grid(shape=("mm_add", "mm_add_mul"), n=16, nprocs=4, ratio=0.5)
            + CYCLIC)

#: make check-plans: fusion rides on the plan optimizer (memory budgets).  The
#: three-statement chain has one legal edge (u into c); mm_add and the
#: pipeline IR have none and must degrade to unfused plans.
FUSED = (grid(shape=("mm_add", "mm_add_mul"), n=16, nprocs=4, budget=(8 * 1024, 16 * 1024),
              optimizer="greedy", fusion=("auto", "on"))
         + [Scenario("pipeline", 24, 4, budget=16 * 1024, optimizer="greedy", fusion="on")])

#: tests/test_column_blocks.py's reduction-engine points
ENGINE = [
    Scenario("matmul", 24, 4, ratio=0.7, label="block-24"),  # N % (P * 4) != 0
    Scenario("matmul", 40, 4, ratio=0.45, label="block-40-partial"),  # partial slabs
    Scenario("matmul", 24, 4, dist="cyclic", ratio=0.5, label="cyclic"),  # owner per column
    Scenario("matmul", 24, 4, dist="cyclic(2)", ratio=0.5, label="cyclic2"),  # owner per pair
]

#: configurations refused in some mode, each pinned with its error in tier-1
REFUSED = (grid(shape=("matmul", "mm_add"), n=23, nprocs=4, dist=("block", "cyclic"), ratio=0.5)
           + [Scenario("matmul", 24, 4, dist="cyclic(2)", ratio=0.5)])

#: tests/test_planner.py: the planner's no-worse guarantee under one budget
PLANNED = [
    Scenario("gaxpy", 16, 1, label="gaxpy-p1"),
    Scenario("gaxpy", 16, 4, label="gaxpy-p4"),
    Scenario("gaxpy", 16, 4, dtype="float64", label="gaxpy-f64"),
    Scenario("elementwise", 16, 4, op="add", label="elementwise-add"),
    Scenario("elementwise", 16, 1, op="multiply", label="elementwise-mul"),
    Scenario("transpose", 16, 4, label="transpose"),
    Scenario("pipeline", 16, 1, label="pipeline-p1"),
    Scenario("pipeline", 16, 4, label="pipeline-p4"),
    Scenario("pipeline", 16, 4, dtype="float64", label="pipeline-f64"),
    Scenario("mm_add_mul", 16, 4, label="three-statement-chain"),
]

#: tests/test_distributed.py: records bit-identical on both back ends
PARITY = [
    Scenario("gaxpy", 64, 4, ratio=0.25, strategy="column", label="gaxpy-column-f32-p4"),
    Scenario("gaxpy", 64, 4, dtype="float64", ratio=0.25, strategy="row",
             label="gaxpy-row-f64-p4"),
    Scenario("gaxpy", 64, 1, ratio=0.25, strategy="column", label="gaxpy-column-f32-p1"),
    Scenario("gaxpy", 32, 4, strategy="incore", label="gaxpy-incore-p4"),
    Scenario("transpose", 64, 4, ratio=0.25, label="transpose-p4"),
    Scenario("elementwise", 64, 4, dtype="float64", ratio=0.25, label="elementwise-f64-p4"),
    Scenario("mm_add", 64, 4, ratio=0.25, label="hpf-two-statement-p4"),
    Scenario("pair", 16, 4, ratio=0.25, fusion="on", label="hpf-fused-p4"),
]
