"""The built-in workloads of the Session API.

Four kernel families register themselves here:

* ``gaxpy`` — the paper's out-of-core GAXPY matrix multiplication in its
  column-slab, row-slab and in-core versions,
* ``transpose`` — out-of-core transpose (all-to-all exchange volume),
* ``elementwise`` — out-of-core elementwise operations (no communication),
* ``hpf`` — any program entering through the mini-HPF source frontend.

Since the unified-lowering refactor every workload is a *thin IR builder*:
it implements :meth:`~repro.api.Workload.build_ir`, returning the
:class:`~repro.core.ir.ProgramIR` of the configured statement plus its slab
specification, and the shared base class lowers that through the single
``ProgramIR → strip-mine → cost model → reorganize → NodeProgram →
executor`` pipeline in both ``ESTIMATE`` and ``EXECUTE`` modes.  Every
workload reports the same :class:`~repro.api.RunRecord` schema, which is
what lets :meth:`Session.sweep` evaluate heterogeneous point lists in one
call.
"""

from __future__ import annotations

from repro.api.workload import Lowering, Workload, WorkloadPoint, register_workload
from repro.exceptions import WorkloadError
from repro.machine.parameters import MachineParameters

__all__ = [
    "GaxpyWorkload",
    "TransposeWorkload",
    "ElementwiseWorkload",
    "HpfWorkload",
]


# ---------------------------------------------------------------------------
# gaxpy
# ---------------------------------------------------------------------------
@register_workload("gaxpy")
class GaxpyWorkload(Workload):
    """The paper's GAXPY matrix multiplication.

    ``version`` selects the program: ``"column"`` (the naively compiled
    Figure 9 schedule), ``"row"`` (the reorganized Figure 12 schedule),
    ``"incore"`` (the in-core baseline), or ``""`` — the default — which
    lets the compiler's cost model choose between column and row slabs;
    the record's ``version`` then reports the chosen strategy.
    """

    versions = ("", "column", "row", "incore")
    requires_slabs = False  # checked per-version in validate()

    def validate(self, point: WorkloadPoint) -> None:
        super().validate(point)
        if point.n <= 0:
            raise WorkloadError("gaxpy points need a positive problem size n")
        if point.version != "incore" and point.slab_ratio is None and point.slab_elements is None:
            raise WorkloadError("out-of-core gaxpy points need a slab_ratio or slab_elements")

    def build_ir(self, point: WorkloadPoint, params: MachineParameters) -> Lowering:
        from repro.core.ir import build_gaxpy_ir

        force = point.version if point.version in ("column", "row") else None
        slab_elements = point.slab_elements_dict()
        ratio = point.slab_ratio if point.version != "incore" else 1.0
        return Lowering(
            ir=build_gaxpy_ir(point.n, point.nprocs, dtype=point.dtype),
            slab_ratio=ratio if slab_elements is None else None,
            slab_elements=slab_elements,
            force_strategy=force,
            baseline="incore" if point.version == "incore" else None,
        )


# ---------------------------------------------------------------------------
# transpose
# ---------------------------------------------------------------------------
@register_workload("transpose")
class TransposeWorkload(Workload):
    """Out-of-core transpose with both operands column-block distributed.

    The slab size comes from ``slab_ratio`` (fraction of the local columns
    streamed per slab) or the ``cols_per_slab`` option (default 8, used when
    neither is given); per-array ``slab_elements`` mappings do not apply to
    this single-array kernel and are rejected.
    """

    versions = ("",)

    def validate(self, point: WorkloadPoint) -> None:
        super().validate(point)
        if point.n <= 0:
            raise WorkloadError("transpose points need a positive problem size n")
        if point.slab_elements is not None:
            raise WorkloadError(
                "transpose points take slab_ratio or the cols_per_slab option, "
                "not a per-array slab_elements mapping"
            )
        if point.slab_ratio is not None and point.option("cols_per_slab") is not None:
            raise WorkloadError("give transpose points slab_ratio or cols_per_slab, not both")

    def record_version(self, compiled) -> str:
        return compiled.point.version  # always ""; no strategy choice exists

    def build_ir(self, point: WorkloadPoint, params: MachineParameters) -> Lowering:
        from repro.core.ir import build_transpose_ir

        ir = build_transpose_ir(
            point.n, point.nprocs, dtype=point.dtype, source="t_src", target="t_dst"
        )
        descriptor = ir.arrays["t_src"]
        if point.slab_ratio is not None:
            # Read the real (ceil-based block distribution) local width from
            # the descriptor; n // nprocs would under-size it for uneven n.
            local_cols = max(shape[1] for shape in descriptor.local_shapes())
            lines = max(int(local_cols * point.slab_ratio), 1)
        else:
            lines = int(point.option("cols_per_slab", 8))
        rows = max(shape[0] for shape in descriptor.local_shapes())
        slab = max(lines, 1) * max(rows, 1)
        return Lowering(ir=ir, slab_elements={"t_src": slab, "t_dst": slab})


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------
@register_workload("elementwise")
class ElementwiseWorkload(Workload):
    """Out-of-core elementwise ``c = op(a, b)`` (the no-communication class).

    ``version`` selects the slabbing strategy (``"column"`` — the default —
    or ``"row"``).  The slab size comes from ``slab_ratio`` (fraction of the
    local array per slab) or the ``slab_elements`` option (capacity in
    elements; default 4096 when neither is given); per-array
    ``slab_elements`` mappings do not apply to this single-distribution
    kernel and are rejected.  The ``op`` option picks the operation
    (``"add"``, ``"multiply"`` or ``"subtract"``; default add).
    """

    versions = ("", "column", "row")
    _OPS = ("add", "multiply", "subtract")

    def validate(self, point: WorkloadPoint) -> None:
        super().validate(point)
        if point.n <= 0:
            raise WorkloadError("elementwise points need a positive problem size n")
        if point.slab_elements is not None:
            raise WorkloadError(
                "elementwise points take slab_ratio or the slab_elements *option* "
                '(options={"slab_elements": <int>}), not a per-array mapping'
            )
        if point.slab_ratio is not None and point.option("slab_elements") is not None:
            raise WorkloadError(
                "give elementwise points slab_ratio or the slab_elements option, not both"
            )
        op = str(point.option("op", "add"))
        if op not in self._OPS:
            raise WorkloadError(
                f"unknown elementwise op {op!r} (choose from {sorted(self._OPS)})"
            )

    def build_ir(self, point: WorkloadPoint, params: MachineParameters) -> Lowering:
        from repro.core.ir import build_elementwise_ir

        ir = build_elementwise_ir(
            point.n, point.nprocs, op=str(point.option("op", "add")), dtype=point.dtype
        )
        descriptor = ir.arrays["a"]
        if point.slab_ratio is not None:
            # Size against the real (ceil-based block distribution) local
            # array; n * (n // nprocs) would under-size it for uneven n.
            local_elements = max(rows * cols for rows, cols in descriptor.local_shapes())
            slab = max(int(local_elements * point.slab_ratio), 1)
        else:
            slab = int(point.option("slab_elements", 4096))
        return Lowering(
            ir=ir,
            slab_elements={"a": slab, "b": slab, "c": slab},
            force_strategy=point.version or "column",
        )


# ---------------------------------------------------------------------------
# hpf (source frontend)
# ---------------------------------------------------------------------------
@register_workload("hpf")
class HpfWorkload(Workload):
    """Programs entering through the mini-HPF source frontend.

    The point's ``options`` must carry the program text under ``"source"``;
    the slab specification comes from ``slab_ratio`` / ``slab_elements`` (or
    a ``"memory_budget_bytes"`` option, in which case the compiler divides
    the budget itself).  ``n`` and ``nprocs`` are read from the compiled
    program, so they need not be given up front.  ``version`` may force the
    column or row strategy; the default lets the compiler choose.

    Both evaluation modes go through the unified pipeline, so any program
    the frontend accepts — including single-operand statements like
    ``c = a @ a`` — runs end-to-end in ``EXECUTE`` mode with verified
    numerics.
    """

    versions = ("", "column", "row")

    def validate(self, point: WorkloadPoint) -> None:
        super().validate(point)
        source = point.option("source")
        if not isinstance(source, str) or not source.strip():
            raise WorkloadError('hpf points need the program text in options["source"]')
        specified = sum(
            x is not None
            for x in (point.slab_ratio, point.slab_elements, point.option("memory_budget_bytes"))
        )
        if specified != 1:
            raise WorkloadError(
                "hpf points need exactly one of slab_ratio, slab_elements or "
                'options["memory_budget_bytes"]'
            )

    def build_ir(self, point: WorkloadPoint, params: MachineParameters) -> Lowering:
        from repro.hpf.frontend import frontend_to_ir
        from repro.hpf.parser import parse_program

        ir = frontend_to_ir(parse_program(str(point.option("source"))))
        budget = point.option("memory_budget_bytes")
        fusion = point.option("fusion")
        return Lowering(
            ir=ir,
            slab_ratio=point.slab_ratio,
            slab_elements=point.slab_elements_dict(),
            memory_budget_bytes=int(budget) if budget is not None else None,
            force_strategy=point.version or None,
            fusion=str(fusion) if fusion is not None else None,
        )
