"""Analytic formulas and report formatting.

* :mod:`repro.analysis.io_cost` — the closed-form I/O cost formulas of the
  paper (equations 3–6) for cross-checking the compiler's cost model.
* :mod:`repro.analysis.report` — plain-text table formatting used by the
  experiment harness and the examples.
"""

from repro.analysis.io_cost import (
    column_slab_fetch_requests,
    column_slab_fetch_elements,
    row_slab_fetch_requests,
    row_slab_fetch_elements,
    paper_io_costs,
)
from repro.analysis.report import format_table, format_time

__all__ = [
    "column_slab_fetch_requests",
    "column_slab_fetch_elements",
    "row_slab_fetch_requests",
    "row_slab_fetch_elements",
    "paper_io_costs",
    "format_table",
    "format_time",
]
