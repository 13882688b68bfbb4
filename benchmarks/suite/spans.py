"""The benchmark's own span recorder.

A span is ``{id, name, parent, op, start, end}``: ``parent`` is the id of the
span that was open on the same thread when this one started (``None`` at the
top), ``op`` an operation id shared by every span of one pass or job.  Spans
stay in memory and are written out once, at exit.  A layer's *self time* is
its span's duration minus the part its child spans cover.

:func:`instrument` opens spans at the layer boundaries by wrapping the
public callables listed in :data:`BOUNDARIES` for the duration of a ``with``
block and restoring them afterwards, so the program under ``src/`` is never
edited and the untraced run never sees a wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# module, class (None for a module-level function), attribute, span name
BOUNDARIES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.api.session", "Session", "compile", "api.compile"),
    ("repro.api.session", "Session", "run", "api.run"),
    ("repro.api.workload", "Workload", "generate_inputs", "api.generate_inputs"),
    ("repro.hpf.parser", None, "parse_program", "hpf.parse"),
    ("repro.hpf.frontend", None, "frontend_to_ir", "hpf.lower"),
    ("repro.core.pipeline", None, "compile_program", "core.compile"),
    ("repro.core.pipeline", None, "generate_program_schedule", "core.schedule"),
    ("repro.planner.search", None, "plan_whole_program", "planner.search"),
    ("repro.check", None, "check_compiled", "check.verify"),
    ("repro.runtime.vm", "VirtualMachine", "__init__", "runtime.vm_init"),
    ("repro.runtime.vm", "VirtualMachine", "create_array", "runtime.create_array"),
    ("repro.runtime.vm", "VirtualMachine", "to_dense", "runtime.to_dense"),
    ("repro.runtime.vm", "VirtualMachine", "cleanup", "runtime.cleanup"),
    ("repro.runtime.executor", "ProgramExecutor", "run", "runtime.execute"),
    ("repro.runtime.executor", "NodeProgramExecutor", "run", "runtime.execute"),
    ("repro.runtime.executor", None, "run_reduction_incore", "runtime.execute"),
    ("repro.runtime.executor", None, "reduction_reference", "runtime.verify_reference"),
    ("repro.runtime.executor", None, "program_reference", "runtime.verify_reference"),
)


class Recorder:
    """Collects spans; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if op is None and parent is not None:
                op = self.spans[parent]["op"]
            record = {"id": len(self.spans), "name": name, "parent": parent,
                      "op": op, "start": 0.0, "end": 0.0}
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, function, name: str):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced


@contextlib.contextmanager
def instrument(recorder: Recorder,
               boundaries: Sequence[Tuple[str, Optional[str], str, str]] = BOUNDARIES,
               ) -> Iterator[Recorder]:
    """Wrap every boundary callable with a span for the ``with`` block."""
    patched = []
    try:
        for module_name, class_name, attribute, span_name in boundaries:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attribute)
            setattr(owner, attribute, recorder.wrap(original, span_name))
            patched.append((owner, attribute, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# reading spans
# ---------------------------------------------------------------------------
def duration(span: Dict[str, object]) -> float:
    return float(span["end"]) - float(span["start"])


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {int(span["id"]): duration(span) for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[int(span["parent"])] -= duration(span)
    return own


def self_time_by_name(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[str(span["name"])] = totals.get(str(span["name"]), 0.0) + own[int(span["id"])]
    return totals


def total(spans: Sequence[Dict[str, object]], name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(duration(span) for span in spans if span["name"] == name)


def outermost_total(spans: Sequence[Dict[str, object]], name: str) -> float:
    """Summed duration of the spans called ``name`` that have no ancestor of
    the same name (a whole-program executor nests one span per statement)."""
    by_id = {int(span["id"]): span for span in spans}
    seconds = 0.0
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        while parent is not None and by_id[int(parent)]["name"] != name:
            parent = by_id[int(parent)]["parent"]
        if parent is None:
            seconds += duration(span)
    return seconds


def write_trace(path: Path, payload: Dict[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
