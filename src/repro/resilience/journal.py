"""Statement-level checkpoint journal for multi-statement programs.

The :class:`ProgramExecutor` appends one entry per *completed* statement:
which statement finished, and the finalized Local Array Files (path, shape,
dtype, storage order, sidecar manifest) that hold its results.  The journal
lives in the VM scratch directory as ``journal.json`` and every commit is
durable — written to a temp file, flushed, ``fsync``'d and atomically renamed
over the old journal (the ``PlanCache`` idiom), so a SIGKILL between
statements can never leave a half-written journal.

``Session.run(point, resume=<scratch dir>)`` replays the journal: the
program fingerprint must match (same statements, same plans, same machine
parameters — otherwise the checkpoint is silently discarded as stale), each
committed statement's LAFs are re-validated against their checksum sidecars,
and only statements past the last valid commit are re-executed.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["CheckpointJournal", "program_fingerprint"]

_JOURNAL_VERSION = 1


def program_fingerprint(compiled) -> str:
    """Stable fingerprint of a compiled whole program.

    Covers the statement list, each statement's chosen plan (strategy and
    memory allocation), every array descriptor and the machine parameters —
    anything that would make a checkpoint's LAFs unusable if it changed.
    """
    program = compiled.program
    parts: List[str] = [f"nprocs={compiled.nprocs}"]
    params = getattr(compiled, "params", None)
    if params is not None:
        parts.append(f"params={sorted(vars(params).items())!r}")
    for name in sorted(program.arrays):
        desc = program.arrays[name]
        parts.append(
            f"array={name}:{tuple(desc.shape)}:{np_dtype_name(desc.dtype)}:"
            f"ooc={getattr(desc, 'out_of_core', None)!r}"
        )
    # Walk the *executable units*: a fused unit covers two IR statements but
    # commits (and checkpoints) as one step, so the fingerprint must group
    # them the same way — fusing a pair changes the fingerprint, which
    # correctly invalidates checkpoints taken with the unfused schedule.
    for cs in compiled.statements:
        for statement_ir in cs.program.statements:
            parts.append(f"stmt={statement_ir.describe()}")
        plan = getattr(cs, "plan", None)
        if plan is not None:
            parts.append(f"plan={getattr(plan, 'strategy', None)!r}:"
                         f"{sorted(getattr(plan, 'allocation', {}).items())!r}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def np_dtype_name(dtype) -> str:
    import numpy as np

    return np.dtype(dtype).name


class CheckpointJournal:
    """Durable record of which statements of a program have completed."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.fingerprint: Optional[str] = None
        self.entries: List[Dict[str, Any]] = []
        self.complete = False

    # ------------------------------------------------------------------
    def begin(self, fingerprint: str) -> None:
        """Start (or adopt) a journal for a program with this fingerprint.

        If a journal already exists on disk for the *same* fingerprint its
        committed entries are loaded so the caller can resume; a journal for
        a different fingerprint (or a corrupt one) is discarded — stale
        checkpoints must never poison a changed program.
        """
        self.fingerprint = fingerprint
        self.entries = []
        self.complete = False
        if self.path.exists():
            try:
                payload = json.loads(self.path.read_text())
                if (payload.get("version") == _JOURNAL_VERSION
                        and payload.get("fingerprint") == fingerprint):
                    self.entries = list(payload.get("statements", []))
                    self.complete = bool(payload.get("complete", False))
                    return
            except (OSError, json.JSONDecodeError, TypeError):
                pass
            # Stale or corrupt: start fresh.
            self._write()
        else:
            self._write()

    def commit_statement(self, index: int, description: str,
                         arrays: Dict[str, Any]) -> None:
        """Durably record that statement ``index`` finished.

        ``arrays`` maps each result array name to its per-rank LAF metadata
        (``{"files": [{"rank", "path", "manifest"}...], "shape", "dtype",
        "order"}``).
        """
        self.entries.append({
            "index": int(index),
            "statement": description,
            "arrays": arrays,
        })
        self._write()

    def mark_complete(self) -> None:
        self.complete = True
        self._write()

    def truncate(self, count: int) -> None:
        """Drop entries past the first ``count`` (a failed resume validation)."""
        if count < len(self.entries):
            self.entries = self.entries[:count]
            self.complete = False
            self._write()

    def _write(self) -> None:
        payload = {
            "version": _JOURNAL_VERSION,
            "fingerprint": self.fingerprint,
            "complete": self.complete,
            "statements": self.entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(self.path)
        # Best effort: make the rename itself durable.
        try:
            dir_fd = os.open(self.path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:  # pragma: no cover - platform dependent
            pass

    @classmethod
    def peek(cls, path: Path) -> Optional[Dict[str, Any]]:
        """Read a journal's raw payload without adopting it (for inspection)."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("version") != _JOURNAL_VERSION:
            return None
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "complete" if self.complete else f"{len(self.entries)} committed"
        return f"CheckpointJournal({self.path}, {state})"
