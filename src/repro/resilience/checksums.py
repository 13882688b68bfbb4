"""Slab-level integrity: checksums and per-LAF sidecar manifests.

Every Local Array File can carry a :class:`SlabManifest` — a mapping from
slab extents ``(row_start, row_stop, col_start, col_stop)`` to the checksum
of the data last written there.  ``write_slab``/``write_full`` record entries,
reads verify them, and the manifest persists as a small JSON sidecar next to
the ``.dat`` file (atomic write-tmp-then-rename) so a later process — e.g. a
checkpoint resume — can re-validate the bytes on disk.

The checksum is CRC32C when the host happens to ship the optional ``crc32c``
module, plain CRC-32 (:func:`zlib.crc32`) otherwise; both run at C speed so
the checksums-on overhead stays within the benchmark gate.  A manifest
records which algorithm produced it and refuses to verify entries written by
the other, rather than report false corruption; a checkpoint resume refuses
such a manifest outright.

A checksum covers a slab's elements in the file's storage order: for a slab
that is one contiguous extent of the file, exactly the bytes ``pwrite``
stored there and ``preadv`` reads back, so a sidecar can be checked against
the ``.dat`` file alone, and neither a write nor a read copies the slab to
checksum it.  Version 1 sidecars, whose checksums covered C-order bytes
whatever the file's order, are refused on load.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

try:  # pragma: no cover - exercised only on hosts with the optional wheel
    import crc32c as _crc32c_mod

    def _checksum_bytes(data: bytes) -> int:
        return _crc32c_mod.crc32c(data)

    CHECKSUM_ALGORITHM = "crc32c"
except ImportError:  # pragma: no cover - the baked-in toolchain path
    def _checksum_bytes(data: bytes) -> int:
        return zlib.crc32(data) & 0xFFFFFFFF

    CHECKSUM_ALGORITHM = "crc32"

__all__ = ["slab_checksum", "SlabManifest", "CHECKSUM_ALGORITHM"]

SlabKey = Tuple[int, int, int, int]

_MANIFEST_VERSION = 2


def slab_checksum(data: np.ndarray, order: str) -> int:
    """Checksum of ``data``'s elements in storage order ``order`` (``'F'`` or
    ``'C'``): of the bytes a Local Array File in that order holds for it."""
    # Data already laid out in ``order`` (a slab as read or about to be
    # written, or any 1-D run) feeds the C checksum routine through the
    # buffer protocol with zero copies; anything else pays one copy.
    return _checksum_bytes(np.ravel(data, order=order))


def _overlaps(a: SlabKey, b: SlabKey) -> bool:
    return a[0] < b[1] and b[0] < a[1] and a[2] < b[3] and b[2] < a[3]


class SlabManifest:
    """Checksums of the slabs last written to one Local Array File.

    Entries are keyed by slab extents.  A write *invalidates* every existing
    entry it overlaps (their recorded bytes are no longer what is on disk)
    and records the new slab; a read verifies against the exact entry when
    one exists.  Other reads are not re-verified — doing so would require
    re-reading the covering slabs and would blow the fastpath budget; full
    coverage comes from :meth:`verify_all` at statement boundaries.
    """

    def __init__(self, path: Optional[Path] = None, algorithm: str = CHECKSUM_ALGORITHM):
        self.path = Path(path) if path is not None else None
        self.algorithm = algorithm
        self.entries: Dict[SlabKey, int] = {}
        self.dirty = False

    # ------------------------------------------------------------------
    # recording and invalidation
    # ------------------------------------------------------------------
    def record(self, key: SlabKey, checksum: int) -> None:
        key = tuple(int(v) for v in key)
        stale = [k for k in self.entries if k != key and _overlaps(k, key)]
        for k in stale:
            del self.entries[k]
        self.entries[key] = int(checksum)
        self.dirty = True

    def record_full(self, shape: Tuple[int, int], checksum: int) -> None:
        """Record a whole-file write: one entry covering everything."""
        self.entries.clear()
        self.entries[(0, int(shape[0]), 0, int(shape[1]))] = int(checksum)
        self.dirty = True

    def clear(self) -> None:
        if self.entries:
            self.entries.clear()
            self.dirty = True

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def expected(self, key: SlabKey) -> Optional[int]:
        """The recorded checksum for this exact slab, if any."""
        return self.entries.get(tuple(int(v) for v in key))

    def matches(self, key: SlabKey, data: np.ndarray, order: str) -> Optional[bool]:
        """``True``/``False`` when the exact entry exists, ``None`` otherwise.

        ``data`` is the slab as a file in storage order ``order`` holds it.

        A manifest recorded under a different checksum algorithm (e.g. a
        sidecar written by a build with the ``crc32c`` package) cannot judge
        anything — every lookup is ``None`` rather than a false mismatch.
        """
        if not self.verifiable:
            return None
        expected = self.expected(key)
        if expected is None:
            return None
        return slab_checksum(data, order) == expected

    # ------------------------------------------------------------------
    # sidecar persistence (atomic, PlanCache idiom)
    # ------------------------------------------------------------------
    def save(self, path: Optional[Path] = None) -> Path:
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("SlabManifest.save needs a path")
        payload = {
            "version": _MANIFEST_VERSION,
            "algorithm": self.algorithm,
            "entries": [
                {"slab": list(key), "checksum": checksum}
                for key, checksum in sorted(self.entries.items())
            ],
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=0, sort_keys=True))
        tmp.replace(target)
        self.path = target
        self.dirty = False
        return target

    @classmethod
    def load(cls, path: Path) -> "SlabManifest":
        """Load a sidecar; raises ``ValueError`` on a malformed file."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
            if payload.get("version") != _MANIFEST_VERSION:
                raise ValueError(f"unsupported manifest version in {path}")
            manifest = cls(path, algorithm=payload.get("algorithm", CHECKSUM_ALGORITHM))
            for entry in payload["entries"]:
                slab = entry["slab"]
                if len(slab) != 4:
                    raise ValueError("slab key must have 4 extents")
                manifest.entries[tuple(int(v) for v in slab)] = int(entry["checksum"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"corrupt slab manifest {path}: {exc}") from exc
        manifest.dirty = False
        return manifest

    @property
    def verifiable(self) -> bool:
        """Whether this manifest's checksums can be checked on this host."""
        return self.algorithm == CHECKSUM_ALGORITHM

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SlabManifest({len(self.entries)} slabs, algorithm={self.algorithm!r})"
