"""Counter-keyed input operands: every element is drawn where it is stored.

An ``EXECUTE`` run needs reproducible values for every program input.  Here
the value of element ``(i, j)`` of input array ``X`` is a pure function of
the run's seed, ``X``'s name and ``(i, j)``: the array is cut into fixed
``_TILE x _TILE`` global tiles, and each tile is drawn by its own
``np.random.Generator(np.random.Philox(key=..., counter=...))`` whose key is
the seed and a stable hash of the name (``zlib.crc32``) and whose counter
holds the tile's indices.  No state is shared between tiles, so there is no
draw order: any selection — a rank's block, an oracle panel, the whole
array — draws only the tiles covering it and gets the same values.  Values
are uniform on ``[-1, 1)``, drawn in the array's own dtype; an array of any
other than a float dtype (an HPF ``integer`` array) holds the integers
``-8 .. 7``, from the same float64 draw.  A tile's
stream fills it column by column, and Philox can start at any counter, so
a selection narrower than a tile (a column block, a column panel) draws
only the columns it spans.

An :class:`Operand` is what :meth:`repro.api.Workload.generate_inputs`
hands the engines for each input: ``VirtualMachine.create_array`` draws
each owned rank's block in its Local Array File's storage order and writes
it straight into the file, and the oracle
(:func:`repro.runtime.executor.verify_outputs`) draws the column panels
it compares.  No dense global operand exists unless a caller asks for one with
``np.asarray(operand)``.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, Iterator, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ir import ProgramIR

__all__ = ["Operand", "input_operands"]

#: global tile edge: each ``_TILE x _TILE`` tile (clipped at the array's
#: edge) is one independent counter-keyed draw
_TILE = 256

#: one axis of a selection: a slice with a positive step, or an index array
_Axis = Union[slice, np.ndarray]


def _draw_tile(
    key: int, tile: Tuple[int, int], rows: int, cols: range, dtype: np.dtype
) -> np.ndarray:
    """Columns ``cols`` of one global tile of ``rows`` rows, uniform on ``[-1, 1)``.

    The tile's stream is column-major, so the columns are one run of it:
    the generator starts at the counter step holding the run's first value
    (one step is four 64-bit words: eight float32 or four float64 values)
    and the few values before it in that step are dropped.  ``random``
    draws float32 and float64 natively; any other dtype is drawn as float64
    and mapped to the small integers ``floor(8 v)`` on ``[-8, 8)`` — a cast
    of ``v`` itself would truncate every value to 0 — then cast by the
    caller's assignment.
    """
    native = dtype if dtype in (np.float32, np.float64) else np.dtype(np.float64)
    per_step = 32 // native.itemsize
    start, stop = cols.start * rows, cols.stop * rows
    generator = np.random.Generator(
        np.random.Philox(key=key, counter=[start // per_step, 0, *tile]))
    values = generator.random(stop - start + start % per_step, dtype=native)[start % per_step:]
    values *= 2
    values -= 1
    if native != dtype:
        values *= 8
        np.floor(values, out=values)
    return values.reshape((rows, len(cols)), order="F")


def _axis(key: object, extent: int) -> _Axis:
    """Normalise one axis of a selection: a slice, or the index array of one
    axis of an ``np.ix_`` mesh (any shape; it is flattened)."""
    if isinstance(key, slice):
        start, stop, step = key.indices(extent)
        return slice(start, max(start, stop), step) if step > 0 else np.arange(start, stop, step)
    index = np.asarray(key)
    if index.ndim == 0 or index.dtype.kind not in "iu":
        raise TypeError(
            f"an operand is indexed with slices or integer index arrays, not {key!r}"
        )
    index = index.ravel().astype(np.int64, copy=False)
    if index.size and (index.min() < 0 or index.max() >= extent):
        raise IndexError(f"index out of range for an axis of extent {extent}")
    return index


def _length(axis: _Axis) -> int:
    return len(range(axis.start, axis.stop, axis.step)) if isinstance(axis, slice) else axis.size


def _pieces(axis: _Axis) -> Iterator[Tuple[int, _Axis, _Axis]]:
    """``(tile index, output positions, positions inside the tile)`` per tile
    the selection touches — slices stay slices, index arrays stay arrays."""
    if isinstance(axis, np.ndarray):
        tiles = axis // _TILE
        for tile in np.unique(tiles).tolist():
            positions = np.flatnonzero(tiles == tile)
            yield tile, positions, axis[positions] - tile * _TILE
        return
    start, step, count = axis.start, axis.step, _length(axis)
    if count == 0:
        return
    for tile in range(start // _TILE, (start + (count - 1) * step) // _TILE + 1):
        low = tile * _TILE
        first = max(0, -(-(low - start) // step))          # first k inside the tile
        stop = min(count, -(-(low + _TILE - start) // step))  # first k past it
        if stop > first:  # a stride longer than a tile may skip one
            offset = start + first * step - low
            inside = slice(offset, offset + (stop - first - 1) * step + 1, step)
            yield tile, slice(first, stop), inside


def _span(axis: _Axis) -> Tuple[range, _Axis]:
    """The columns a tile piece spans, and the piece's positions inside them."""
    if isinstance(axis, np.ndarray):
        low = int(axis.min())
        return range(low, int(axis.max()) + 1), axis - low
    last = axis.start + (_length(axis) - 1) * axis.step
    return range(axis.start, last + 1), slice(0, last + 1 - axis.start, axis.step)


def _mesh(rows: _Axis, cols: _Axis) -> tuple:
    """Outer-product indexing: two index arrays need ``np.ix_``."""
    if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
        return np.ix_(rows, cols)
    return rows, cols


class Operand:
    """One program input, drawn on demand tile by tile.

    :meth:`select` with ``[rows, cols]`` — each a slice (any step) or an
    integer index array, combined in the ``np.ix_`` sense — returns a fresh
    array (or fills the caller's ``out``) holding exactly the selected
    elements, laid out in the order the caller asks for, and draws only the
    tiles covering them.  A tile is
    drawn column-major, so an ``'F'`` selection is filled by straight
    copies.  Indexing ``operand[rows, cols]`` is the C-ordered selection in
    the operand's dtype.  ``np.asarray(operand[, dtype])`` draws the whole
    array, cast tile by tile, so asking for float64 never holds a second
    copy in the operand's own dtype.
    """

    ndim = 2

    def __init__(self, name: str, shape: Sequence[int], dtype: np.dtype | str, seed: int):
        self.name = str(name)
        self.shape: Tuple[int, int] = tuple(int(s) for s in shape)  # type: ignore[assignment]
        if len(self.shape) != 2:
            raise ValueError(f"operand {name!r} must be two-dimensional, got shape {self.shape}")
        self.dtype = np.dtype(dtype)
        self._key = (int(seed) % (1 << 96)) << 32 | zlib.crc32(self.name.encode())

    def __getitem__(self, key: object) -> np.ndarray:
        return self.select(key)

    def __array__(self, dtype: object = None, copy: object = None) -> np.ndarray:
        if copy is False:
            raise ValueError(f"operand {self.name!r} is drawn on demand; there is no array to view")
        return self.select((slice(None), slice(None)), dtype)

    def select(
        self, key: object, dtype: object = None, order: str = "C", out: np.ndarray | None = None
    ) -> np.ndarray:
        """The elements ``key`` selects, in ``dtype`` (default: the operand's)
        and allocated in ``order`` (``'C'`` or ``'F'``) — or written into
        ``out``, of the selection's shape and in its own dtype, and returned."""
        if not (isinstance(key, tuple) and len(key) == 2):
            raise TypeError(f"operand {self.name!r} is indexed as [rows, cols], got {key!r}")
        rows, cols = (_axis(k, extent) for k, extent in zip(key, self.shape, strict=True))
        shape = (_length(rows), _length(cols))
        if out is None:
            out = np.empty(shape, dtype=self.dtype if dtype is None else dtype, order=order)
        elif out.shape != shape:
            raise ValueError(f"out has shape {out.shape}; the selection is {shape}")
        col_pieces = [(tj, out_cols, *_span(inside)) for tj, out_cols, inside in _pieces(cols)]
        for ti, out_rows, tile_rows in _pieces(rows):
            height = min(_TILE, self.shape[0] - ti * _TILE)
            for tj, out_cols, span, span_cols in col_pieces:
                tile = _draw_tile(self._key, (ti, tj), height, span, self.dtype)
                out[_mesh(out_rows, out_cols)] = tile[_mesh(tile_rows, span_cols)]
        return out


def input_operands(program: "ProgramIR", seed: int) -> Dict[str, Operand]:
    """One :class:`Operand` per program input of ``program``, by array name."""
    return {
        name: Operand(name, program.arrays[name].shape, program.arrays[name].dtype, seed)
        for name in program.input_arrays()
    }
