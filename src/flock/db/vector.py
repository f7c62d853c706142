"""Columnar value containers.

:class:`ColumnVector` is the unit of data flow inside the engine: a typed
numpy array of physical values plus an explicit boolean null mask. All
expression evaluation and all physical operators consume and produce
ColumnVectors, which is what makes the "vectorized batch" execution regime of
the Figure 4 experiment real rather than simulated.

:class:`Batch` bundles named ColumnVectors of equal length — the engine's
analogue of a record batch.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from flock.db.types import DataType, coerce_value, python_value
from flock.errors import ExecutionError


class ColumnVector:
    """A typed column of values with an explicit null mask.

    ``values`` holds physical values (undefined where ``nulls`` is True) and
    ``nulls`` marks NULL positions. Both arrays always have the same length.
    """

    __slots__ = ("dtype", "values", "nulls")

    def __init__(self, dtype: DataType, values: np.ndarray, nulls: np.ndarray):
        if len(values) != len(nulls):
            raise ExecutionError(
                f"values ({len(values)}) and nulls ({len(nulls)}) length mismatch"
            )
        self.dtype = dtype
        self.values = values
        self.nulls = nulls

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, dtype: DataType, items: Sequence[Any]) -> "ColumnVector":
        """Build a vector from Python values, coercing each to *dtype*.

        When every non-NULL item has one of the exact Python types in
        :data:`_EXACT_TYPES` for *dtype*, numpy converts the whole column
        in one call; ``coerce_value`` would return the same values. Any
        other mix (numpy scalars, ``bool`` in INTEGER, ``date`` objects,
        ``str`` subclasses, MODEL payloads, ints out of range) takes the
        per-value loop, which stays the reference and the only place
        errors are raised.
        """
        exact = _EXACT_TYPES.get(dtype)
        if exact is not None:
            types = set(map(type, items))
            has_nulls = type(None) in types
            types.discard(type(None))
            if types <= exact:
                try:
                    return cls._from_exact(dtype, items, has_nulls)
                except OverflowError:
                    pass  # the loop below raises it at the failing value
        n = len(items)
        nulls = np.zeros(n, dtype=bool)
        storage = np.empty(n, dtype=dtype.numpy_dtype)
        if dtype.numpy_dtype != np.dtype(object):
            storage[:] = _zero_of(dtype)
        for i, item in enumerate(items):
            coerced = coerce_value(item, dtype)
            if coerced is None:
                nulls[i] = True
            else:
                storage[i] = coerced
        return cls(dtype, storage, nulls)

    @classmethod
    def _from_exact(
        cls, dtype: DataType, items: Sequence[Any], has_nulls: bool
    ) -> "ColumnVector":
        """Whole-column conversion of items of :data:`_EXACT_TYPES` only."""
        n = len(items)
        numpy_dtype = dtype.numpy_dtype
        if not has_nulls:
            return cls(dtype, np.array(items, dtype=numpy_dtype),
                       np.zeros(n, dtype=bool))
        nulls = np.fromiter((item is None for item in items), bool, n)
        if numpy_dtype == np.dtype(object):
            # NULL slots hold None, as in the reference loop.
            storage = np.array(items, dtype=object)
        else:
            zero = _zero_of(dtype)
            storage = np.array(
                [zero if item is None else item for item in items],
                dtype=numpy_dtype,
            )
        return cls(dtype, storage, nulls)

    @classmethod
    def constant(cls, dtype: DataType, value: Any, length: int) -> "ColumnVector":
        """A vector repeating one (possibly NULL) value *length* times.

        Implemented as zero-copy broadcast views: literals in expressions
        cost O(1) regardless of batch size. Consumers treat vectors as
        read-only (mutating operators copy first), so the read-only views
        are safe.
        """
        coerced = coerce_value(value, dtype)
        if coerced is None:
            values = np.broadcast_to(
                np.asarray(_zero_of(dtype), dtype=dtype.numpy_dtype), (length,)
            )
            return cls(dtype, values, np.broadcast_to(True, (length,)))
        values = np.broadcast_to(
            np.asarray(coerced, dtype=dtype.numpy_dtype), (length,)
        )
        return cls(dtype, values, np.broadcast_to(False, (length,)))

    @classmethod
    def empty(cls, dtype: DataType) -> "ColumnVector":
        return cls(
            dtype,
            np.empty(0, dtype=dtype.numpy_dtype),
            np.empty(0, dtype=bool),
        )

    @classmethod
    def from_numpy(
        cls, dtype: DataType, values: np.ndarray, nulls: np.ndarray | None = None
    ) -> "ColumnVector":
        """Wrap an existing numpy array (no copy) as a ColumnVector."""
        values = np.asarray(values, dtype=dtype.numpy_dtype)
        if nulls is None:
            nulls = np.zeros(len(values), dtype=bool)
        return cls(dtype, values, np.asarray(nulls, dtype=bool))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> Any:
        """The user-facing Python value at *index* (None when NULL)."""
        if self.nulls[index]:
            return None
        return python_value(self.values[index], self.dtype)

    def to_pylist(self) -> list[Any]:
        """All values as user-facing Python objects."""
        return [self[i] for i in range(len(self))]

    def has_nulls(self) -> bool:
        return bool(self.nulls.any())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "ColumnVector":
        """Gather rows by position."""
        return ColumnVector(self.dtype, self.values[indices], self.nulls[indices])

    def filter(self, mask: np.ndarray) -> "ColumnVector":
        """Keep rows where *mask* is True."""
        return ColumnVector(self.dtype, self.values[mask], self.nulls[mask])

    def slice(self, start: int, stop: int) -> "ColumnVector":
        return ColumnVector(self.dtype, self.values[start:stop], self.nulls[start:stop])

    def concat(self, other: "ColumnVector") -> "ColumnVector":
        if other.dtype is not self.dtype:
            raise ExecutionError(
                f"cannot concat {self.dtype} column with {other.dtype} column"
            )
        return ColumnVector(
            self.dtype,
            np.concatenate([self.values, other.values]),
            np.concatenate([self.nulls, other.nulls]),
        )

    def copy(self) -> "ColumnVector":
        return ColumnVector(self.dtype, self.values.copy(), self.nulls.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.to_pylist()[:8]
        return f"ColumnVector({self.dtype}, n={len(self)}, {preview}...)"


#: Per dtype, the exact Python types (never subclasses) that numpy converts
#: to the dtype's storage with the values :func:`coerce_value` gives. MODEL
#: has none: its payloads are opaque.
_EXACT_TYPES = {
    DataType.INTEGER: frozenset({int}),
    DataType.FLOAT: frozenset({float, int}),
    DataType.TEXT: frozenset({str}),
    DataType.BOOLEAN: frozenset({bool}),
    DataType.DATE: frozenset({int}),
}


def _zero_of(dtype: DataType) -> Any:
    """A placeholder physical value for NULL slots of *dtype*."""
    if dtype.numpy_dtype == np.dtype(object):
        return None
    if dtype is DataType.BOOLEAN:
        return False
    if dtype is DataType.FLOAT:
        return 0.0
    return 0


class Batch:
    """An ordered set of equally long named columns — one execution quantum."""

    __slots__ = ("columns", "names")

    def __init__(self, names: Sequence[str], columns: Sequence[ColumnVector]):
        if len(names) != len(columns):
            raise ExecutionError("column name/vector count mismatch")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ExecutionError(f"ragged batch: column lengths {sorted(lengths)}")
        self.names = list(names)
        self.columns = list(columns)

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> ColumnVector:
        try:
            return self.columns[self.names.index(name)]
        except ValueError:
            raise ExecutionError(f"batch has no column named {name!r}") from None

    def with_columns(
        self, names: Iterable[str], columns: Iterable[ColumnVector]
    ) -> "Batch":
        """A new batch with extra columns appended."""
        return Batch(self.names + list(names), self.columns + list(columns))

    def select(self, indices: Sequence[int]) -> "Batch":
        """Project columns by position."""
        return Batch(
            [self.names[i] for i in indices], [self.columns[i] for i in indices]
        )

    def take(self, indices: np.ndarray) -> "Batch":
        return Batch(self.names, [c.take(indices) for c in self.columns])

    def filter(self, mask: np.ndarray) -> "Batch":
        return Batch(self.names, [c.filter(mask) for c in self.columns])

    def slice(self, start: int, stop: int) -> "Batch":
        return Batch(self.names, [c.slice(start, stop) for c in self.columns])

    def concat(self, other: "Batch") -> "Batch":
        if other.names != self.names:
            raise ExecutionError("cannot concat batches with different schemas")
        return Batch(
            self.names,
            [a.concat(b) for a, b in zip(self.columns, other.columns)],
        )

    def morsels(self, morsel_rows: int) -> Iterator["Batch"]:
        """Iterate zero-copy slices of at most *morsel_rows* rows, in order.

        The unit of the morsel-driven parallel executor: each slice shares
        the underlying numpy buffers, so splitting a snapshot across worker
        threads costs O(columns) per morsel, not O(rows).
        """
        if morsel_rows < 1:
            raise ExecutionError("morsel_rows must be >= 1")
        for start in range(0, self.num_rows, morsel_rows):
            yield self.slice(start, min(start + morsel_rows, self.num_rows))

    @staticmethod
    def concat_all(batches: Sequence["Batch"]) -> "Batch":
        """Concatenate *batches* in order with one allocation per column.

        Equivalent to repeated :meth:`concat` (bitwise — concatenation only
        moves values) but linear instead of quadratic in total rows, which
        is what the parallel merge path needs.
        """
        if not batches:
            raise ExecutionError("concat_all needs at least one batch")
        first = batches[0]
        if len(batches) == 1:
            return first
        for other in batches[1:]:
            if other.names != first.names:
                raise ExecutionError(
                    "cannot concat batches with different schemas"
                )
        from flock.db.encoding import concat_encoded

        columns = []
        for i, column in enumerate(first.columns):
            chunks = [b.columns[i] for b in batches]
            # Morsel outputs are often slices of one encoded column (same
            # dictionary / frame); those merge on the encoded payload.
            encoded = concat_encoded(chunks)
            if encoded is not None:
                columns.append(encoded)
                continue
            columns.append(
                ColumnVector(
                    column.dtype,
                    np.concatenate([c.values for c in chunks]),
                    np.concatenate([c.nulls for c in chunks]),
                )
            )
        return Batch(first.names, columns)

    def rows(self) -> Iterator[tuple]:
        """Iterate user-facing Python row tuples (slow path, for results)."""
        pylists = [c.to_pylist() for c in self.columns]
        return iter(zip(*pylists)) if pylists else iter(())

    def row(self, index: int) -> tuple:
        return tuple(c[index] for c in self.columns)

    @classmethod
    def empty(cls, names: Sequence[str], dtypes: Sequence[DataType]) -> "Batch":
        return cls(list(names), [ColumnVector.empty(d) for d in dtypes])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch({self.num_rows}x{self.num_columns}: {self.names})"
