"""Unit + property tests for ColumnVector and Batch."""

import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flock.db.types import DataType, coerce_value
from flock.db.vector import Batch, ColumnVector
from flock.errors import ExecutionError


class TestColumnVector:
    def test_from_values_with_nulls(self):
        vec = ColumnVector.from_values(DataType.INTEGER, [1, None, 3])
        assert len(vec) == 3
        assert vec.to_pylist() == [1, None, 3]
        assert vec.has_nulls()

    def test_constant(self):
        vec = ColumnVector.constant(DataType.TEXT, "x", 4)
        assert vec.to_pylist() == ["x"] * 4

    def test_constant_null(self):
        vec = ColumnVector.constant(DataType.FLOAT, None, 3)
        assert vec.to_pylist() == [None] * 3

    def test_take_filter_slice(self):
        vec = ColumnVector.from_values(DataType.INTEGER, [10, 20, 30, 40])
        assert vec.take(np.array([3, 0])).to_pylist() == [40, 10]
        mask = np.array([True, False, True, False])
        assert vec.filter(mask).to_pylist() == [10, 30]
        assert vec.slice(1, 3).to_pylist() == [20, 30]

    def test_concat_type_mismatch(self):
        a = ColumnVector.from_values(DataType.INTEGER, [1])
        b = ColumnVector.from_values(DataType.TEXT, ["x"])
        with pytest.raises(ExecutionError):
            a.concat(b)

    def test_concat(self):
        a = ColumnVector.from_values(DataType.INTEGER, [1, None])
        b = ColumnVector.from_values(DataType.INTEGER, [3])
        assert a.concat(b).to_pylist() == [1, None, 3]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ExecutionError):
            ColumnVector(
                DataType.INTEGER,
                np.array([1, 2]),
                np.array([False]),
            )

    def test_date_roundtrip_via_getitem(self):
        vec = ColumnVector.from_values(DataType.DATE, ["2020-05-17", None])
        assert vec[0].isoformat() == "2020-05-17"
        assert vec[1] is None


@given(st.lists(st.one_of(st.integers(-1000, 1000), st.none()), max_size=50))
def test_vector_roundtrip_property(values):
    """from_values → to_pylist is the identity for INTEGER columns."""
    vec = ColumnVector.from_values(DataType.INTEGER, values)
    assert vec.to_pylist() == values


@given(
    st.lists(st.one_of(st.text(max_size=8), st.none()), max_size=40),
    st.data(),
)
def test_vector_filter_matches_python(values, data):
    """filter() agrees with a plain Python list comprehension."""
    vec = ColumnVector.from_values(DataType.TEXT, values)
    mask = np.array(
        data.draw(
            st.lists(
                st.booleans(), min_size=len(values), max_size=len(values)
            )
        ),
        dtype=bool,
    )
    expected = [v for v, keep in zip(values, mask) if keep]
    assert vec.filter(mask).to_pylist() == expected


class TestBatch:
    def _batch(self) -> Batch:
        return Batch(
            ["a", "b"],
            [
                ColumnVector.from_values(DataType.INTEGER, [1, 2, 3]),
                ColumnVector.from_values(DataType.TEXT, ["x", None, "z"]),
            ],
        )

    def test_shape(self):
        batch = self._batch()
        assert batch.num_rows == 3
        assert batch.num_columns == 2

    def test_ragged_rejected(self):
        with pytest.raises(ExecutionError):
            Batch(
                ["a", "b"],
                [
                    ColumnVector.from_values(DataType.INTEGER, [1]),
                    ColumnVector.from_values(DataType.INTEGER, [1, 2]),
                ],
            )

    def test_column_lookup(self):
        assert self._batch().column("b").to_pylist() == ["x", None, "z"]
        with pytest.raises(ExecutionError):
            self._batch().column("missing")

    def test_rows(self):
        assert list(self._batch().rows()) == [
            (1, "x"),
            (2, None),
            (3, "z"),
        ]

    def test_select_and_with_columns(self):
        batch = self._batch()
        projected = batch.select([1])
        assert projected.names == ["b"]
        extended = batch.with_columns(
            ["c"], [ColumnVector.from_values(DataType.INTEGER, [7, 8, 9])]
        )
        assert extended.names == ["a", "b", "c"]
        assert extended.num_rows == 3

    def test_concat_schema_mismatch(self):
        other = Batch(
            ["a"], [ColumnVector.from_values(DataType.INTEGER, [1])]
        )
        with pytest.raises(ExecutionError):
            self._batch().concat(other)

    def test_empty(self):
        batch = Batch.empty(["a"], [DataType.FLOAT])
        assert batch.num_rows == 0


# ----------------------------------------------------------------------
# from_values: the whole-column path against the per-value reference
# ----------------------------------------------------------------------
class _Text(str):
    """A str subclass: must take the per-value path and keep its type."""


def _reference_from_values(dtype: DataType, items) -> ColumnVector:
    """The per-value ``coerce_value`` loop every column build must match."""
    n = len(items)
    nulls = np.zeros(n, dtype=bool)
    storage = np.empty(n, dtype=dtype.numpy_dtype)
    if dtype.numpy_dtype != np.dtype(object):
        storage[:] = 0  # False / 0 / 0.0 placeholders under NULLs
    for i, item in enumerate(items):
        coerced = coerce_value(item, dtype)
        if coerced is None:
            nulls[i] = True
        else:
            storage[i] = coerced
    return ColumnVector(dtype, storage, nulls)


def _outcome(build, dtype, items):
    try:
        return build(dtype, items)
    except Exception as exc:  # compared by type and message
        return exc


def _assert_same_build(dtype, items):
    got = _outcome(ColumnVector.from_values, dtype, items)
    want = _outcome(_reference_from_values, dtype, items)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert not isinstance(got, Exception), got
    assert got.dtype is want.dtype
    assert got.values.dtype == want.values.dtype
    assert got.nulls.dtype == np.dtype(bool)
    assert np.array_equal(got.nulls, want.nulls)
    if want.values.dtype == np.dtype(object):
        assert [type(v) for v in got.values] == [type(v) for v in want.values]
        assert got.values.tolist() == want.values.tolist()
    else:
        # Bytes, not ==: NaN payloads and the sign of -0.0 must survive.
        assert got.values.tobytes() == want.values.tobytes()


_MIXES = {
    DataType.INTEGER: {
        "int": [3, -7, 0, 2**62, -(2**63)],
        "int+bool": [1, True, 2],
        "int+numpy": [1, np.int64(5), np.int32(-2)],
        "int+whole-float": [1, 2.0, np.float64(3.0)],
        "int+fraction": [1, 2.5],
        "overflow": [1, 2**63],
        "text": [1, "2"],
    },
    DataType.FLOAT: {
        "float": [1.5, -0.0, float("nan"), float("inf"), -float("inf")],
        "float+int": [1.5, 2, -(2**70) + 1, 0],
        "float+numpy": [np.float32(0.1), np.int64(4), 2.5],
        "int-overflow": [1.5, 10**400],
        "bool": [1.0, False],
        "text": [1.0, "x"],
    },
    DataType.TEXT: {
        "str": ["a", "", "ü", "a"],
        "str-subclass": ["a", _Text("b")],
        "int": ["a", 1],
    },
    DataType.BOOLEAN: {
        "bool": [True, False, True],
        "bool+numpy": [True, np.bool_(False)],
        "int": [True, 1],
    },
    DataType.DATE: {
        "days": [0, 18_000, -365],
        "iso": ["2020-01-02", 5],
        "date": [datetime.date(1999, 12, 31), 7],
        "numpy": [np.int64(3), 4],
        "bool": [3, True],
        "bad-iso": ["2020-13-40"],
        "overflow": [2**64],
    },
    DataType.MODEL: {
        "payloads": [{"graph": [1, 2]}, ["x"], 3.5],
    },
}

_NULLINGS = {
    "none": lambda i: False,
    "some": lambda i: i % 3 == 1,
    "all": lambda i: True,
}


@pytest.mark.parametrize("nulling", sorted(_NULLINGS))
@pytest.mark.parametrize(
    "dtype,mix",
    [(d, m) for d, mixes in _MIXES.items() for m in mixes],
    ids=[f"{d.value}-{m}" for d, mixes in _MIXES.items() for m in mixes],
)
def test_from_values_matches_per_value_reference(dtype, mix, nulling):
    values = _MIXES[dtype][mix] * 3
    is_null = _NULLINGS[nulling]
    items = [None if is_null(i) else v for i, v in enumerate(values)]
    _assert_same_build(dtype, items)
    _assert_same_build(dtype, tuple(items))  # transposed rows are tuples


def test_from_values_empty_column():
    for dtype in DataType:
        _assert_same_build(dtype, [])


@given(
    st.lists(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-(2**65), 2**65),
            st.floats(allow_nan=True, allow_infinity=True),
            st.text(max_size=4),
        ),
        max_size=30,
    ),
    st.sampled_from(list(DataType)),
)
def test_from_values_property(items, dtype):
    _assert_same_build(dtype, items)
