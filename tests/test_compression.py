"""Unit tests for fixed-length compression codes (§5.1)."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.compression import dictionary_encode, min_uint_dtype, suppress
from repro.storage.vertex_column import VertexColumn


@pytest.mark.parametrize(
    "value,expected",
    [
        (0, np.uint8), (1, np.uint8), (255, np.uint8),
        (256, np.uint16), (65_535, np.uint16),
        (65_536, np.uint32), (2**32 - 1, np.uint32),
        (2**32, np.uint64), (2**63, np.uint64),
    ],
)
def test_min_uint_dtype_boundaries(value, expected):
    assert min_uint_dtype(value) == np.dtype(expected)


def test_min_uint_dtype_negative_rejected():
    with pytest.raises(ValueError):
        min_uint_dtype(-1)


def test_min_uint_dtype_overflow_rejected():
    with pytest.raises(ValueError):
        min_uint_dtype(2**64)


@pytest.mark.parametrize("mx", [0, 200, 60_000, 70_000, 2**33])
def test_suppress_preserves_values(mx):
    arr = np.array([0, mx // 2, mx], dtype=np.int64)
    out = suppress(arr)
    assert (out.astype(np.int64) == arr).all()
    assert out.dtype == min_uint_dtype(mx)


def test_suppress_empty():
    out = suppress(np.array([], dtype=np.int64))
    assert out.dtype == np.uint8 and len(out) == 0


def test_suppress_shrinks_bytes():
    arr = np.arange(100, dtype=np.int64)
    assert suppress(arr).nbytes == 100  # uint8
    assert arr.nbytes == 800


def _decode(codes, dictionary, mask):
    return [dictionary[c] if ok else None for c, ok in zip(codes, mask)]


def _mask(col):
    return np.array([v is not None for v in col], dtype=bool)


class TestDictionaryColumn:
    def test_roundtrip(self):
        col = np.array(["b", "a", "b", "c", "a"], dtype=object)
        codes, dictionary = dictionary_encode(col, _mask(col))
        assert _decode(codes, dictionary, _mask(col)) == list(col)
        assert list(dictionary) == ["a", "b", "c"]  # sorted

    def test_nulls_take_code_zero(self):
        col = np.array(["x", None, "y", None], dtype=object)
        codes, dictionary = dictionary_encode(col, _mask(col))
        assert list(codes) == [0, 0, 1, 0]
        assert list(dictionary) == ["x", "y"]  # no NULL entry

    def test_codes_are_fixed_width_and_small(self):
        col = np.array([f"v{i % 3}" for i in range(1000)], dtype=object)
        codes, _ = dictionary_encode(col, _mask(col))
        assert codes.dtype == np.uint8  # 3 values -> 1 byte codes

    def test_code_width_grows_with_cardinality(self):
        col = np.array([f"v{i}" for i in range(300)], dtype=object)
        codes, _ = dictionary_encode(col, _mask(col))
        assert codes.dtype == np.uint16

    def test_nbytes_counts_codes_and_dictionary(self):
        col = VertexColumn.from_series(
            pd.Series(["aa", "bb", "aa"]), "str", categorical=True
        )
        # 3 one-byte codes, 1 byte of validity bits, "aa"+"bb" payload.
        assert col.nbytes() == 3 * 1 + 1 + 4


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "dd", None]), max_size=200))
def test_dictionary_roundtrip_hypothesis(values):
    col = np.array(values, dtype=object)
    codes, dictionary = dictionary_encode(col, _mask(col))
    assert _decode(codes, dictionary, _mask(col)) == values
    assert list(dictionary) == sorted(set(values) - {None})
