"""Unit tests for vertex columns (§4.1.2)."""
import numpy as np
import pandas as pd
import pytest

from repro.proc.chunk import Block
from repro.storage.vertex_column import VertexColumn

MODES = ["uncompressed", "jacobson"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dtype", ["int32", "int64", "float64"])
def test_numeric_roundtrip(mode, dtype):
    s = pd.Series([1, None, 3, 4, None], dtype="float64")
    col = VertexColumn.from_series(s, dtype, null_mode=mode)
    assert col.kind == "numeric"
    vals, nulls = col.get_many(np.arange(5))
    assert list(nulls) == [False, True, False, False, True]
    assert vals[0] == 1 and vals[2] == 3
    assert col.get_one(1) is None
    assert col.get_one(3) == 4


@pytest.mark.parametrize("mode", MODES)
def test_categorical_dict_column(mode):
    s = pd.Series(["m", "f", None, "m"])
    col = VertexColumn.from_series(s, "str", categorical=True, null_mode=mode)
    assert col.kind == "dict"
    assert set(col.dictionary) == {"m", "f"}
    codes, nulls = col.get_many(np.arange(4))
    decoded = Block(codes, nulls, col.dictionary).decoded()
    assert list(decoded) == ["m", "f", None, "m"]
    assert col.get_one(0) == "m" and col.get_one(2) is None


@pytest.mark.parametrize("mode", MODES)
def test_raw_string_column(mode):
    s = pd.Series(["alpha", None, "gamma"])
    col = VertexColumn.from_series(s, "str", null_mode=mode)
    assert col.kind == "str"
    vals, nulls = col.get_many(np.array([0, 1, 2]))
    assert list(vals) == ["alpha", None, "gamma"]
    assert list(nulls) == [False, True, False]


@pytest.mark.parametrize("zero_suppress", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_single_cardinality_edge_column(zero_suppress, mode):
    # Vertices 1 and 3 (of 6) have an edge, to 9 and 300.
    col = VertexColumn.from_offsets(
        6, np.array([1, 3]), np.array([9, 300]),
        zero_suppress=zero_suppress, null_mode=mode,
    )
    assert [col.get_one(i) for i in range(6)] == [
        None, 9, None, 300, None, None,
    ]
    if zero_suppress:
        assert col.col.values.dtype == np.uint16
    vals, nulls = col.get_many(np.arange(6))
    assert list(nulls) == [True, False, True, False, True, True]


def test_dictionary_saves_bytes_on_low_cardinality():
    s = pd.Series(["northamerica"] * 1000)
    raw = VertexColumn.from_series(s, "str")
    dct = VertexColumn.from_series(s, "str", categorical=True)
    assert dct.nbytes() < raw.nbytes()


def test_jacobson_saves_bytes_on_sparse_column():
    s = pd.Series([None] * 900 + [1.0] * 100)
    unc = VertexColumn.from_series(s, "int64", null_mode="uncompressed")
    jac = VertexColumn.from_series(s, "int64", null_mode="jacobson")
    assert jac.nbytes() < unc.nbytes()
