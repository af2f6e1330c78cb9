"""Adapted LDBC IS/IC queries (Tables 6a/6b): oracle-checked on LBP and
on the GF-RV Volcano baseline."""
import pandas as pd
import pytest

from repro.bench.queries_ldbc import ALL_LDBC, IC_QUERIES, IS_QUERIES
from repro.oracle import assert_equivalent
from repro.util import pandas_to_spark
from repro.proc.lbp import run_lbp_df
from repro.proc.plan import to_sql
from repro.proc.volcano import run_volcano_df
from repro.storage.rv_model import RowStore


@pytest.fixture(scope="module")
def rv(ldbc):
    return RowStore(ldbc)


@pytest.mark.parametrize("spec", ALL_LDBC, ids=lambda s: s.name)
def test_ldbc_lbp_vs_oracle(spark, ldbc, ldbc_store, spec):
    got = run_lbp_df(ldbc_store, spec)
    sql = to_sql(spec)
    assert_equivalent(pandas_to_spark(spark, got), sql, **ldbc.sql_tables())


@pytest.mark.parametrize("spec", ALL_LDBC, ids=lambda s: s.name)
def test_ldbc_volcano_rv_vs_oracle(spark, ldbc, rv, spec):
    got = run_volcano_df(rv, spec)
    sql = to_sql(spec)
    assert_equivalent(pandas_to_spark(spark, got), sql, **ldbc.sql_tables())


def test_query_set_shape():
    assert len(IS_QUERIES) == 7
    assert len(IC_QUERIES) == 11  # IC10 omitted, as in the paper
    assert {q.name for q in IS_QUERIES} == {f"IS0{i}" for i in range(1, 8)}


def test_all_queries_start_from_filtered_vertex():
    # The paper's plans start at the selective node (p.id = const).
    for q in ALL_LDBC:
        if q.join_order and q.predicates:
            first = q.join_order[0]
            assert any(
                p.var == first and p.op == "=" for p in q.predicates
            ), q.name


#: Result dtypes of every LDBC query on the ``ldbc`` fixture, as the
#: engine returned them before result frames stopped copying columns.
#: IC11 and IC12 are empty there.
_DTYPES = {
    "IS01": "object object int64 object object object int64 int64",
    "IS02": "int64 object int64 int64 object object",
    "IS03": "int64 object object int64",
    "IS04": "int64 object",
    "IS05": "int64 object object",
    "IS06": "int64 object int64 object object",
    "IS07": "int64 object int64 int64 object object",
    "IC01": "int64 object int64 int64 object object object",
    "IC02": "int64 object object int64 object int64",
    "IC03": "int64 int64 int64",
    "IC04": "object",
    "IC05": "object",
    "IC06": "object",
    "IC07": "int64 object object int64 object",
    "IC08": "int64 object object int64 int64 object",
    "IC09": "int64 object object int64 object int64",
    "IC11": "float64 float64 float64 float64",
    "IC12": "float64 float64 float64",
}


@pytest.mark.parametrize("spec", ALL_LDBC, ids=lambda s: s.name)
def test_ldbc_result_dtypes(ldbc_store, spec):
    got = run_lbp_df(ldbc_store, spec)
    assert list(got.columns) == [f"{v}_{p}" for v, p in spec.returns]
    assert " ".join(map(str, got.dtypes)) == _DTYPES[spec.name]


@pytest.mark.parametrize("block_size", [1, 3])
@pytest.mark.parametrize("spec", ALL_LDBC, ids=lambda s: s.name)
def test_ldbc_result_dtypes_from_many_groups(ldbc_store, spec, block_size):
    # Small blocks hand the sink many groups, some with NULLs or
    # multiplicities and some without; it decodes each column once, to
    # the names and dtypes a single group gives.
    got = run_lbp_df(ldbc_store, spec, block_size=block_size)
    assert list(got.columns) == [f"{v}_{p}" for v, p in spec.returns]
    assert " ".join(map(str, got.dtypes)) == _DTYPES[spec.name]


@pytest.mark.parametrize("store", ["ldbc_store", "ldbc_store_uncompressed"])
def test_mutating_a_result_leaves_the_next_run_unchanged(request, store):
    # IS03's friend rows come from a knows CSR view, and without NULL
    # compression its k.date block is a slice of the property pages. The
    # frame wraps its columns without a copy: it must still own them.
    store = request.getfixturevalue(store)
    spec = next(q for q in IS_QUERIES if q.name == "IS03")
    first = run_lbp_df(store, spec)
    want = first.copy()
    assert len(first) > 0
    for col in first.columns:
        arr = first[col].to_numpy()
        arr[:] = -1 if arr.dtype != object else "x"
    assert (first["friend_id"] == -1).all()  # the write reached the frame
    pd.testing.assert_frame_equal(run_lbp_df(store, spec), want)
