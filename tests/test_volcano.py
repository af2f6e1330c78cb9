"""Volcano baselines: all three storage adapters agree with LBP and the
DuckDB oracle."""
import pytest

from repro.oracle import assert_equivalent
from repro.util import pandas_to_spark
from repro.proc.lbp import run_lbp_df
from repro.proc.plan import to_sql
from repro.proc.volcano import ColumnarAdapter, run_volcano, run_volcano_df
from repro.storage.rv_model import LinkedStore, RowStore

from tests.test_lbp_queries import MICRO


@pytest.fixture(scope="module")
def adapters(ldbc, ldbc_store):
    return {
        "GF-CV": ColumnarAdapter(ldbc_store),
        "GF-RV": RowStore(ldbc),
        "NEO4J-SIM": LinkedStore(ldbc),
    }


@pytest.mark.parametrize("spec", MICRO[:12], ids=lambda s: s.name)
@pytest.mark.parametrize("adapter_name", ["GF-CV", "GF-RV", "NEO4J-SIM"])
def test_volcano_vs_oracle(spark, ldbc, adapters, adapter_name, spec):
    got = run_volcano_df(adapters[adapter_name], spec)
    sql = to_sql(spec)
    assert_equivalent(pandas_to_spark(spark, got), sql, **ldbc.sql_tables())


@pytest.mark.parametrize("spec", MICRO[12:], ids=lambda s: s.name)
def test_volcano_columnar_matches_lbp(ldbc, ldbc_store, adapters, spec):
    got = run_volcano(adapters["GF-CV"], spec)
    from repro.proc.lbp import run_lbp

    ref = run_lbp(ldbc_store, spec)
    if hasattr(got, "columns"):
        a = got.astype(str).sort_values(list(got.columns)).reset_index(drop=True)
        b = ref.astype(str).sort_values(list(ref.columns)).reset_index(drop=True)
        assert a.equals(b)
    else:
        assert got == ref


def test_scan_range_restriction(ldbc, adapters):
    spec = MICRO[0]
    full = run_volcano(adapters["GF-RV"], spec)
    parts = sum(
        run_volcano(adapters["GF-RV"], spec, scan_range=(lo, lo + 10))
        for lo in range(0, ldbc.n_vertices("Person"), 10)
    )
    assert parts == full


def test_columnar_adapter_eprop_refs(ldbc, ldbc_store):
    """adj_iter must hand back erefs that resolve the right property."""
    ad = ColumnarAdapter(ldbc_store)
    et = ldbc.etables["knows"]
    v = int(et["src"].iloc[0])
    expected = sorted(et[et.src == v]["date"].tolist())
    got = sorted(
        ad.eprop("knows", eref, "date") for _, eref in ad.adj_iter("knows", v, "fwd")
    )
    assert got == expected
    # Backward direction resolves through (neighbour, slot).
    w = int(et["dst"].iloc[0])
    expected_b = sorted(et[et.dst == w]["date"].tolist())
    got_b = sorted(
        ad.eprop("knows", eref, "date") for _, eref in ad.adj_iter("knows", w, "bwd")
    )
    assert got_b == expected_b
