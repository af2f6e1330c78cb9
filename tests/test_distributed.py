"""Spark-distributed LBP: scan-partitioned execution over a broadcast
store matches the oracle."""
import pytest

from repro.oracle import assert_equivalent
from repro.proc.distributed import run_distributed, run_distributed_df, scan_ranges
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec, to_sql


class TestScanRanges:
    def test_covers_everything(self):
        parts = scan_ranges(100, 7)
        assert parts[0][0] == 0 and parts[-1][1] == 100
        total = sum(hi - lo for lo, hi in parts)
        assert total == 100

    def test_more_parts_than_items(self):
        parts = scan_ranges(3, 16)
        assert len(parts) == 3

    def test_single_part(self):
        assert scan_ranges(10, 1) == [(0, 10)]

    def test_empty_range_has_no_parts(self):
        assert scan_ranges(0, 4) == []
        assert scan_ranges(5, 4, lo=5) == []

    def test_splits_from_lo(self):
        parts = scan_ranges(10, 3, lo=4)
        assert parts == [(4, 6), (6, 8), (8, 10)]
        assert scan_ranges(5, 8, lo=3) == [(3, 4), (4, 5)]


def test_distributed_count(spark, ldbc, ldbc_store):
    spec = QuerySpec(
        "dist_count", {"a": "Person", "b": "Person", "c": "Person"},
        [E("a", "b", "knows", "e1"), E("b", "c", "knows")],
        [Pr("e1", "date", ">", 1_350_000_000)], "count",
    )
    got = run_distributed(spark, ldbc_store, spec, n_parts=8)
    df = run_distributed_df(spark, ldbc_store, spec, n_parts=8)
    sql = to_sql(spec, ldbc.schema)
    assert_equivalent(df, sql, **ldbc.sql_tables())
    assert got == df.collect()[0]["cnt"]


def test_distributed_projection(spark, ldbc, ldbc_store):
    spec = QuerySpec(
        "dist_proj", {"c": "Comment", "p": "Person"},
        [E("c", "p", "hasCreator")],
        [Pr("p", "birthday", ">", 15_000)],
        [("c", "id"), ("p", "fName")],
        ["c", "p"],
    )
    df = run_distributed(spark, ldbc_store, spec, n_parts=4)
    sql = to_sql(spec, ldbc.schema)
    assert_equivalent(df, sql, **ldbc.sql_tables())


def test_distributed_empty_projection(spark, ldbc, ldbc_store):
    spec = QuerySpec(
        "dist_empty", {"a": "Person", "b": "Person"},
        [E("a", "b", "knows")], [Pr("a", "id", "=", -5)],
        [("b", "id")],
    )
    df = run_distributed(spark, ldbc_store, spec, n_parts=4)
    assert df.count() == 0
    assert df.columns == ["b_id"]


def test_distributed_matches_local(spark, ldbc, ldbc_store):
    from repro.proc.lbp import run_lbp

    spec = QuerySpec(
        "dist_vs_local", {"p": "Person", "o": "Org"},
        [E("p", "o", "workAt", "w")], [Pr("w", "year", ">=", 2000)], "count",
    )
    assert run_distributed(spark, ldbc_store, spec, n_parts=6) == run_lbp(
        ldbc_store, spec
    )


@pytest.mark.parametrize("person_id", [3, 10**6], ids=["hit", "miss"])
def test_distributed_id_query_matches_duckdb(spark, ldbc, ldbc_store, person_id):
    # The key range is one Person (or none); it is what gets split.
    spec = QuerySpec(
        "dist_id", {"p": "Person", "f": "Person"},
        [E("p", "f", "knows", "k")], [Pr("p", "id", "=", person_id)],
        [("f", "id"), ("f", "fName"), ("k", "date")], ["p", "f"],
    )
    sql = to_sql(spec, ldbc.schema)
    df = run_distributed(spark, ldbc_store, spec, n_parts=4)
    assert sorted(df.columns) == ["f_fName", "f_id", "k_date"]
    assert (df.count() > 0) == (person_id == 3)
    assert_equivalent(df, sql, **ldbc.sql_tables())
    count = QuerySpec(
        spec.name, spec.vertices, spec.edges, spec.predicates, "count",
        spec.join_order,
    )
    assert_equivalent(
        run_distributed_df(spark, ldbc_store, count, n_parts=4),
        to_sql(count, ldbc.schema), **ldbc.sql_tables(),
    )


def test_distributed_splits_the_key_range(
    spark, ldbc, ldbc_store, monkeypatch
):
    from repro.proc import distributed

    splits = []

    def recording(n, n_parts, *, lo=0):
        splits.append(scan_ranges(n, n_parts, lo=lo))
        return splits[-1]

    monkeypatch.setattr(distributed, "scan_ranges", recording)
    spec = QuerySpec(
        "dist_id_range", {"p": "Person", "f": "Person"},
        [E("p", "f", "knows")],
        [Pr("p", "id", ">=", 20), Pr("p", "id", "<", 31)],
        [("p", "id"), ("f", "id")], ["p", "f"],
    )
    df = run_distributed(spark, ldbc_store, spec, n_parts=4)
    assert splits == [[(20, 23), (23, 26), (26, 29), (29, 31)]]
    assert_equivalent(df, to_sql(spec, ldbc.schema), **ldbc.sql_tables())
