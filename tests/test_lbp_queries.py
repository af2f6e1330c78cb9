"""LBP end-to-end correctness: every result is oracle-checked against
DuckDB via ``repro.oracle.assert_equivalent`` over the relational form
of the graph."""
import pytest

from repro.oracle import assert_equivalent
from repro.util import pandas_to_spark
from repro.proc.lbp import run_lbp, run_lbp_df
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec, to_sql


def check(spark, data, store, spec):
    got = run_lbp_df(store, spec)
    sql = to_sql(spec)
    assert_equivalent(pandas_to_spark(spark, got), sql, **data.sql_tables())


# A grid of micro-queries exercising every storage/operator combination.
MICRO = [
    QuerySpec("count_nn_fwd", {"a": "Person", "b": "Person"},
              [E("a", "b", "knows")], [], "count"),
    QuerySpec("count_nn_bwd", {"a": "Person", "b": "Person"},
              [E("a", "b", "knows")], [], "count", ["b", "a"]),
    QuerySpec("count_n1_fwd", {"c": "Comment", "p": "Person"},
              [E("c", "p", "hasCreator")], [], "count"),
    QuerySpec("count_n1_bwd", {"c": "Comment", "p": "Person"},
              [E("c", "p", "hasCreator")], [], "count", ["p", "c"]),
    QuerySpec("count_1n_fwd", {"f": "Forum", "p": "Post"},
              [E("f", "p", "containerOf")], [], "count"),
    QuerySpec("count_1n_bwd", {"f": "Forum", "p": "Post"},
              [E("f", "p", "containerOf")], [], "count", ["p", "f"]),
    QuerySpec("eprop_filter_fwd", {"a": "Person", "b": "Person"},
              [E("a", "b", "knows", "e")],
              [Pr("e", "date", ">", 1_400_000_000)], "count"),
    QuerySpec("eprop_filter_bwd", {"a": "Person", "b": "Person"},
              [E("a", "b", "knows", "e")],
              [Pr("e", "date", "<=", 1_400_000_000)], "count", ["b", "a"]),
    QuerySpec("vprop_filter", {"a": "Person", "b": "Person"},
              [E("a", "b", "knows")],
              [Pr("a", "birthday", ">", 10_000),
               Pr("b", "gender", "=", "f")], "count"),
    QuerySpec("vprop_contains", {"a": "Person", "b": "Person"},
              [E("a", "b", "knows")],
              [Pr("b", "lName", "contains", "mit")], "count"),
    QuerySpec("vprop_in", {"a": "Person", "b": "Person"},
              [E("a", "b", "knows")],
              [Pr("b", "fName", "in", ["Ana", "Wei"])], "count"),
    QuerySpec("single_card_eprop", {"p": "Person", "o": "Org"},
              [E("p", "o", "studyAt", "s")],
              [Pr("s", "year", ">=", 2005)], "count"),
    QuerySpec("single_card_eprop_bwd", {"p": "Person", "o": "Org"},
              [E("p", "o", "studyAt", "s")],
              [Pr("s", "year", "<", 2005)], "count", ["o", "p"]),
    QuerySpec("nn_eprop_projection", {"p": "Person", "c": "Comment"},
              [E("p", "c", "likes", "l")],
              [Pr("p", "id", "=", 2)],
              [("p", "id"), ("c", "id"), ("l", "date")]),
    QuerySpec("two_hop_filter", {"a": "Person", "b": "Person", "c": "Person"},
              [E("a", "b", "knows", "e1"), E("b", "c", "knows", "e2")],
              [Pr("e1", "date", ">", 1_350_000_000),
               Pr("e2", "date", ">", None, rhs_var="e1", rhs_prop="date")],
              "count"),
    QuerySpec("star_two_branches", {"p": "Person", "o": "Org", "c": "Comment"},
              [E("p", "o", "workAt", "w"), E("p", "c", "likes")],
              [Pr("w", "year", "<", 2010)], "count"),
    QuerySpec("projection_mixed",
              {"c": "Comment", "p": "Person", "pl": "Place"},
              [E("c", "p", "hasCreator"), E("c", "pl", "commentIsLocatedIn")],
              [Pr("p", "id", "=", 1)],
              [("c", "id"), ("pl", "name"), ("p", "browserUsed")],
              ["p", "c", "pl"]),
    QuerySpec("three_hop_count",
              {"a": "Person", "b": "Person", "c": "Person", "d": "Person"},
              [E("a", "b", "knows"), E("b", "c", "knows"),
               E("c", "d", "knows")],
              [Pr("a", "id", "=", 0)], "count"),
    QuerySpec("self_label_n1", {"c0": "Comment", "c1": "Comment"},
              [E("c0", "c1", "replyOf")], [], "count"),
    QuerySpec("chain_single_card",
              {"c0": "Comment", "c1": "Comment", "c2": "Comment"},
              [E("c0", "c1", "replyOf"), E("c1", "c2", "replyOf")],
              [], "count"),
]


@pytest.mark.parametrize("spec", MICRO, ids=lambda s: s.name)
def test_micro_query_vs_oracle(spark, ldbc, ldbc_store, spec):
    check(spark, ldbc, ldbc_store, spec)


@pytest.mark.parametrize("spec", MICRO[:8], ids=lambda s: s.name)
def test_micro_query_uncompressed_store(
    spark, ldbc, ldbc_store_uncompressed, spec
):
    check(spark, ldbc, ldbc_store_uncompressed, spec)


def test_edge_columns_store(spark, ldbc):
    from repro.storage.graph_store import GraphStore, StorageConfig

    store = GraphStore.build(
        ldbc, StorageConfig(edge_prop_storage="edge_columns")
    )
    for spec in MICRO[6:8] + [MICRO[14]]:
        check(spark, ldbc, store, spec)


def test_single_card_in_csr_store(spark, ldbc):
    from repro.storage.graph_store import GraphStore, StorageConfig

    store = GraphStore.build(ldbc, StorageConfig(single_card_as_vcol=False))
    for spec in (MICRO[2], MICRO[3], MICRO[11], MICRO[18], MICRO[19]):
        check(spark, ldbc, store, spec)


def test_scan_range_partitions_compose(ldbc, ldbc_store):
    spec = MICRO[0]
    n = ldbc_store.n_vertices["Person"]
    total = run_lbp(ldbc_store, spec)
    parts = [
        run_lbp(ldbc_store, spec, scan_range=(lo, min(lo + 7, n)))
        for lo in range(0, n, 7)
    ]
    assert sum(parts) == total


def test_small_block_size_same_result(ldbc, ldbc_store):
    for spec in (MICRO[7], MICRO[14], MICRO[15]):
        assert run_lbp(ldbc_store, spec, block_size=3) == run_lbp(
            ldbc_store, spec
        )


def test_empty_result_projection(spark, ldbc, ldbc_store):
    spec = QuerySpec(
        "empty", {"a": "Person", "b": "Person"},
        [E("a", "b", "knows", "e")], [Pr("a", "id", "=", -1)],
        [("b", "id"), ("e", "date")],
    )
    got = run_lbp(ldbc_store, spec)
    assert len(got) == 0 and list(got.columns) == ["b_id", "e_date"]
