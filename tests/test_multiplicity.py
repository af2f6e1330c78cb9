"""Adjacency lists kept unflat as row multiplicities.

A CSR extend with no predicate or property read, whose out-vertex and
edge nothing after it reads (a *leaf arm*), hands on each input row with
a non-empty list once, with its multiplicity times the list's length
(``PhysBatchExtend.mult_only``). Every later operator hands the
multiplicity on, the count sinks and tails weight by it, and
``CollectSink`` repeats each row by it. Each plan here is checked
against DuckDB at ``block_size`` 1, 3 and the default, and each asserts
that its plan holds the leaf arm in the place it tests.
"""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.graphs.datasets import ldbc_lite
from repro.proc.lbp import compile_lbp, run_lbp_df
from repro.proc.operators import (
    BLOCK_SIZE,
    CollectSink,
    CountSink,
    PhysBatchExtend,
    PhysColumnExtend,
    PhysCountColumnExtend,
    PhysCountListExtend,
    PhysExtendFilterCount,
    PhysFilter,
    PhysVertexPropRead,
)
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec, to_sql
from repro.storage.graph_store import GraphStore, StorageConfig

BUDGETS = (1, 3, BLOCK_SIZE)
V = {
    "p": "Person", "f": "Person", "fo": "Forum", "c": "Comment",
    "c2": "Comment", "pl": "Place",
}
KNOWS = E("p", "f", "knows")  # p's friends, a leaf when f is never read
MEMBER = E("fo", "p", "hasMember")  # p's forums, a leaf from p (bwd)
FAN = E("p", "c", "likes", "l")  # liked comments; p -> c, or c <- p


def _spec(name, vs, edges, preds, returns, order):
    return QuerySpec(name, {v: V[v] for v in vs}, edges, preds, returns, order)


#: ``(spec, the type after the first leaf arm, leaf arms)``.
CASES = [
    (_spec("leaf-collect", ["p", "f"], [KNOWS], [Pr("p", "id", "<", 60)],
           [("p", "id"), ("p", "fName"), ("p", "locationIP")], ["p", "f"]),
     CollectSink, 1),
    # NULL-heavy int and raw strings repeated by the multiplicity.
    (_spec("leaf-collect-nulls", ["c", "p"], [FAN], [],
           [("c", "creationDate"), ("c", "content")], ["c", "p"]),
     CollectSink, 1),
    # Column extend (n-1, dropping no row), property read, filter, count.
    (_spec("leaf-column-filter-count", ["p", "f", "pl"],
           [KNOWS, E("p", "pl", "personIsLocatedIn")],
           [Pr("pl", "name", "<>", "India")], "count", ["p", "f", "pl"]),
     PhysColumnExtend, 1),
    (_spec("leaf-column-filter-collect", ["p", "f", "pl"],
           [KNOWS, E("p", "pl", "personIsLocatedIn")],
           [Pr("pl", "name", "<>", "India")],
           [("pl", "name"), ("p", "gender")], ["p", "f", "pl"]),
     PhysColumnExtend, 1),
    # A column extend dropping the half of the comments with no reply.
    (_spec("leaf-column-drops", ["c", "p", "c2"],
           [FAN, E("c", "c2", "replyOf")], [],
           [("c2", "creationDate"), ("c", "id")], ["c", "p", "c2"]),
     PhysColumnExtend, 1),
    # An extend reading the out-vertex, then a property read of the
    # input's vertex and a filter comparing the two.
    (_spec("leaf-vprop-filter", ["p", "fo", "f"], [MEMBER, KNOWS],
           [Pr("f", "birthday", ">", rhs_var="p", rhs_prop="birthday")],
           [("f", "fName")], ["p", "fo", "f"]),
     PhysBatchExtend, 1),
    (_spec("leaf-count-list", ["p", "f", "c"], [KNOWS, FAN], [], "count",
           ["p", "f", "c"]),
     PhysCountListExtend, 1),
    (_spec("leaf-count-column", ["c", "p", "c2"],
           [FAN, E("c", "c2", "replyOf")], [], "count", ["c", "p", "c2"]),
     PhysCountColumnExtend, 1),
    # The fused filter count, comparing to the input: per-piece route.
    (_spec("leaf-filter-count-pieces", ["p", "fo", "c"], [MEMBER, FAN],
           [Pr("p", "creationDate", ">", 0),
            Pr("l", "date", ">", None, rhs_var="p", rhs_prop="creationDate")],
           "count", ["p", "fo", "c"]),
     PhysExtendFilterCount, 1),
    # The same tail on literals: friends' likes read each list about 20
    # times, so the prefix sum is built mid-query.
    (_spec("leaf-filter-count-prefix", ["p", "f", "fo", "c"],
           [KNOWS, MEMBER, E("f", "c", "likes", "l")],
           [Pr("l", "date", ">", 1_375_000_000)], "count",
           ["p", "f", "fo", "c"]),
     PhysExtendFilterCount, 1),
    # A later batch extend, with and without a fused filter.
    (_spec("leaf-extend", ["p", "fo", "c"], [MEMBER, FAN], [],
           [("c", "id"), ("l", "date")], ["p", "fo", "c"]),
     PhysBatchExtend, 1),
    (_spec("leaf-extend-filter", ["p", "fo", "c"], [MEMBER, FAN],
           [Pr("c", "content", "contains", "1")],
           [("c", "content"), ("p", "id")], ["p", "fo", "c"]),
     PhysBatchExtend, 1),
    # Two leaf arms in a row: the second multiplies the first's.
    (_spec("two-leaves-collect", ["p", "f", "fo"], [KNOWS, MEMBER],
           [Pr("p", "id", ">=", 40)], [("p", "fName"), ("p", "id")],
           ["p", "f", "fo"]),
     PhysBatchExtend, 2),
    (_spec("two-leaves-count", ["p", "f", "fo", "c"], [KNOWS, MEMBER, FAN],
           [Pr("p", "gender", "=", "f")], "count", ["p", "f", "fo", "c"]),
     PhysBatchExtend, 2),
]


@pytest.fixture(scope="module")
def data():
    return ldbc_lite(sf=0.01, comment_date_null_frac=0.3)


@pytest.fixture(scope="module")
def store(data):
    return GraphStore.build(data, StorageConfig.gf_cl())


@pytest.fixture(scope="module")
def con(data):
    con = duckdb.connect()
    for name, table in data.sql_tables().items():
        con.register(name, table)
    yield con
    con.close()


def _ops(scan):
    ops, op = [], scan
    while op is not None:
        ops.append(op)
        op = op.next
    return ops


def _leaves(ops):
    return [op for op in ops if isinstance(op, PhysBatchExtend) and op.mult_only]


def _canon(df: pd.DataFrame) -> list[tuple]:
    def norm(v):
        if v is None or v is pd.NA or (isinstance(v, float) and np.isnan(v)):
            return None
        return v.item() if isinstance(v, np.generic) else v

    rows = [tuple(norm(v) for v in r) for r in df.itertuples(index=False)]
    return sorted(rows, key=lambda r: [(v is None, v if v is not None else 0) for v in r])


@pytest.mark.parametrize(
    "spec, after, n_leaves", CASES, ids=[c[0].name for c in CASES]
)
def test_leaf_arms_match_duckdb(store, con, spec, after, n_leaves):
    want = con.execute(to_sql(spec)).fetchdf()
    assert len(want) and (spec.returns != "count" or want.iloc[0, 0] > 0)
    for budget in BUDGETS:
        scan, _ = compile_lbp(store, spec, block_size=budget)
        ops = _ops(scan)
        leaves = _leaves(ops)
        assert len(leaves) == n_leaves, [type(op).__name__ for op in ops]
        assert isinstance(leaves[0].next, after), type(leaves[0].next)
        got = run_lbp_df(store, spec, block_size=budget)
        assert list(got.columns) == list(want.columns)
        assert _canon(got) == _canon(want), (spec.name, budget)


def test_leaf_before_property_read_and_filter(store):
    spec = next(s for s, *_ in CASES if s.name == "leaf-vprop-filter")
    ops = _ops(compile_lbp(store, spec)[0])
    i = ops.index(_leaves(ops)[0])
    assert [type(op) for op in ops[i + 1:]] == [
        PhysBatchExtend, PhysVertexPropRead, PhysFilter, CollectSink,
    ]


def test_filter_count_routes_both_run(store):
    by_name = {s.name: s for s, *_ in CASES}
    for name, built in (("leaf-filter-count-pieces", False),
                        ("leaf-filter-count-prefix", True)):
        for budget in BUDGETS:
            scan, sink = compile_lbp(store, by_name[name], block_size=budget)
            scan.run()
            assert isinstance(sink, PhysExtendFilterCount)
            assert (sink.cum is not None) == built, (name, budget)


def test_column_filter_count_ends_in_count_sink(store):
    spec = next(s for s, *_ in CASES if s.name == "leaf-column-filter-count")
    scan, sink = compile_lbp(store, spec)
    assert isinstance(sink, CountSink)


class _Recorder:
    """Wraps a leaf arm's ``consume`` (``consume_in``: the input rows,
    those with a non-empty list and the tuples they stand for) or its
    next operator (``consume``: each group handed on)."""

    def __init__(self, op, seen) -> None:
        self.op, self.seen, self.real = op, seen, op.consume

    def consume_in(self, group) -> None:
        leaf = self.op
        starts, ends = leaf.csr.ranges_of(group.blocks[leaf.src_var].data)
        lens = ends - starts
        mult = lens if group.mult is None else lens * group.mult
        self.seen.append(
            [group.size, int((lens > 0).sum()), int(mult.sum()), []]
        )
        self.real(group)

    def consume(self, group) -> None:
        self.seen[-1][3].append((group.size, group.tuples()))
        self.op.consume(group)


@pytest.mark.parametrize("spec", [c[0] for c in CASES], ids=lambda s: s.name)
def test_leaf_hands_on_at_most_its_input_rows(store, spec):
    # Each input row is handed on at most once, with its list's length
    # times its own multiplicity; the lists themselves are never cut.
    for budget in BUDGETS:
        scan, _ = compile_lbp(store, spec, block_size=budget)
        seen = []
        for leaf in _leaves(_ops(scan)):
            leaf.consume = _Recorder(leaf, seen).consume_in
            leaf.next = _Recorder(leaf.next, seen)
        scan.run()
        assert seen
        for size_in, nonempty, tuples, handed in seen:
            assert len(handed) <= 1  # one group per input group, or none
            size_out, tuples_out = handed[0] if handed else (0, 0)
            assert size_out == nonempty <= size_in
            assert tuples_out == tuples
