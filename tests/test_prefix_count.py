"""Literal-filtered last hops counted from a per-query prefix sum.

When every predicate of a count(*) plan's last extend compares its edge
to a literal, the counter (:class:`PhysExtendFilterCount`) before that
extend builds the prefix sum of the predicate mask over the whole CSR
once the extend would have expanded more adjacency positions than the
CSR has edges, and counts each later list as ``cum[end] - cum[start]``;
until then the extend feeds :class:`CountSink`. These tests check its
answers against DuckDB under every storage configuration and
edge-property layout, at budgets small enough that the build happens
mid-query, and check when it builds.
"""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.bench.lbp_vs_volcano import khop_filter_spec
from repro.bench.prop_pages import khop_spec
from repro.bench.queries_job import JOB_QUERIES
from repro.graphs.data import GraphData
from repro.graphs.datasets import _with_nulls
from repro.graphs.schema import GraphSchema
from repro.graphs.schema import PropSpec as P
from repro.proc.lbp import compile_lbp
from repro.proc.operators import (
    BLOCK_SIZE,
    CountSink,
    PhysBatchExtend,
    PhysExtendFilterCount,
)
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec, to_sql
from repro.storage.graph_store import GraphStore, StorageConfig

BUDGETS = (1, 3, 64, BLOCK_SIZE)

#: Every Table 2 step, plus the two other edge-property layouts: edge
#: columns, and vertex columns read through a CSR (single-cardinality
#: edges kept as CSRs), where the property is keyed by the list's owner.
CONFIGS = StorageConfig.ablation_steps() + [
    ("EDGE-COLS", StorageConfig(null_compress=True,
                                edge_prop_storage="edge_columns")),
    ("CSR-ONLY", StorageConfig(null_compress=True,
                               single_card_as_vcol=False)),
]

_TAGS = np.array(["red", "green", "blue", "amber"], dtype=object)
_WORDS = ["(voice)", "(uncredited)", "(USA)", "alpha", "beta"]

#: Literal-only predicate sets on the tail edge ``e``: numeric, dictionary
#: and raw-string properties, each with NULLs, and ``in`` / ``contains``.
PREDS = {
    "num": [Pr("e", "w", ">", 40)],
    "dict": [Pr("e", "tag", "=", "red")],
    "dict-in": [Pr("e", "tag", "in", ["red", "blue"])],
    "raw-contains": [Pr("e", "note", "contains", "(voice)")],
    "mixed": [
        Pr("e", "w", "<=", 70), Pr("e", "tag", "<>", "green"),
        Pr("e", "note", "contains", "a"),
    ],
}


@pytest.fixture(scope="module")
def data():
    """60 nodes, three edge labels (n-n, n-1, 1-n) that each carry a
    NULL-heavy int, dictionary and raw-string property; the last ten
    nodes have no out-edges and the first ten no in-edges."""
    g = np.random.default_rng(17)
    n = 60
    sch = GraphSchema()
    sch.add_vertex("node", P("id"))
    props = (P("w"), P("tag", "str", True), P("note", "str"))
    for label, card in (("rel", "n-n"), ("boss", "n-1"), ("kid", "1-n")):
        sch.add_edge(label, "node", "node", card, *props)

    def table(src, dst):
        m = len(src)
        notes = np.array(
            [" ".join(g.choice(_WORDS, 2)) for _ in range(m)], dtype=object
        )
        return pd.DataFrame({
            "src": src, "dst": dst,
            "w": _with_nulls(g, g.integers(0, 100, m), 0.5),
            "tag": _with_nulls(g, g.choice(_TAGS, m), 0.6),
            "note": _with_nulls(g, notes, 0.4),
        })

    n_e = 360
    et = {
        "rel": table(g.integers(0, n - 10, n_e), g.integers(10, n, n_e)),
        "boss": table(g.choice(n - 10, 40, replace=False),
                      g.integers(10, n, 40)),
        "kid": table(g.integers(0, n - 10, 40),
                     g.choice(np.arange(10, n), 40, replace=False)),
    }
    vt = {"node": pd.DataFrame({"_id": np.arange(n), "id": np.arange(n)})}
    out = GraphData(sch, vt, et)
    out.validate()
    return out


@pytest.fixture(scope="module")
def stores(data):
    return {name: GraphStore.build(data, cfg) for name, cfg in CONFIGS}


def _tail_spec(label: str, direction: str, preds: list) -> QuerySpec:
    """A 2-hop path whose plan ends with the extend over ``label``'s
    edge ``e`` and the literal ``preds`` on it, in ``direction``."""
    if direction == "fwd":
        edges = [E("a", "b", "rel"), E("b", "c", label, "e")]
        order = ["a", "b", "c"]
    else:
        edges = [E("a", "b", label, "e"), E("b", "c", "rel")]
        order = ["c", "b", "a"]
    return QuerySpec(
        f"tail-{label}-{direction}", {v: "node" for v in "abc"}, edges,
        preds, "count", order,
    )


def _duckdb_count(data, spec) -> int:
    con = duckdb.connect()
    try:
        for name, t in data.sql_tables().items():
            con.register(name, t)
        return int(con.execute(to_sql(spec)).fetchone()[0])
    finally:
        con.close()


def _literal(sink) -> bool:
    """Whether ``sink`` is a counter over one literal-filtered extend."""
    return isinstance(sink, PhysExtendFilterCount) and sink.bands == [None]


def _run(store, spec, block_size):
    """``(count, tail, builds, calls)``: the compiled plan's answer, its
    literal counter (or None), how often it built its prefix sum and, per
    ``consume`` call, whether the prefix existed before it."""
    scan, sink = compile_lbp(store, spec, block_size=block_size)
    builds: list[int] = []
    calls: list[bool] = []
    if isinstance(sink, PhysExtendFilterCount):
        build, consume = sink._build, sink.consume

        def counted_build():
            builds.append(1)
            return build()

        def recorded_consume(group):
            calls.append(sink.weights is not None)
            consume(group)

        sink._build = counted_build
        sink.consume = recorded_consume
    scan.run()
    return sink.count, sink if _literal(sink) else None, len(builds), calls


@pytest.mark.parametrize("preds", list(PREDS), ids=str)
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
@pytest.mark.parametrize("label", ["rel", "boss", "kid"])
@pytest.mark.parametrize("config", [name for name, _ in CONFIGS])
def test_literal_tail_matches_duckdb(data, stores, config, label, direction,
                                     preds):
    spec = _tail_spec(label, direction, PREDS[preds])
    want = _duckdb_count(data, spec)
    for budget in BUDGETS:
        got, tail, builds, _ = _run(stores[config], spec, budget)
        assert got == want, (config, budget)
        assert builds <= 1
        if tail is not None:
            # Every literal last hop here expands its CSR's edges several
            # times over, so the prefix sum serves it.
            assert builds == 1, (config, budget)
            assert tail.weights.op is None


@pytest.mark.parametrize("budget", [1, 3, 64])
def test_prefix_built_mid_query(stores, budget):
    spec = _tail_spec("rel", "fwd", PREDS["mixed"])
    _, tail, builds, calls = _run(stores["+NULL"], spec, budget)
    assert tail is not None and builds == 1
    # Pieces before the build went through the extend to CountSink; the
    # build came during a later piece, and every call after it used the
    # sum. Both parts add to the count.
    assert not calls[0]
    first = calls.index(True)
    assert all(calls[first:])


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_table5_filter_tail_builds_once(tiny, tiny_store, hops):
    spec = khop_filter_spec("link", "node", "timestamp", hops)
    want = _duckdb_count(tiny, spec)
    for budget in BUDGETS:
        got, tail, builds, _ = _run(tiny_store, spec, budget)
        assert got == want
        # One hop reads each list once, E positions in all, which never
        # exceeds E: summing the piece masks answers it without a pass
        # over the CSR. Two or more hops read lists again and build once.
        assert tail is not None and builds == (hops > 1)
        assert (tail.weights is None) == (hops == 1)


@pytest.mark.parametrize("direction", ["fwd", "bwd"])
@pytest.mark.parametrize("hops", [2, 3])
def test_chain_tail_never_builds(tiny, tiny_store, hops, direction):
    # e_k.timestamp > e_{k-1}.timestamp compares to the previous edge,
    # which changes from tuple to tuple: the last hop gets no literal
    # counter of its own. The one chain counter builds its suffix weights
    # at most once, and the last hop stays a plain extend feeding
    # CountSink.
    spec = khop_spec("link", "node", "timestamp", hops, direction=direction)
    want = _duckdb_count(tiny, spec)
    for budget in BUDGETS:
        scan, sink = compile_lbp(tiny_store, spec, block_size=budget)
        assert isinstance(sink, PhysExtendFilterCount)
        assert sink.bands[0] is not None and len(sink.hops) == hops - 1
        builds, build = [], sink._build
        sink._build = lambda: builds.append(1) or build()
        scan.run()
        assert sink.count == want, budget
        assert len(builds) <= 1
        tail = sink.hops[-1]
        assert type(tail) is PhysBatchExtend
        assert isinstance(tail.next, CountSink) and tail.next is sink.sink


@pytest.mark.parametrize("name", ["10a", "20a", "21a"])
def test_selective_job_tails_never_build(imdb, imdb_store, name):
    # Their fused tails read a small share of the CSR's edges: one pass
    # over all of them would cost more than the tail itself.
    spec = next(s for s in JOB_QUERIES if s.name == name)
    want = _duckdb_count(imdb, spec)
    for budget in (64, BLOCK_SIZE):
        got, tail, builds, _ = _run(imdb_store, spec, budget)
        assert tail is not None
        assert builds == 0 and tail.weights is None
        assert tail.expanded < tail.csr.n_edges == tail.n_edges
        assert got == want
