"""The two count-oriented fast paths: vectorized predicate-free path
counts and block-at-a-time batched extends."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.data import GraphData
from repro.graphs.schema import GraphSchema, PropSpec
from repro.proc.lbp import _try_vectorized_count, compile_lbp, run_lbp
from repro.proc.operators import PhysBatchExtend
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec
from repro.proc.volcano import ColumnarAdapter, run_volcano
from repro.storage.graph_store import GraphStore, StorageConfig


def _count_spec(hops, label="knows", vlabel="Person"):
    vars_ = [chr(ord("a") + i) for i in range(hops + 1)]
    return QuerySpec(
        f"c{hops}", {v: vlabel for v in vars_},
        [E(vars_[i], vars_[i + 1], label) for i in range(hops)],
        [], "count",
    )


class TestVectorizedCount:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_matches_volcano(self, ldbc_store, hops):
        spec = _count_spec(hops)
        fast = _try_vectorized_count(ldbc_store, spec, None)
        slow = run_volcano(ColumnarAdapter(ldbc_store), spec)
        assert fast == slow

    def test_single_cardinality_chain(self, ldbc_store):
        spec = QuerySpec(
            "r", {"c0": "Comment", "c1": "Comment", "c2": "Comment"},
            [E("c0", "c1", "replyOf"), E("c1", "c2", "replyOf")],
            [], "count",
        )
        fast = _try_vectorized_count(ldbc_store, spec, None)
        assert fast == run_volcano(ColumnarAdapter(ldbc_store), spec)

    def test_mixed_labels_bwd(self, ldbc_store):
        spec = QuerySpec(
            "m", {"p": "Person", "c": "Comment"},
            [E("c", "p", "hasCreator")], [], "count", ["p", "c"],
        )
        fast = _try_vectorized_count(ldbc_store, spec, None)
        assert fast == run_volcano(ColumnarAdapter(ldbc_store), spec)

    def test_declines_predicates(self, ldbc_store):
        spec = QuerySpec(
            "p", {"a": "Person", "b": "Person"},
            [E("a", "b", "knows", "e")], [Pr("e", "date", ">", 0)], "count",
        )
        assert _try_vectorized_count(ldbc_store, spec, None) is None

    def test_declines_star(self, ldbc_store):
        spec = QuerySpec(
            "s", {"p": "Person", "o": "Org", "c": "Comment"},
            [E("p", "o", "workAt"), E("p", "c", "likes")], [], "count",
        )
        assert _try_vectorized_count(ldbc_store, spec, None) is None
        # The general engine still answers it (checked vs Volcano).
        assert run_lbp(ldbc_store, spec) == run_volcano(
            ColumnarAdapter(ldbc_store), spec
        )

    def test_scan_range(self, ldbc_store):
        spec = _count_spec(2)
        n = ldbc_store.n_vertices["Person"]
        parts = [
            _try_vectorized_count(ldbc_store, spec, (lo, min(lo + 13, n)))
            for lo in range(0, n, 13)
        ]
        assert sum(parts) == _try_vectorized_count(ldbc_store, spec, None)


def _complete_digraph_store(
    n: int, config: StorageConfig, *, ts: bool = False
) -> GraphStore:
    """Every ordered pair of distinct vertices is an edge: a k-hop path
    count is exactly n·(n-1)^k. With ``ts``, every edge has the same
    int ``ts`` property."""
    sch = GraphSchema()
    sch.add_vertex("node", PropSpec("id"))
    sch.add_edge("link", "node", "node", "n-n", *[PropSpec("ts")] * ts)
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    edges = pd.DataFrame({"src": src, "dst": dst})
    if ts:
        edges["ts"] = 7
    data = GraphData(
        sch,
        {"node": pd.DataFrame({"_id": np.arange(n), "id": np.arange(n)})},
        {"link": edges},
    )
    data.validate()
    return GraphStore.build(data, config)


class TestExactVectorizedCount:
    """Path counts past 2^53 stay exact up to the int64 range."""

    @pytest.mark.parametrize("config", [StorageConfig(), StorageConfig.gf_cl()])
    @pytest.mark.parametrize("n", [200, 220])
    def test_seven_hops_exact(self, n, config):
        # 200·199^7 ≈ 2.5e18 and 220·219^7 ≈ 5.3e18: both above 2^53,
        # the second above 2^62 but still within int64.
        store = _complete_digraph_store(n, config)
        spec = _count_spec(7, label="link", vlabel="node")
        want = n * (n - 1) ** 7
        assert want <= np.iinfo(np.int64).max
        assert run_lbp(store, spec) == want

    def test_beyond_int64_raises(self):
        store = _complete_digraph_store(200, StorageConfig.gf_cl())
        spec = _count_spec(8, label="link", vlabel="node")  # ≈ 4.9e20
        with pytest.raises(OverflowError):
            run_lbp(store, spec)

    def test_below_two_to_53_unchanged(self):
        store = _complete_digraph_store(50, StorageConfig.gf_cl())
        spec = _count_spec(4, label="link", vlabel="node")
        assert run_lbp(store, spec) == 50 * 49 ** 4


class TestBatchExtend:
    def _ops(self, store, spec):
        scan, _ = compile_lbp(store, spec)
        out, op = [], scan
        while op is not None:
            out.append(op)
            op = op.next
        return out

    def test_projection_plans_use_batch_extends(self, ldbc_store):
        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person", "c": "Person"},
            [E("a", "b", "knows"), E("b", "c", "knows")],
            [Pr("a", "id", "=", 1), Pr("c", "gender", "=", "f")],
            [("c", "fName")],
        )
        ops = self._ops(ldbc_store, spec)
        batches = [o for o in ops if isinstance(o, PhysBatchExtend)]
        assert len(batches) == 2
        # The terminal batch absorbed the c filter and the RETURN gather.
        assert batches[-1].preds and batches[-1].vprop_reads

    def test_batch_restores_chunk_state(self, ldbc_store):
        # The input group is handed on unchanged: each piece goes
        # downstream as a new group.
        from repro.proc.chunk import Block, ListGroup
        from repro.proc.operators import CountSink

        es = ldbc_store.edge("knows")
        ext = PhysBatchExtend("a", "b", None, es, "fwd", [], [], [])
        sink = CountSink()
        ext.next = sink
        srcs = np.arange(20, dtype=np.int64)
        group = ListGroup({"a": Block(srcs)}, 20)
        ext.consume(group)
        assert set(group.blocks) == {"a"} and group.size == 20
        assert group.blocks["a"].data is srcs
        assert sink.count > 0

    def test_batch_on_flat_group(self, ldbc_store):
        # A one-row group (one bound vertex) expands that vertex's list.
        from repro.proc.chunk import Block, ListGroup
        from repro.proc.operators import CountSink

        es = ldbc_store.edge("knows")
        ext = PhysBatchExtend("a", "b", None, es, "fwd", [], [], [])
        sink = CountSink()
        ext.next = sink
        ext.consume(ListGroup({"a": Block(np.array([2], dtype=np.int64))}, 1))
        assert sink.count == es.csr("fwd").degree(2)
