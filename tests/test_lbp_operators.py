"""Operator-level LBP tests: fusion decisions, state restore, views."""
import numpy as np
import pytest

from repro.proc.chunk import Block, IntermediateChunk, ListGroup
from repro.proc.lbp import compile_lbp, run_lbp
from repro.proc.operators import (
    CollectSink,
    CountSink,
    PhysCountColumnExtend,
    PhysCountListExtend,
    PhysExtendFilterCount,
    PhysFilter,
    PhysListExtend,
    PhysScan,
    PhysVertexPropRead,
    concat_ranges,
)
from repro.proc.expressions import scalar_op
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec


def _ops(store, spec):
    scan, _ = compile_lbp(store, spec)
    out, op = [], scan
    while op is not None:
        out.append(op)
        op = op.next
    return out


class TestConcatRanges:
    def test_contiguous_detected(self):
        starts = np.array([0, 3, 7])
        ends = np.array([3, 7, 9])
        idx, contig, lens = concat_ranges(starts, ends)
        assert idx is None and contig == (0, 9)
        assert list(lens) == [3, 4, 2]

    def test_contiguous_with_empty_lists(self):
        starts = np.array([0, 3, 3, 7])
        ends = np.array([3, 3, 7, 9])
        idx, contig, lens = concat_ranges(starts, ends)
        assert contig == (0, 9)

    def test_non_contiguous_index(self):
        starts = np.array([5, 0])
        ends = np.array([7, 2])
        idx, contig, lens = concat_ranges(starts, ends)
        assert contig is None
        assert list(idx) == [5, 6, 0, 1]

    def test_all_empty(self):
        idx, contig, lens = concat_ranges(np.array([4, 4]), np.array([4, 4]))
        assert len(idx) == 0 and contig is None


class TestFusion:
    def test_count_khop_fuses_terminal_extend(self, ldbc_store):
        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person"},
            [E("a", "b", "knows")], [], "count",
        )
        assert isinstance(_ops(ldbc_store, spec)[-1], PhysCountListExtend)

    def test_count_single_card_fuses_column_extend(self, ldbc_store):
        spec = QuerySpec(
            "q", {"c": "Comment", "p": "Person"},
            [E("c", "p", "hasCreator")], [], "count",
        )
        assert isinstance(_ops(ldbc_store, spec)[-1], PhysCountColumnExtend)

    def test_edge_filter_tail_fuses(self, ldbc_store):
        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person"},
            [E("a", "b", "knows", "e")], [Pr("e", "date", ">", 5)], "count",
        )
        assert isinstance(_ops(ldbc_store, spec)[-1], PhysExtendFilterCount)

    def test_vertex_filter_tail_batches_not_count_fuses(self, ldbc_store):
        # A vertex-property filter cannot use the factorized-count tail;
        # it is absorbed into a block-at-a-time PhysBatchExtend instead.
        from repro.proc.operators import PhysBatchExtend

        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person"},
            [E("a", "b", "knows")], [Pr("b", "gender", "=", "f")], "count",
        )
        ops = _ops(ldbc_store, spec)
        assert isinstance(ops[-1], CountSink)
        batch = [o for o in ops if isinstance(o, PhysBatchExtend)]
        assert len(batch) == 1
        assert batch[0].vprop_reads and batch[0].preds

    def test_projection_never_fuses(self, ldbc_store):
        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person"},
            [E("a", "b", "knows", "e")], [Pr("e", "date", ">", 5)],
            [("b", "id")],
        )
        assert isinstance(_ops(ldbc_store, spec)[-1], CollectSink)

    def test_mirrored_rhs_predicate_fuses(self, ldbc_store):
        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person", "c": "Person"},
            [E("a", "b", "knows", "e1"), E("b", "c", "knows", "e2")],
            [Pr("e1", "date", ">", 5),
             Pr("e2", "date", ">", None, rhs_var="e1", rhs_prop="date")],
            "count", ["c", "b", "a"],
        )
        assert isinstance(_ops(ldbc_store, spec)[-1], PhysExtendFilterCount)


class TestStateRestore:
    """Operators must leave the chunk exactly as they found it."""

    def _capture(self, chunk):
        return (
            len(chunk.groups),
            {k: v for k, v in chunk.key_group.items()},
            [g.cur_idx for g in chunk.groups],
            [set(g.blocks) for g in chunk.groups],
        )

    def test_list_extend_restores(self, ldbc_store):
        es = ldbc_store.edge("knows")
        ext = PhysListExtend("a", "b", None, es, "fwd", [])
        sink = CountSink()
        ext.next = sink
        chunk = IntermediateChunk()
        chunk.push_group(
            ListGroup({"a": Block(np.arange(10, dtype=np.int64))}, 10)
        )
        before = self._capture(chunk)
        ext.consume(chunk)
        assert self._capture(chunk) == before

    def test_filter_restores(self, ldbc_store):
        f = PhysFilter(Pr("a", "x", ">", 3))
        sink = CountSink()
        f.next = sink
        chunk = IntermediateChunk()
        chunk.push_group(
            ListGroup(
                {"a": Block(np.arange(5, dtype=np.int64)),
                 "a.x": Block(np.arange(5, dtype=np.int64))},
                5,
            )
        )
        before = self._capture(chunk)
        f.consume(chunk)
        assert self._capture(chunk) == before
        assert sink.count == 1  # only value 4 passes


class TestZeroCopyViews:
    def test_list_extend_blocks_are_csr_views(self, ldbc_store):
        es = ldbc_store.edge("knows")
        csr = es.csr("fwd")
        seen = []

        class Probe(CountSink):
            def consume(self, chunk):
                g = chunk.groups[-1]
                seen.append(g.blocks["b"].data)
                super().consume(chunk)

        ext = PhysListExtend("a", "b", None, es, "fwd", [])
        ext.next = Probe()
        chunk = IntermediateChunk()
        chunk.push_group(
            ListGroup({"a": Block(np.arange(5, dtype=np.int64))}, 5)
        )
        ext.consume(chunk)
        for arr in seen:
            assert arr.base is csr.nbr or arr.base is csr.nbr.base


class TestFilterCombinations:
    def _run(self, chunk_builder, pred):
        f = PhysFilter(pred)
        sink = CountSink()
        f.next = sink
        f.consume(chunk_builder())
        return sink.count

    def test_flat_flat(self):
        def build():
            c = IntermediateChunk()
            c.push_group(ListGroup(
                {"a.x": Block(np.array([1, 9]))}, 2, cur_idx=1))
            return c
        assert self._run(build, Pr("a", "x", ">", 5)) == 1
        assert self._run(build, Pr("a", "x", "<", 5)) == 0

    def test_list_flat(self):
        def build():
            c = IntermediateChunk()
            c.push_group(ListGroup(
                {"a.x": Block(np.array([7]))}, 1, cur_idx=0))
            c.push_group(ListGroup(
                {"b.y": Block(np.array([1, 8, 9]))}, 3))
            return c
        # b.y > a.x -> two of three pass
        assert self._run(
            build, Pr("b", "y", ">", None, rhs_var="a", rhs_prop="x")
        ) == 2
        # a.x > b.y (flat lhs vs unflat rhs -> mirrored) -> one passes
        assert self._run(
            build, Pr("a", "x", ">", None, rhs_var="b", rhs_prop="y")
        ) == 1

    @staticmethod
    def _flat_vs_list(lhs, rhs_block):
        def build():
            c = IntermediateChunk()
            c.push_group(ListGroup(
                {"a.x": Block(np.array([lhs], dtype=object),
                              np.array([lhs is None]))}, 1, cur_idx=0))
            c.push_group(ListGroup({"b.y": rhs_block}, len(rhs_block)))
            return c
        return build

    def test_flat_null_lhs_vs_list_is_false(self):
        build = self._flat_vs_list(None, Block(np.array([1, 8, 9])))
        for op in (">", "=", "contains", "in"):
            assert self._run(
                build, Pr("a", "x", op, None, rhs_var="b", rhs_prop="y")
            ) == 0

    @pytest.mark.parametrize("op,lhs", [
        ("contains", "(co-production) café"),
        ("startswith", "café au lait"),
        ("in", "é"),
        (">=", "café"),
    ])
    def test_flat_lhs_string_ops_vs_list(self, op, lhs):
        # a.x OP b.y with a.x flat: each row of b.y is tested as
        # scalar_op(OP, a.x, b.y), on a raw and on a dictionary block.
        vals = ["café", None, "(co-production)", "", "tea", "é"]
        nulls = np.array([v is None for v in vals])
        raw = Block(np.array(vals, dtype=object), nulls)
        d = np.array(sorted(v for v in vals if v is not None), dtype=object)
        codes = np.array(
            [len(d) if v is None else list(d).index(v) for v in vals],
            dtype=np.uint8,
        )
        expected = sum(scalar_op(op, lhs, v) for v in vals)
        assert 0 < expected < len(vals)
        pred = Pr("a", "x", op, None, rhs_var="b", rhs_prop="y")
        for rhs in (raw, Block(codes, nulls, d)):
            assert self._run(self._flat_vs_list(lhs, rhs), pred) == expected

    def test_list_list_same_group(self):
        def build():
            c = IntermediateChunk()
            c.push_group(ListGroup(
                {"a.x": Block(np.array([1, 5, 9])),
                 "a.y": Block(np.array([2, 5, 3]))}, 3))
            return c
        assert self._run(
            build, Pr("a", "x", "<", None, rhs_var="a", rhs_prop="y")
        ) == 1
        assert self._run(
            build, Pr("a", "x", "=", None, rhs_var="a", rhs_prop="y")
        ) == 1


def test_scan_block_boundaries(ldbc_store):
    sizes = []

    class Probe(CountSink):
        def consume(self, chunk):
            sizes.append(chunk.groups[0].size)

    scan = PhysScan("a", 2500, block_size=1024)
    scan.next = Probe()
    scan.run()
    assert sizes == [1024, 1024, 452]
