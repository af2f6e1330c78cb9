"""Operator-level LBP tests: fusion decisions, untouched inputs, views."""
import numpy as np
import pytest

from repro.bench import single_card
from repro.bench.lbp_vs_volcano import khop_count_spec, khop_filter_spec
from repro.bench.prop_pages import _dataset_params, khop_spec
from repro.bench.queries_job import JOB_QUERIES
from repro.bench.queries_ldbc import ALL_LDBC
from repro.proc.chunk import Block, ListGroup
from repro.proc.lbp import compile_lbp, run_lbp
from repro.proc.operators import (
    BLOCK_SIZE,
    CollectSink,
    CountSink,
    PhysBatchExtend,
    PhysCountColumnExtend,
    PhysCountListExtend,
    PhysExtendFilterCount,
    PhysFilter,
    PhysListExtend,
    PhysScan,
    PhysVertexPropRead,
    concat_ranges,
    cut_ranges,
)
from repro.proc.expressions import scalar_op
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec
from repro.proc.volcano import ColumnarAdapter, run_volcano
from repro.storage.graph_store import GraphStore, StorageConfig


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


def _positions(idx, contig):
    return np.arange(*contig) if contig is not None else idx


class TestCutRanges:
    """``cut_ranges`` splits the concatenated ranges at multiples of the
    budget and gives each piece's rows and :func:`concat_ranges` output."""

    @staticmethod
    def _check(starts, ends, budget):
        """The pieces, after checking that they cover the concatenation in
        order, each within the budget, with each position on its row."""
        starts, ends = np.asarray(starts), np.asarray(ends)
        pieces = list(cut_ranges(starts, ends, budget))
        want_idx, want_contig, want_lens = concat_ranges(starts, ends)
        want_rows = np.repeat(np.arange(len(starts)), want_lens)
        got, rows = [], []
        for r, idx, contig, lens in pieces:
            pos = _positions(idx, contig)
            assert 0 < len(pos) <= budget
            assert len(lens) == r.stop - r.start
            assert lens.sum() == len(pos)
            got.append(pos)
            rows.append(np.repeat(np.arange(r.start, r.stop), lens))
        if pieces:
            np.testing.assert_array_equal(
                np.concatenate(got), _positions(want_idx, want_contig)
            )
            np.testing.assert_array_equal(np.concatenate(rows), want_rows)
        return pieces

    @pytest.mark.parametrize("total,n_pieces", [(9, 1), (10, 1), (11, 2)])
    def test_budget_boundary(self, total, n_pieces):
        starts = np.array([100, 50, 0])
        ends = starts + np.array([4, 5, total - 9])
        pieces = self._check(starts, ends, 10)
        assert len(pieces) == n_pieces
        if n_pieces == 1:
            # Within the budget: one piece over every row, no generator.
            assert isinstance(cut_ranges(starts, ends, 10), tuple)
            assert pieces[0][0] == slice(0, 3)

    def test_empty_total_gives_no_piece(self):
        assert cut_ranges(np.array([4, 4]), np.array([4, 4]), 3) == ()

    def test_long_list_split_over_three_pieces(self):
        pieces = self._check([20, 0, 7], [21, 7, 8], 3)
        # positions 20 | 0 1 2 3 4 5 6 | 7, cut every 3
        assert [list(_positions(i, c)) for _, i, c, _ in pieces] == [
            [20, 0, 1], [2, 3, 4], [5, 6, 7],
        ]
        assert [(r.start, r.stop) for r, *_ in pieces] == [
            (0, 2), (1, 2), (1, 3),
        ]
        assert [list(lens) for *_, lens in pieces] == [[1, 2], [3], [2, 1]]

    def test_empty_lists_between_non_empty(self):
        starts = np.array([10, 3, 3, 30, 5, 5, 40])
        ends = np.array([12, 3, 3, 33, 5, 5, 41])
        pieces = self._check(starts, ends, 2)
        assert len(pieces) == 3
        # No piece starts or ends on an empty list.
        for r, _, _, lens in pieces:
            assert lens[0] > 0 and lens[-1] > 0

    def test_contiguous_input_gives_contiguous_pieces(self):
        starts = np.array([0, 3, 3, 10, 17])
        ends = np.array([3, 3, 10, 17, 18])
        pieces = self._check(starts, ends, 4)
        assert all(idx is None and contig is not None for _, idx, contig, _ in pieces)
        assert [c for _, _, c, _ in pieces] == [(0, 4), (4, 8), (8, 12), (12, 16), (16, 18)]

    @pytest.mark.parametrize("budget", [1, 2, 5, 64])
    def test_random_ranges(self, budget):
        rng = np.random.default_rng(budget)
        lens = rng.integers(0, 9, 40) * (rng.random(40) < 0.7)
        starts = rng.integers(0, 1000, 40)
        self._check(starts, starts + lens, budget)


class TestBudgetedExtend:
    """Both fused extends cut their input's adjacency lists into pieces
    of at most ``block_size`` positions."""

    @staticmethod
    def _sizes_seen(op):
        sizes = []

        class Probe(CountSink):
            def consume(self, group):
                sizes.append(group.size)
                super().consume(group)

        op.next = Probe()
        return sizes, op.next

    def test_batch_extend_on_flat_group(self, ldbc_store):
        # One bound vertex (a one-row group) whose list is longer than
        # the budget.
        es = ldbc_store.edge("knows")
        csr = es.csr("fwd")
        deg = csr.degrees_of(np.arange(ldbc_store.n_vertices["Person"]))
        v = int(np.argmax(deg))
        assert deg[v] > 6
        ext = PhysBatchExtend("a", "b", None, es, "fwd", [], block_size=3)
        sizes, sink = self._sizes_seen(ext)
        ext.consume(ListGroup({"a": Block(np.array([v], dtype=np.int64))}, 1))
        assert sink.count == deg[v]
        assert max(sizes) <= 3
        assert len(sizes) == -(-int(deg[v]) // 3)

    def test_filter_count_slices_rhs_to_piece_rows(self, ldbc_store):
        # e2.date > a.x where a.x lives in the input group: each piece
        # repeats only its own rows of a.x, and the filter-first extend
        # feeding CountSink counts the passing positions.
        es = ldbc_store.edge("knows")
        csr = es.csr("fwd")
        dates, nulls, _ = es.eprops.read_fwd_range("date", 0, csr.n_edges)
        srcs = np.arange(40, dtype=np.int64)
        x = np.quantile(dates, np.linspace(0.05, 0.95, 40)).astype(np.int64)
        pred = Pr("e", "date", ">", None, rhs_var="a", rhs_prop="x")
        counts = []
        for budget in (1, 3, 1 << 15):
            op = PhysBatchExtend("a", "b", "e", es, "fwd", ["date"], block_size=budget)
            op.preds.append(pred)
            op.next = sink = CountSink()
            op.plan(set())
            op.consume(ListGroup({"a": Block(srcs), "a.x": Block(x)}, 40))
            counts.append(sink.count)
        assert nulls is None or not nulls.any()
        starts, ends = csr.ranges_of(srcs)
        want = sum(
            int((dates[s:e] > xi).sum()) for s, e, xi in zip(starts, ends, x)
        )
        assert 0 < want < ends[-1] - starts[0]
        assert counts == [want] * 3


class TestFusion:
    def test_count_khop_fuses_terminal_extend(self, ldbc_store):
        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person"},
            [E("a", "b", "knows")], [], "count",
        )
        ops = _ops(ldbc_store, spec)
        assert isinstance(ops[-2], PhysCountListExtend)
        assert isinstance(ops[-1], CountSink)

    def test_count_single_card_fuses_column_extend(self, ldbc_store):
        spec = QuerySpec(
            "q", {"c": "Comment", "p": "Person"},
            [E("c", "p", "hasCreator")], [], "count",
        )
        ops = _ops(ldbc_store, spec)
        assert isinstance(ops[-2], PhysCountColumnExtend)
        assert isinstance(ops[-1], CountSink)

    def test_edge_filter_tail_fuses(self, ldbc_store):
        spec = QuerySpec(
            "q", {"a": "Person", "b": "Person"},
            [E("a", "b", "knows", "e")], [Pr("e", "date", ">", 5)], "count",
        )
        counter, last, sink = _ops(ldbc_store, spec)[-3:]
        assert isinstance(counter, PhysExtendFilterCount)
        assert counter.hops == [last] and counter.bands == [None]
        assert isinstance(last, PhysBatchExtend) and isinstance(sink, CountSink)

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
        # The counter sits before the chain's last extend, and its band
        # has that extend's edge mirrored to the left-hand side.
        counter, last, sink = _ops(ldbc_store, spec)[-3:]
        assert isinstance(counter, PhysExtendFilterCount)
        assert counter.hops == [last] and isinstance(sink, CountSink)
        assert counter.bands == [Pr("e1", "date", "<", None, "e2", "date")]


def test_compiled_plans_never_construct_list_extend(
    monkeypatch, ldbc, ldbc_store, imdb_store, tiny, tiny_store
):
    # compile_lbp emits the operators that run: PhysListExtend is only
    # the per-list reference reader, never a plan node to rewrite.
    def refuse(self, *args, **kwargs):
        raise AssertionError("compile_lbp constructed a PhysListExtend")

    monkeypatch.setattr(PhysListExtend, "__init__", refuse)
    plans = [(ldbc_store, s) for s in ALL_LDBC]
    plans += [(imdb_store, s) for s in JOB_QUERIES]
    for data, store in ((ldbc, ldbc_store), (tiny, tiny_store)):
        elabel, vlabel, prop = _dataset_params(data)
        for hops in (1, 2, 3):
            plans += [
                (store, khop_spec(elabel, vlabel, prop, hops, direction=d))
                for d in ("fwd", "bwd")
            ]
            plans.append((store, khop_filter_spec(elabel, vlabel, prop, hops)))
            plans.append((store, khop_count_spec(elabel, vlabel, hops)))
    for cfg in single_card.CONFIGS.values():
        store = GraphStore.build(ldbc, cfg)
        plans += [(store, single_card.reply_khop(h)) for h in (1, 2, 3)]
    for store, spec in plans:
        for block_size in (3, BLOCK_SIZE):
            scan, _ = compile_lbp(store, spec, block_size=block_size)
            op = scan
            while op is not None:
                assert not isinstance(op, PhysListExtend), spec.name
                op = op.next


class TestStateRestore:
    """Operators hand new groups downstream and leave their input group
    as they found it."""

    def _capture(self, group):
        return group.size, {k: (b.data, b.nulls) for k, b in group.blocks.items()}

    def _same(self, group, before):
        size, blocks = self._capture(group)
        assert size == before[0] and blocks.keys() == before[1].keys()
        for k, (data, nulls) in blocks.items():
            assert data is before[1][k][0] and nulls is before[1][k][1]

    def test_list_extend_restores(self, ldbc_store):
        es = ldbc_store.edge("knows")
        ext = PhysListExtend("a", "b", None, es, "fwd", [])
        sink = CountSink()
        ext.next = sink
        group = ListGroup({"a": Block(np.arange(10, dtype=np.int64))}, 10)
        before = self._capture(group)
        ext.consume(group)
        self._same(group, before)
        starts, ends = es.csr("fwd").ranges_of(np.arange(10))
        assert sink.count == int((ends - starts).sum()) > 0

    def test_filter_restores(self, ldbc_store):
        f = PhysFilter(Pr("a", "x", ">", 3))
        sink = CountSink()
        f.next = sink
        group = ListGroup(
            {"a": Block(np.arange(5, dtype=np.int64)),
             "a.x": Block(np.arange(5, dtype=np.int64))},
            5,
        )
        before = self._capture(group)
        f.consume(group)
        self._same(group, before)
        assert sink.count == 1  # only value 4 passes


class TestZeroCopyViews:
    def test_list_extend_blocks_are_csr_views(self, ldbc_store):
        es = ldbc_store.edge("knows")
        csr = es.csr("fwd")
        seen = []

        class Probe(CountSink):
            def consume(self, group):
                seen.append(group.blocks["b"].data)
                super().consume(group)

        ext = PhysListExtend("a", "b", None, es, "fwd", [])
        ext.next = Probe()
        ext.consume(ListGroup({"a": Block(np.arange(5, dtype=np.int64))}, 5))
        assert seen
        for arr in seen:
            assert arr.base is csr.nbr or arr.base is csr.nbr.base


class TestFilterCombinations:
    def _run(self, build, pred):
        f = PhysFilter(pred)
        sink = CountSink()
        f.next = sink
        f.consume(build())
        return sink.count

    def test_flat_flat(self):
        # One tuple against a literal.
        def build():
            return ListGroup({"a.x": Block(np.array([9]))}, 1)
        assert self._run(build, Pr("a", "x", ">", 5)) == 1
        assert self._run(build, Pr("a", "x", "<", 5)) == 0

    @staticmethod
    def _one_vs_list(lhs, rhs_block):
        """``a.x`` holds one value, repeated over the rows of ``b.y``:
        what binding ``a`` before expanding ``b`` leaves in the group."""
        n = len(rhs_block)

        def build():
            return ListGroup({
                "a.x": Block(np.array([lhs] * n, dtype=object),
                             np.array([lhs is None] * n)),
                "b.y": rhs_block,
            }, n)
        return build

    def test_list_flat(self):
        build = self._one_vs_list(7, Block(np.array([1, 8, 9])))
        # b.y > a.x -> two of three pass
        assert self._run(
            build, Pr("b", "y", ">", None, rhs_var="a", rhs_prop="x")
        ) == 2
        # a.x > b.y -> one passes
        assert self._run(
            build, Pr("a", "x", ">", None, rhs_var="b", rhs_prop="y")
        ) == 1

    def test_flat_null_lhs_vs_list_is_false(self):
        build = self._one_vs_list(None, Block(np.array([1, 8, 9])))
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
        # a.x OP b.y with one value of a.x: each row of b.y is tested as
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
            assert self._run(self._one_vs_list(lhs, rhs), pred) == expected

    def test_list_list_same_group(self):
        def build():
            return ListGroup(
                {"a.x": Block(np.array([1, 5, 9])),
                 "a.y": Block(np.array([2, 5, 3]))}, 3)
        assert self._run(
            build, Pr("a", "x", "<", None, rhs_var="a", rhs_prop="y")
        ) == 1
        assert self._run(
            build, Pr("a", "x", "=", None, rhs_var="a", rhs_prop="y")
        ) == 1


def test_scan_block_boundaries(ldbc_store):
    sizes = []

    class Probe(CountSink):
        def consume(self, group):
            sizes.append(group.size)

    scan = PhysScan("a", 2500, block_size=1024)
    scan.next = Probe()
    scan.run()
    assert sizes == [1024, 1024, 452]


#: Every ID scheme and n-n property layout (old IDs: no slots in the CSR);
#: k = 4 spreads the 40 sources over 10 pages.
EPROP_CONFIGS = [
    *StorageConfig.ablation_steps(),
    ("pages-k4-old", StorageConfig(new_ids=False, k=4)),
    ("pages-k4-new", StorageConfig(k=4, null_compress=True)),
    ("cols-old", StorageConfig(new_ids=False, edge_prop_storage="edge_columns")),
    ("cols-new", StorageConfig(edge_prop_storage="edge_columns")),
]


@pytest.mark.parametrize("direction", ["fwd", "bwd"])
@pytest.mark.parametrize(
    "cfg", [c for _, c in EPROP_CONFIGS], ids=[n for n, _ in EPROP_CONFIGS]
)
class TestEdgePropReadersAgree:
    """The per-list (PhysListExtend), batched (PhysBatchExtend /
    PhysExtendFilterCount) and Volcano (GF-CV) edge-property readers find
    the same properties under every configuration."""

    def test_list_extend_emits_edge_properties(self, tiny, cfg, direction):
        elabel, vlabel, prop = _dataset_params(tiny)
        es = GraphStore.build(tiny, cfg).edge(elabel)
        n = tiny.n_vertices(vlabel)
        op = PhysListExtend("a", "b", "e", es, direction, [prop])
        op.next = sink = CollectSink(["a", "b", f"e.{prop}"], ["a", "b", "p"])
        op.consume(ListGroup({"a": Block(np.arange(n))}, n))
        got = sorted(sink.result().astype(int).itertuples(index=False, name=None))
        et = tiny.etables[elabel]
        own, other = ("src", "dst") if direction == "fwd" else ("dst", "src")
        assert got == sorted(zip(et[own], et[other], et[prop]))

    def test_khop_counts_match_gf_cl(self, tiny, tiny_store, cfg, direction):
        elabel, vlabel, prop = _dataset_params(tiny)
        store = GraphStore.build(tiny, cfg)
        spec = khop_spec(elabel, vlabel, prop, 2, direction=direction)
        want = run_lbp(tiny_store, spec)
        assert run_lbp(store, spec) == want
        assert run_volcano(ColumnarAdapter(store), spec) == want
