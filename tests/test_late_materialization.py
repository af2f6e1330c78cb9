"""The batch extend filters before it flattens (late materialization).

:class:`PhysBatchExtend` runs its dictionary and numeric literals first,
then reads and tests raw strings and property pairs only at the positions
still passing; it evaluates a literal on an out-vertex property once over
its column when the rows it has evaluated reach the column's size; and
it hands downstream only the blocks later operators read.
"""
from collections import Counter

import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.bench.queries_job import JOB_QUERIES
from repro.bench.queries_ldbc import ALL_LDBC, IS_QUERIES
from repro.graphs.data import GraphData
from repro.graphs.schema import GraphSchema, PropSpec
from repro.proc import expressions, lbp, operators
from repro.proc.chunk import ListGroup
from repro.proc.lbp import compile_lbp, run_lbp
from repro.proc.operators import (
    BLOCK_SIZE,
    PhysBatchExtend,
    PhysColumnExtend,
    PhysFilter,
    _eprop_block_multi,
    cut_ranges,
)
from repro.proc.plan import ExtendStep, FilterStep, QuerySpec
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import compile_logical, to_sql
from repro.storage.graph_store import GraphStore, StorageConfig
from tests.test_lbp_operators import EPROP_CONFIGS


@pytest.fixture(scope="module")
def imdb_con(imdb):
    con = duckdb.connect()
    for name, table in imdb.sql_tables().items():
        con.register(name, table)
    yield con
    con.close()


def _count(con, spec: QuerySpec) -> int:
    return int(con.execute(to_sql(spec)).fetchone()[0])


def _job(name):
    return next(q for q in JOB_QUERIES if q.name == name)


def _is_raw(schema, spec, p) -> bool:
    """Whether ``p`` tests a raw (not dictionary-coded) string column."""
    if p.var in spec.vertices:
        label = schema.vertices[spec.vertices[p.var]]
    else:
        label = schema.edges[spec.edge_of_var(p.var).label]
    prop = label.prop(p.prop)
    return prop.dtype == "str" and not prop.categorical


# -- (a) raw strings see only the rows the cheaper predicates pass ----------


def _survivors_of_cheaper(con, schema, spec, raw):
    """Per literal of ``raw``: the rows of its extend that pass every
    earlier filter and the extend's own dictionary and numeric literals,
    and the rows that pass the earlier filters alone (DuckDB counts)."""
    steps = compile_logical(spec)
    out, bound, edges = {}, [], []
    for i, step in enumerate(steps):
        if isinstance(step, FilterStep):
            continue
        bound.append(step.out_var if isinstance(step, ExtendStep) else step.var)
        if not isinstance(step, ExtendStep):
            continue
        edges.append(step.edge)
        before = [s.pred for s in steps[:i] if isinstance(s, FilterStep)]
        fused = []
        for s in steps[i + 1:]:
            if not isinstance(s, FilterStep):
                break
            fused.append(s.pred)
        cheap = [
            p for p in fused
            if p.rhs_var is None and p.var in (step.out_var, step.edge.var)
            and not _is_raw(schema, spec, p)
        ]
        for p in fused:
            if p in raw:
                out[p.value] = tuple(
                    _count(con, QuerySpec(
                        "prefix", {v: spec.vertices[v] for v in bound},
                        list(edges), preds, "count", list(bound),
                    ))
                    for preds in (before + cheap, before)
                )
    return out


@pytest.mark.parametrize("name", ["1a", "8a"])
def test_raw_strings_tested_only_on_survivors(
    monkeypatch, imdb, imdb_store, imdb_con, name
):
    spec = _job(name)
    raw = [
        p for p in spec.predicates
        if p.op in ("contains", "startswith")
        and _is_raw(imdb.schema, spec, p)
    ]
    bounds = _survivors_of_cheaper(imdb_con, imdb.schema, spec, raw)
    assert raw and set(bounds) == {p.value for p in raw}
    # The cheaper predicates reject rows, so testing every row would fail.
    assert any(passing < expanded for passing, expanded in bounds.values())
    tested, columns = Counter(), Counter()
    building = []
    real_match = expressions._match
    real_column = PhysBatchExtend._column_mask

    def counting_match(op, vals, lit):
        (columns if building else tested)[lit] += len(vals)
        return real_match(op, vals, lit)

    def counting_column(self, st):
        building.append(st)
        try:
            return real_column(self, st)
        finally:
            building.pop()

    monkeypatch.setattr(expressions, "_match", counting_match)
    monkeypatch.setattr(PhysBatchExtend, "_column_mask", counting_column)
    for block_size in (3, BLOCK_SIZE):
        tested.clear()
        run_lbp(imdb_store, spec, block_size=block_size)
        for lit, (passing, _) in bounds.items():
            assert tested[lit] <= passing, (lit, block_size)


def test_memos_stay_with_their_predicates(imdb_store):
    # Steps run in the planned order, but ``_literal_mask`` (the chain
    # count's hops) reads ``zip(preds, memos)``: each dictionary memo
    # must stay paired with its own predicate.
    reordered = 0
    for spec in JOB_QUERIES:
        for op in _pipeline(compile_lbp(imdb_store, spec)[0]):
            if isinstance(op, PhysBatchExtend):
                memo_of = {id(st.pred): st.memo for st in op.steps}
                assert all(
                    m is memo_of[id(p)] for p, m in zip(op.preds, op.memos)
                )
                reordered += [st.pred for st in op.steps] != op.preds
    assert reordered


# -- (b) the per-vertex column mask ------------------------------------------


@pytest.fixture
def column_masks(monkeypatch):
    """Every column mask built, as ``(operator, step, rows seen)``."""
    built = []
    real = PhysBatchExtend._column_mask

    def counting(self, st):
        built.append((self, st, st.seen))
        return real(self, st)

    monkeypatch.setattr(PhysBatchExtend, "_column_mask", counting)
    return built


def _assert_once_per_step(built):
    steps = Counter(id(st) for _, st, _ in built)
    assert all(n == 1 for n in steps.values())
    # Built only once the step has evaluated a column's worth of rows.
    assert all(seen >= st.vcol.n for _, st, seen in built)


def test_column_mask_at_most_once_per_predicate(imdb_store, column_masks):
    for spec in JOB_QUERIES:
        for block_size in (64, BLOCK_SIZE):
            column_masks.clear()
            run_lbp(imdb_store, spec, block_size=block_size)
            _assert_once_per_step(column_masks)
    # Some JOB stars do reach their vertex columns.
    run_lbp(imdb_store, _job("3a"), block_size=64)
    assert column_masks


def test_point_queries_never_build_a_column_mask(ldbc_store, column_masks):
    one_hop = QuerySpec(
        "friends", {"p": "Person", "f": "Person"}, [E("p", "f", "knows")],
        [Pr("p", "id", "=", 7), Pr("f", "gender", "=", "f")], [("f", "id")],
    )
    for spec in [one_hop, *IS_QUERIES]:
        assert lbp.scan_bounds(ldbc_store, spec)[1] - (
            lbp.scan_bounds(ldbc_store, spec)[0]
        ) == 1
        for block_size in (1, BLOCK_SIZE):
            run_lbp(ldbc_store, spec, block_size=block_size)
    assert column_masks == []
    for spec in ALL_LDBC:
        column_masks.clear()
        run_lbp(ldbc_store, spec)
        _assert_once_per_step(column_masks)


# -- (c) every JOB query at every block size ---------------------------------


@pytest.mark.parametrize("spec", JOB_QUERIES, ids=lambda s: s.name)
def test_job_queries_match_duckdb_at_block_sizes(imdb_store, imdb_con, spec):
    want = _count(imdb_con, spec)
    for block_size in (1, 3, 64, BLOCK_SIZE):
        assert run_lbp(imdb_store, spec, block_size=block_size) == want


# -- (d) a property read at a selection --------------------------------------


def _single_card():
    """n-n, n-1 and 1-n edges with a NULL-bearing property each."""
    g = np.random.default_rng(3)
    n = 30
    sch = GraphSchema()
    sch.add_vertex("A", PropSpec("x"))
    sch.add_edge("nn", "A", "A", "n-n", PropSpec("p"))
    sch.add_edge("n1", "A", "A", "n-1", PropSpec("p"))
    sch.add_edge("one_n", "A", "A", "1-n", PropSpec("p"))

    def prop(k):
        vals = pd.Series(g.integers(0, 100, k), dtype="Int64")
        vals[g.random(k) < 0.3] = pd.NA
        return vals

    own = np.sort(g.choice(n, 20, replace=False))
    et = {
        "nn": pd.DataFrame({
            "src": g.integers(0, n, 120), "dst": g.integers(0, n, 120),
        }),
        "n1": pd.DataFrame({"src": own, "dst": g.integers(0, n, 20)}),
        "one_n": pd.DataFrame({"src": g.integers(0, n, 20), "dst": own}),
    }
    for t in et.values():
        t["p"] = prop(len(t))
    data = GraphData(
        sch, {"A": pd.DataFrame({"_id": range(n), "x": range(n)})}, et
    )
    data.validate()
    return data


def _reads_agree(es, direction, prop, srcs):
    csr = es.csr(direction)
    starts, ends = csr.ranges_of(srcs)
    g = np.random.default_rng(0)
    for rows, idx, contig, lens in cut_ranges(starts, ends, 7):
        args = (es, prop, direction, srcs[rows], lens, idx, contig, csr)
        full = _eprop_block_multi(*args)
        sel = np.flatnonzero(g.random(len(full)) < 0.5)
        got = _eprop_block_multi(*args, sel)
        want = full.take(sel)
        assert got.decoded().tolist() == want.decoded().tolist()


@pytest.mark.parametrize("direction", ["fwd", "bwd"])
@pytest.mark.parametrize(
    "cfg", [c for _, c in EPROP_CONFIGS], ids=[n for n, _ in EPROP_CONFIGS]
)
def test_read_at_selection_pages_and_columns(tiny, cfg, direction):
    es = GraphStore.build(tiny, cfg).edge("link")
    n = tiny.n_vertices("node")
    for srcs in (np.arange(n), np.random.default_rng(1).permutation(n)[:25]):
        _reads_agree(es, direction, "timestamp", srcs.astype(np.int64))


@pytest.mark.parametrize("direction", ["fwd", "bwd"])
@pytest.mark.parametrize("null_compress", [False, True])
@pytest.mark.parametrize("label", ["n1", "one_n"])
def test_read_at_selection_single_card(label, null_compress, direction):
    store = GraphStore.build(
        _single_card(),
        StorageConfig(single_card_as_vcol=False, null_compress=null_compress),
    )
    es = store.edge(label)
    assert es.eprop_kind == ("src_vcol" if label == "n1" else "dst_vcol")
    for srcs in (np.arange(30), np.arange(29, -1, -2)):
        _reads_agree(es, direction, "p", srcs.astype(np.int64))


# -- (e) only live keys travel; frames unchanged -----------------------------


class _Reads(dict):
    """A block mapping that logs every key looked up in it."""

    def __init__(self, blocks, log) -> None:
        super().__init__(blocks)
        self.log = log

    def __getitem__(self, key):
        self.log.add(key)
        return super().__getitem__(key)


def _pipeline(scan):
    ops, op = [], scan.next
    while op is not None:
        ops.append(op)
        op = op.next
    return ops


@pytest.mark.parametrize("which", ["ldbc", "imdb"])
def test_batches_hand_on_only_live_keys(request, which):
    # Each key a batch extend, column extend or filter hands on is looked
    # up by a later operator, checked where every later operator received
    # a group.
    store = request.getfixturevalue(f"{which}_store")
    checked = Counter()
    for spec in ALL_LDBC if which == "ldbc" else JOB_QUERIES:
        scan, _ = compile_lbp(store, spec, block_size=64)
        ops = _pipeline(scan)
        reads = [set() for _ in ops]
        handed = [set() for _ in ops]
        ran = [False] * len(ops)
        for i, op in enumerate(ops):
            def traced(group, i=i, real=op.consume):
                ran[i] = True
                if i:
                    handed[i - 1] |= set(group.blocks)
                real(ListGroup(_Reads(group.blocks, reads[i]), group.size))
            op.consume = traced
        scan.run()
        for i, op in enumerate(ops):
            if isinstance(op, _PLANNED) and all(ran[i:]):
                later = set().union(*reads[i + 1:])
                assert handed[i] <= later, (spec.name, handed[i] - later)
                checked[type(op)] += 1
    assert checked[PhysBatchExtend] >= 10
    assert checked[PhysFilter] >= 3, checked
    if which == "ldbc":  # JOB has no single-cardinality edge
        assert checked[PhysColumnExtend] >= 3, checked


_PLANNED = (PhysBatchExtend, PhysColumnExtend, PhysFilter)


def _keep_everything(ops):
    for op in ops:
        if isinstance(op, PhysBatchExtend):
            op.steps = None  # planned at its first group, keeping all
        assert getattr(op, "live", None) is None  # unplanned: keeps all


def test_ldbc_frames_unchanged_by_keep_set(monkeypatch, ldbc_store):
    # Without the keep-set every batch extend, column extend and filter
    # hands on every block; the frames must be identical, row order and
    # dtypes included.
    for block_size in (3, BLOCK_SIZE):
        live = [run_lbp(ldbc_store, s, block_size=block_size) for s in ALL_LDBC]
        with monkeypatch.context() as m:
            m.setattr(lbp, "_plan_batches", _keep_everything)
            full = [
                run_lbp(ldbc_store, s, block_size=block_size) for s in ALL_LDBC
            ]
        for spec, a, b in zip(ALL_LDBC, live, full):
            if isinstance(a, pd.DataFrame):
                pd.testing.assert_frame_equal(a, b, obj=spec.name)
            else:
                assert a == b, spec.name
