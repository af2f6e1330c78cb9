"""Tuple-budgeted morsels: no list group of a compiled plan holds more than
``block_size`` tuples, and every budget gives the default run's answer and
DuckDB's."""
import dataclasses
import tracemalloc

import duckdb
import pandas as pd
import pytest

from repro.bench.lbp_vs_volcano import khop_count_spec, khop_filter_spec
from repro.bench.prop_pages import _dataset_params, khop_spec
from repro.bench.queries_job import JOB_QUERIES
from repro.bench.queries_ldbc import ALL_LDBC
from repro.graphs.datasets import wiki_like
from repro.oracle import _canon
from repro.proc.lbp import compile_lbp, run_lbp
from repro.proc.operators import CollectSink, PhysExtendFilterCount
from repro.proc.plan import to_sql
from repro.storage.graph_store import GraphStore, StorageConfig

BUDGETS = (1, 3, 64)


def _reversed(spec):
    order = spec.join_order or list(spec.vertices)
    return dataclasses.replace(
        spec, name=spec.name + "-bwd", join_order=list(reversed(order))
    )


def _khop_specs():
    specs = []
    for hops in (1, 2, 3):
        for direction in ("fwd", "bwd"):
            specs.append(khop_spec(
                "link", "node", "timestamp", hops, direction=direction,
                name=f"chain-{hops}hop-{direction}",
            ))
        f = khop_filter_spec("link", "node", "timestamp", hops)
        specs += [f, _reversed(f)]
    for hops in (2, 3):
        c = khop_count_spec("link", "node", hops)
        specs += [c, _reversed(c)]
    return specs


KHOP_SPECS = _khop_specs()


def _recorded(store, spec, block_size):
    """The answer of ``spec``'s compiled plan at ``block_size``, and the
    size of every list group any of its operators was handed."""
    scan, sink = compile_lbp(store, spec, block_size=block_size)
    sizes: list[int] = []
    op = scan.next
    while op is not None:
        op.consume = _recording(op.consume, sizes)
        op = op.next
    scan.run()
    answer = sink.result() if isinstance(sink, CollectSink) else sink.count
    return answer, sizes


def _recording(consume, sizes):
    def recorded(group):
        sizes.append(group.size)
        return consume(group)
    return recorded


def _frame(answer) -> pd.DataFrame:
    if isinstance(answer, pd.DataFrame):
        return answer
    return pd.DataFrame({"cnt": [answer]})


def _duckdb(data, spec) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        for name, t in data.sql_tables().items():
            con.register(name, t)
        return con.execute(to_sql(spec, data.schema)).fetchdf()
    finally:
        con.close()


def _same(got, want: pd.DataFrame) -> None:
    got = _frame(got)
    assert set(got.columns) == set(want.columns)
    pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)


def _check_budgets(data, store, spec):
    want = _duckdb(data, spec)
    _same(run_lbp(store, spec), want)
    for budget in BUDGETS:
        answer, sizes = _recorded(store, spec, budget)
        if sizes:
            assert max(sizes) <= budget, (spec.name, budget, max(sizes))
        _same(answer, want)


@pytest.mark.parametrize("spec", JOB_QUERIES, ids=lambda s: s.name)
def test_job_groups_within_budget(imdb, imdb_store, spec):
    _check_budgets(imdb, imdb_store, spec)


@pytest.mark.parametrize("spec", ALL_LDBC, ids=lambda s: s.name)
def test_ldbc_groups_within_budget(ldbc, ldbc_store, spec):
    _check_budgets(ldbc, ldbc_store, spec)


@pytest.mark.parametrize("spec", KHOP_SPECS, ids=lambda s: s.name)
def test_khop_groups_within_budget(tiny, tiny_store, spec):
    _check_budgets(tiny, tiny_store, spec)


def test_fused_tail_with_rhs_in_input_group_is_cut(tiny, tiny_store):
    # e3.timestamp > e2.timestamp: e2 lives in the group the fused
    # count tail extends, so each piece must repeat only its own rows.
    spec = next(s for s in KHOP_SPECS if s.name == "chain-3hop-fwd")
    scan, sink = compile_lbp(tiny_store, spec, block_size=3)
    # The chain count hands its input to the tail until it has expanded
    # the chain's edges.
    tail = sink.hops[-1]
    assert isinstance(tail, PhysExtendFilterCount)
    assert any(p.rhs_var == "e2" for p in tail.preds)
    pieces = []
    real_count = tail._count

    def count(group, rows, *rest):
        pieces.append((group.size, rows.stop - rows.start))
        real_count(group, rows, *rest)

    tail._count = count
    scan.run()
    assert any(n_rows < size for size, n_rows in pieces)
    _same(sink.count, _duckdb(tiny, spec))


def _peak_bytes(store, spec, block_size):
    tracemalloc.start()
    try:
        n = run_lbp(store, spec, block_size=block_size)
        return n, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_path_memory_bounded_by_block_size():
    # Intermediate memory is bounded by the budget, not by degree^hops:
    # with 42x as many 3-hop as 2-hop results the peak stays below twice
    # the 2-hop peak (whole-group expansion peaked at ~280 MB here).
    data = wiki_like(sf=0.02)
    elabel, vlabel, prop = _dataset_params(data)
    store = GraphStore.build(data, StorageConfig.gf_cl())
    block_size = 4096
    n2, peak2 = _peak_bytes(
        store, khop_filter_spec(elabel, vlabel, prop, 2), block_size
    )
    n3, peak3 = _peak_bytes(
        store, khop_filter_spec(elabel, vlabel, prop, 3), block_size
    )
    assert n3 > 40 * n2
    assert peak3 < 2 * peak2
    assert peak3 < 512 * block_size


def test_prefix_sum_memory_bounded_by_edges(wiki):
    # A literal FILTER tail keeps one int64 prefix sum per edge of its CSR
    # and builds it in block_size pieces, so the peak stays near 8 bytes
    # per edge plus the budget's share (a whole-CSR build held ~26 bytes
    # per edge, its property block, nulls and mask at once).
    elabel, vlabel, prop = _dataset_params(wiki)
    store = GraphStore.build(wiki, StorageConfig.gf_cl())
    n_edges = store.edge(elabel).csr("fwd").n_edges
    block_size = 256
    assert n_edges > 64 * block_size
    spec = khop_filter_spec(elabel, vlabel, prop, 2)
    scan, sink = compile_lbp(store, spec, block_size=block_size)
    tracemalloc.start()
    try:
        scan.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.cum is not None
    assert sink.count == run_lbp(store, spec)
    assert peak < 8 * (n_edges + 1) + 512 * block_size
