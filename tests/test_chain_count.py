"""Inequality-chained paths counted from per-edge suffix weights.

A count(*) over a chain of CSR extends whose consecutive edges are
compared by ``<``, ``<=``, ``>`` or ``>=`` gets a counter
(:class:`PhysExtendFilterCount`) after its first extend. Once the second
hop would have expanded more positions than the chain has edges, it
builds per-edge suffix weights once and counts each later row with one
binary search; until then the chain's extends feed :class:`CountSink`. These tests check its
answers against DuckDB under every storage configuration, at budgets
that put the build mid-query, on int and float properties with ties and
NULLs, and check the shapes it must leave to the pipeline.
"""
import gc
import weakref

import numpy as np
import pandas as pd
import pytest

from repro.bench.prop_pages import khop_spec
from repro.bench.queries_job import JOB_QUERIES
from repro.bench.queries_ldbc import ALL_LDBC
from repro.graphs.data import GraphData
from repro.graphs.datasets import _with_nulls
from repro.graphs.schema import GraphSchema
from repro.graphs.schema import PropSpec as P
from repro.proc.distributed import scan_ranges
from repro.proc.lbp import compile_lbp, run_lbp
from repro.proc.operators import BLOCK_SIZE, PhysExtendFilterCount
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec
from repro.storage.graph_store import GraphStore, StorageConfig
from tests.test_fast_paths import _complete_digraph_store
from tests.test_prefix_count import BUDGETS, CONFIGS, _duckdb_count

_TAGS = np.array(["red", "green", "blue"], dtype=object)
#: int64 values too far apart for ``list start · range`` keys.
_BIG = np.array([-(2 ** 62), -5, 0, 2 ** 61, 2 ** 62 - 1], dtype=np.int64)


@pytest.fixture(scope="module")
def data():
    """16 nodes; an n-n ``rel`` (average degree 8) and a 1-n ``kid``
    edge label, each with an int ``w``, a float ``f`` and an int ``big``
    spanning int64, drawn from a few values (ties) with NULLs, plus a
    dictionary ``tag`` and a raw-string ``note``. The last three nodes have no out-edges and the
    first three no in-edges."""
    g = np.random.default_rng(23)
    n = 16
    sch = GraphSchema()
    sch.add_vertex("node", P("id"), P("x"))
    props = (P("w"), P("f", "float64"), P("big"), P("tag", "str", True),
             P("note", "str"))
    sch.add_edge("rel", "node", "node", "n-n", *props)
    sch.add_edge("kid", "node", "node", "1-n", *props)

    def table(src, dst):
        m = len(src)
        return pd.DataFrame({
            "src": src, "dst": dst,
            "w": _with_nulls(g, g.integers(0, 8, m), 0.25),
            "f": _with_nulls(g, g.integers(0, 12, m) / 4, 0.25),
            "big": _with_nulls(g, g.choice(_BIG, m), 0.25),
            "tag": _with_nulls(g, g.choice(_TAGS, m), 0.3),
            "note": _with_nulls(
                g, np.array([f"n{v}" for v in g.integers(0, 9, m)], object), 0.3
            ),
        })

    et = {
        "rel": table(g.integers(0, n - 3, 104), g.integers(3, n, 104)),
        "kid": table(g.integers(0, n - 3, 10),
                     g.choice(np.arange(3, n), 10, replace=False)),
    }
    vt = {"node": pd.DataFrame({
        "_id": np.arange(n), "id": np.arange(n), "x": g.integers(0, 5, n),
    })}
    out = GraphData(sch, vt, et)
    out.validate()
    return out


@pytest.fixture(scope="module")
def stores(data):
    return {name: GraphStore.build(data, cfg) for name, cfg in CONFIGS}


def _band(k: int, prop: str, op: str, rhs_prop: str | None = None,
          flipped: bool = False) -> Pr:
    """``e{k}.prop OP e{k-1}.rhs_prop``, or the same written with
    ``e{k-1}`` on the left when ``flipped``."""
    mirror = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
    rhs_prop = rhs_prop or prop
    if flipped:
        return Pr(f"e{k - 1}", rhs_prop, mirror[op], rhs_var=f"e{k}",
                  rhs_prop=prop)
    return Pr(f"e{k}", prop, op, rhs_var=f"e{k - 1}", rhs_prop=rhs_prop)


def _chain(name, labels, preds, order="fwd", reverse=()) -> QuerySpec:
    """A path v0 - e1 - v1 - ... over ``labels``; hop ``k`` in
    ``reverse`` points from v_k back to v_{k-1}. ``order``: ``fwd``,
    ``bwd`` or ``mid`` (start at v1, go forward, then back to v0)."""
    vs = [f"v{i}" for i in range(len(labels) + 1)]
    edges = [
        E(vs[k], vs[k - 1], lab, f"e{k}") if k in reverse
        else E(vs[k - 1], vs[k], lab, f"e{k}")
        for k, lab in enumerate(labels, 1)
    ]
    join = {"fwd": vs, "bwd": vs[::-1], "mid": vs[1:] + vs[:1]}[order]
    return QuerySpec(name, {v: "node" for v in vs}, edges, preds, "count", join)


#: Chains the fusion takes, over 2–4 hops, in forward, backward and mixed
#: join orders and edge directions, with bands on int, float and mixed
#: operands, written on either side, with and without literal bounds.
SHAPES = {
    "2-fwd-gt": _chain("c", ["rel"] * 2, [
        Pr("e1", "w", ">=", 2), _band(2, "w", ">")]),
    "2-bwd-le-flipped": _chain("c", ["rel"] * 2, [
        Pr("e2", "f", "<", 2.0), _band(2, "w", "<=", flipped=True)], "bwd"),
    "3-fwd-float": _chain("c", ["rel"] * 3, [
        _band(2, "f", "<"), _band(3, "f", ">=", flipped=True),
        Pr("e3", "f", ">", 0.5)]),
    "3-bwd-mixed-dtypes": _chain("c", ["rel"] * 3, [
        Pr("e1", "w", "<>", 3), _band(2, "w", ">", "f"),
        _band(3, "f", "<=", "w")], "bwd"),
    "3-reversed-middle-edge": _chain("c", ["rel"] * 3, [
        _band(2, "w", ">="), _band(3, "w", "<", flipped=True)],
        reverse=(2,)),
    "3-int64-range": _chain("c", ["rel"] * 3, [
        _band(2, "big", ">="), _band(3, "big", "<", "w")], "bwd"),
    "3-band-free-middle": _chain("c", ["rel"] * 3, [
        Pr("e2", "w", ">", 1), _band(3, "w", ">")]),
    "3-band-then-free": _chain("c", ["rel"] * 3, [
        _band(2, "f", ">"), Pr("e3", "tag", "=", "red")], "bwd"),
    "3-kid-middle": _chain("c", ["rel", "kid", "rel"], [
        _band(2, "w", "<"), _band(3, "f", ">=")]),
    "3-kid-reversed": _chain("c", ["rel", "kid", "rel"], [
        _band(2, "w", "<"), _band(3, "f", ">=")], reverse=(2,)),
    "4-fwd": _chain("c", ["rel"] * 4, [
        _band(2, "w", ">="), _band(3, "f", ">"),
        _band(4, "w", "<=", flipped=True), Pr("e4", "w", "<", 6)]),
    "4-bwd": _chain("c", ["rel"] * 4, [
        _band(2, "w", ">="), _band(3, "w", ">="), _band(4, "w", ">="),
        Pr("e4", "note", "contains", "n")], "bwd"),
    "4-mid-order": _chain("c", ["rel"] * 4, [
        _band(2, "w", ">="), _band(3, "w", ">="), _band(4, "f", "<"),
        Pr("e1", "f", "<=", 1.0)], "mid"),
}


def _is_chain(sink) -> bool:
    """Whether ``sink`` is a counter over a band chain."""
    return isinstance(sink, PhysExtendFilterCount) and any(
        b is not None for b in sink.bands
    )


def _run(store, spec, budget, *, build_first=False):
    """``(count, chain, builds)``: the answer, the plan's chain counter
    (or None) and how often it built its suffix weights. ``build_first``
    lowers the chain's threshold so that it builds on its first group
    with a position to expand."""
    scan, sink = compile_lbp(store, spec, block_size=budget)
    builds = []
    if _is_chain(sink):
        build = sink._build
        sink._build = lambda: builds.append(1) or build()
        if build_first:
            sink.n_edges = 0
    scan.run()
    return sink.count, sink if _is_chain(sink) else None, len(builds)


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("config", [name for name, _ in CONFIGS])
def test_chain_matches_duckdb(data, stores, config, shape):
    spec = SHAPES[shape]
    want = _duckdb_count(data, spec)
    for budget in BUDGETS:
        got, chain, builds = _run(stores[config], spec, budget)
        assert got == want, (config, shape, budget)
        assert builds <= 1
        if chain is None:
            continue
        # The same chain counted from the suffix weights alone.
        got, _, builds = _run(stores[config], spec, budget, build_first=True)
        assert got == want and builds == 1, (config, shape, budget)


def test_fusion_takes_csr_chains(stores):
    # A 1-n ``kid`` edge read backward is a vertex column, except in the
    # CSR-ONLY store, so only that store fuses the chain through it; the
    # middle-start order extends back from v1, not from the last
    # out-vertex.
    fused = {
        (config, shape)
        for config in stores for shape, spec in SHAPES.items()
        if _is_chain(compile_lbp(stores[config], spec)[1])
    }
    for config in stores:
        for shape in SHAPES:
            want = shape != "4-mid-order" and (
                shape != "3-kid-reversed" or config == "CSR-ONLY"
            )
            assert ((config, shape) in fused) == want, (config, shape)


@pytest.mark.parametrize("flipped", [False, True])
@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
@pytest.mark.parametrize("prop", ["w", "f"])
@pytest.mark.parametrize("order", ["fwd", "bwd"])
def test_each_band_op(data, stores, order, prop, op, flipped):
    spec = _chain("c", ["rel"] * 3, [
        _band(2, prop, op, flipped=flipped), _band(3, prop, op, flipped=flipped),
    ], order)
    want = _duckdb_count(data, spec)
    for budget in BUDGETS:
        got, chain, builds = _run(stores["+NULL"], spec, budget)
        assert chain is not None and got == want, budget
        # Every hop's edges reach every node here: the build happens.
        assert builds == 1


@pytest.mark.parametrize("shape", ["2-fwd-gt", "3-bwd-mixed-dtypes", "4-fwd"])
def test_scan_ranges_sum_to_whole(stores, shape):
    spec, store = SHAPES[shape], stores["+NULL"]
    whole = run_lbp(store, spec)
    for parts in (2, 3, 7):
        ranges = scan_ranges(store.n_vertices["node"], parts)
        assert sum(run_lbp(store, spec, scan_range=r) for r in ranges) == whole


#: Shapes the fusion must leave to the pipeline.
FALLBACKS = {
    "vertex-literal": _chain("c", ["rel"] * 2, [
        _band(2, "w", ">"), Pr("v1", "x", ">", 1)]),
    "edge-vs-vertex": _chain("c", ["rel"] * 2, [
        _band(2, "w", ">"), Pr("e2", "w", "<", rhs_var="v1", rhs_prop="x")]),
    "non-consecutive": _chain("c", ["rel"] * 3, [
        _band(2, "w", ">"), Pr("e3", "w", ">", rhs_var="e1", rhs_prop="w")]),
    "only-non-consecutive": _chain("c", ["rel"] * 3, [
        Pr("e3", "f", "<=", rhs_var="e1", rhs_prop="f")], "bwd"),
    "raw-string-band": _chain("c", ["rel"] * 2, [_band(2, "note", ">")]),
    "dictionary-band": _chain("c", ["rel"] * 2, [_band(2, "tag", "<=")], "bwd"),
    "equality": _chain("c", ["rel"] * 2, [
        Pr("e2", "w", "=", rhs_var="e1", rhs_prop="w")]),
    "two-bands-one-hop": _chain("c", ["rel"] * 2, [
        _band(2, "w", ">"), _band(2, "f", "<")]),
    "same-edge-compare": _chain("c", ["rel"] * 2, [
        _band(2, "w", ">"), Pr("e2", "w", "<", rhs_var="e2", rhs_prop="f")]),
}


@pytest.mark.parametrize("shape", list(FALLBACKS))
def test_fallback_shapes(data, stores, shape):
    spec = FALLBACKS[shape]
    want = _duckdb_count(data, spec)
    for config in ("+COLS", "+NULL"):
        for budget in (1, BLOCK_SIZE):
            got, chain, _ = _run(stores[config], spec, budget)
            assert chain is None and got == want, (config, budget)


def _with_const(spec, const):
    return QuerySpec(
        spec.name, spec.vertices, spec.edges,
        [Pr(p.var, p.prop, p.op, const) if p.rhs_var is None else p
         for p in spec.predicates],
        spec.returns, spec.join_order,
    )


def test_selective_chain_never_builds(tiny, tiny_store):
    # Few first-hop edges pass: the second hop expands fewer positions
    # than the chain has edges, so the pipeline counts every path.
    ts = np.sort(tiny.etables["link"]["timestamp"].to_numpy())
    spec = _with_const(khop_spec("link", "node", "timestamp", 3), int(ts[-6]))
    want = _duckdb_count(tiny, spec)
    for budget in BUDGETS:
        got, chain, builds = _run(tiny_store, spec, budget)
        assert got == want
        assert builds == 0 and chain.weights is None
        assert 0 < chain.expanded < chain.n_edges


@pytest.mark.parametrize("direction", ["fwd", "bwd"])
def test_unselective_chain_builds_once(tiny, tiny_store, direction):
    ts = tiny.etables["link"]["timestamp"].to_numpy()
    spec = _with_const(
        khop_spec("link", "node", "timestamp", 3, direction=direction),
        int(ts.min()) - 1,
    )
    want = _duckdb_count(tiny, spec)
    for budget in BUDGETS:
        got, chain, builds = _run(tiny_store, spec, budget)
        assert got == want
        assert builds == 1 and chain.expanded > chain.n_edges


def _ts_chain(hops: int) -> QuerySpec:
    """``e_k.ts >= e_{k-1}.ts`` over ``hops`` hops of ``link``."""
    return _chain("ts", ["link"] * hops, [
        _band(k, "ts", ">=") for k in range(2, hops + 1)
    ])


class TestExactChainCount:
    """With every timestamp equal, every path passes: ``n·(n-1)^k``."""

    @pytest.mark.parametrize("n", [200, 220])
    def test_seven_hops_exact(self, n):
        # 200·199^7 ≈ 2.5e18 and 220·219^7 ≈ 5.3e18: the second above
        # 2^62, where the row counts are summed as Python ints.
        store = _complete_digraph_store(n, StorageConfig.gf_cl(), ts=True)
        scan, sink = compile_lbp(store, _ts_chain(7))
        assert _is_chain(sink)
        scan.run()
        assert sink.count == n * (n - 1) ** 7

    def test_beyond_int64_raises(self):
        store = _complete_digraph_store(200, StorageConfig.gf_cl(), ts=True)
        with pytest.raises(OverflowError):
            run_lbp(store, _ts_chain(8))  # ≈ 4.9e20


def test_plan_frees_its_weights_without_the_cycle_collector(stores):
    # A query's suffix weights die with its compiled plan: no reference
    # cycle keeps them until the cyclic collector happens to run.
    scan, sink = compile_lbp(stores["+NULL"], SHAPES["3-fwd-float"])
    sink.n_edges = 0
    scan.run()
    cum = weakref.ref(sink.weights.cum)
    gc.disable()
    try:
        del scan, sink
        assert cum() is None
    finally:
        gc.enable()


def test_ldbc_and_job_compile_no_chain(ldbc_store, imdb_store):
    # No LDBC or JOB query compares consecutive edges, so neither
    # workload reaches the chain count.
    for store, specs in ((ldbc_store, ALL_LDBC), (imdb_store, JOB_QUERIES)):
        for spec in specs:
            _, sink = compile_lbp(store, spec)
            assert not _is_chain(sink), spec.name
