"""Volcano-style tuple-at-a-time processing (paper §6 baseline, §8.6).

The same logical plan as LBP, executed one tuple at a time through
chained Python generators (the iterator-call-per-tuple model of
Graefe's Volcano that GF-RV and Neo4j use). Three storage adapters:

- :class:`ColumnarAdapter` — GF-CV: Volcano over the columnar
  :class:`GraphStore` (isolates processing-model differences, §8.6);
- :class:`RowStore` (from ``rv_model``) — GF-RV: interpreted attribute
  layout rows + int64 CSRs;
- :class:`LinkedStore` — neo4j_sim: linked property/adjacency records.

All adapters expose ``scan`` / ``adj_iter`` / ``vprop`` / ``eprop``.
"""
from __future__ import annotations

import pandas as pd

from repro.proc.expressions import scalar_op
from repro.proc.plan import (
    ExtendStep,
    FilterStep,
    Predicate,
    QuerySpec,
    ScanStep,
    compile_logical,
)
from repro.storage.graph_store import GraphStore


class ColumnarAdapter:
    """Scalar access to the columnar store for the GF-CV configuration."""

    def __init__(self, store: GraphStore) -> None:
        self.store = store

    def scan(self, label: str):
        return range(self.store.n_vertices[label])

    def adj_iter(self, edge_label: str, v: int, direction: str):
        es = self.store.edge(edge_label)
        single = es.eprop_kind in ("src_vcol", "dst_vcol")
        by_input = single and es.eprop_keyed_by_input(direction)
        if es.storage_kind(direction) == "vcol":
            nbr = es.nbr_vcol(direction).get_one(v)
            if nbr is None:
                return
            nbr = int(nbr)
            eref = None
            if single:
                eref = v if by_input else nbr
            yield nbr, eref
            return
        csr = es.csr(direction)
        start, end = csr.range_of(v)
        for i in range(start, end):
            nbr = int(csr.nbr[i])
            if single:
                eref = v if by_input else nbr
            elif es.eprop_kind is not None:
                eref = (csr, direction, i)  # addressed when read
            else:
                eref = None
            yield nbr, eref

    def vprop(self, label: str, v: int, prop: str):
        return self.store.vprops[label][prop].get_one(v)

    def eprop(self, edge_label: str, eref, prop: str):
        es = self.store.edge(edge_label)
        if es.eprop_kind in ("pages", "edge_columns"):
            return es.eprops.read_one(prop, es.eprop_addr(*eref))
        return es.eprops[prop].get_one(eref)


def _operand(adapter, spec: QuerySpec, env: dict, var: str, prop: str):
    if var in spec.vertices:
        return adapter.vprop(spec.vertices[var], env[var], prop)
    edge = spec.edge_of_var(var)
    return adapter.eprop(edge.label, env[var], prop)


def _check(adapter, spec: QuerySpec, env: dict, p: Predicate) -> bool:
    lhs = _operand(adapter, spec, env, p.var, p.prop)
    rhs = (
        _operand(adapter, spec, env, p.rhs_var, p.rhs_prop)
        if p.rhs_var
        else p.value
    )
    return scalar_op(p.op, lhs, rhs)


def run_volcano(adapter, spec: QuerySpec, *, scan_range=None):
    """Pull-based execution: a chain of generators, one env dict mutated
    tuple-at-a-time. Returns int (count) or a DataFrame (projections)."""
    steps = compile_logical(spec)
    env: dict = {}

    def source():
        s = steps[0]
        assert isinstance(s, ScanStep)
        it = adapter.scan(s.label)
        if scan_range is not None:
            it = range(scan_range[0], scan_range[1])
        for v in it:
            env[s.var] = v
            yield env

    def wrap(child, step):
        if isinstance(step, ExtendStep):
            def gen():
                for t in child():
                    for nbr, eref in adapter.adj_iter(
                        step.edge.label, t[step.src_var], step.direction
                    ):
                        t[step.out_var] = nbr
                        if step.edge.var:
                            t[step.edge.var] = eref
                        yield t
            return gen
        if isinstance(step, FilterStep):
            def gen():
                for t in child():
                    if _check(adapter, spec, t, step.pred):
                        yield t
            return gen
        raise TypeError(step)

    pipeline = source
    for step in steps[1:]:
        pipeline = wrap(pipeline, step)

    if spec.returns == "count":
        n = 0
        for _ in pipeline():
            n += 1
        return n
    rows = []
    for t in pipeline():
        rows.append(
            tuple(
                _operand(adapter, spec, t, var, prop)
                for var, prop in spec.returns
            )
        )
    names = [f"{v}_{p}" for v, p in spec.returns]
    return pd.DataFrame(rows, columns=names) if rows else pd.DataFrame(
        {n: [] for n in names}
    )


def run_volcano_df(adapter, spec: QuerySpec, **kw) -> pd.DataFrame:
    res = run_volcano(adapter, spec, **kw)
    if isinstance(res, pd.DataFrame):
        return res
    return pd.DataFrame({"cnt": [res]})
