"""Differential test of the LBP planner against DuckDB on generated queries.

A derandomized hypothesis strategy builds paths and stars of 1–3 edges
over ``ldbc_lite`` and ``imdb_lite`` in a random join order, so extends
run forward and backward, over CSRs and vertex columns. Predicates
compare a property to a literal or to another property (vertex vs
vertex, edge vs vertex, edge vs edge) over numeric, dictionary,
raw-string and NULL-heavy columns, string pairs also by CONTAINS and
STARTS WITH; half the paths are inequality chains
(each edge compared with the one before it), and a third of the stars
stack two to four literals on one extend, dictionary or numeric ones
mixed with raw-string CONTAINS / STARTS WITH. A third of the other
queries grow one or two leaf arms: an edge to a new vertex that no
predicate or output reads, joined right after the vertex it hangs from,
so its lists stay unflat as row multiplicities. Outputs are count(*) or
one or two projections, at ``block_size`` 1, 3 or the default. Each query's
``run_lbp_df`` result must equal DuckDB's over ``to_sql``.

Every choice comes from one ``random.Random`` that hypothesis seeds, so
choices are uniform: hypothesis's own draws lean to the first element.

The run is bounded: a query is drawn again when its largest intermediate
(the tuples an extend emits before its filters, counted by DuckDB) would
need more than :data:`MAX_GROUPS` groups at its block size, or exceeds
:data:`MAX_TUPLES`.
"""
import math

import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.proc.lbp import run_lbp_df
from repro.proc.operators import BLOCK_SIZE
from repro.proc.plan import ExtendStep, FilterStep, Predicate, QueryEdge
from repro.proc.plan import QuerySpec, compile_logical, to_sql

MAX_GROUPS = 3000
MAX_TUPLES = 200_000
CMP = ["=", "<>", "<", "<=", ">", ">="]
STR_OPS = ["=", "<>", "<", ">=", "contains", "startswith", "in"]


class Env:
    """A dataset, its GF-CL store, a DuckDB connection over its tables and
    the non-NULL values of every property, to draw literals from."""

    def __init__(self, data, store) -> None:
        self.data, self.store, self.schema = data, store, data.schema
        self.con = duckdb.connect()
        for name, table in data.sql_tables().items():
            self.con.register(name, table)
        self.values, self.kinds = {}, {}
        for labels, tables in (
            (self.schema.vertices, data.vtables),
            (self.schema.edges, data.etables),
        ):
            for name, label in labels.items():
                for p in label.props:
                    col = tables[name][p.name]
                    self.values[name, p.name] = sorted(col.dropna().unique().tolist())
                    self.kinds[name, p.name] = (
                        "nulls" if col.isna().any()
                        else "dict" if p.categorical
                        else "str" if p.dtype == "str" else "num"
                    )

    def count(self, spec: QuerySpec) -> int:
        return int(self.con.execute(to_sql(spec)).fetchone()[0])

    def result(self, spec: QuerySpec) -> pd.DataFrame:
        return self.con.execute(to_sql(spec)).fetchdf()


@pytest.fixture(scope="module")
def envs(ldbc, ldbc_store, imdb, imdb_store):
    out = {"ldbc": Env(ldbc, ldbc_store), "imdb": Env(imdb, imdb_store)}
    yield out
    for env in out.values():
        env.con.close()


def _leaf_arms(rnd, schema, vertices, edges) -> dict[str, str]:
    """Add one or two edges, each from a vertex of the pattern to a new
    one; returns each new vertex's anchor."""
    anchors = {}
    for anchor in rnd.sample(sorted(vertices), 1) * rnd.randint(1, 2):
        incident = [
            (e, side)
            for e in schema.edges.values()
            for side in ("src", "dst")
            if getattr(e, side) == vertices[anchor]
        ]
        e, side = rnd.choice(incident)
        new = f"v{len(vertices)}"
        vertices[new] = e.dst if side == "src" else e.src
        ends = (anchor, new) if side == "src" else (new, anchor)
        edges.append(QueryEdge(*ends, e.name))
        anchors[new] = anchor
    return anchors


def _pattern(rnd, schema, star: bool):
    """``(vertices, edges)`` of a path or star of 1–3 edges."""
    n_edges = rnd.randint(1, 3)
    # Three in four patterns start at, and three in four edges are drawn
    # among, edges with properties, so edge predicates come up often.
    propped = rnd.random() < 0.75
    labels = sorted(
        v for v in schema.vertices
        if any(
            v in (e.src, e.dst) and (e.props or not propped)
            for e in schema.edges.values()
        )
    )
    vertices = {"v0": rnd.choice(labels)}
    edges = []
    for i in range(n_edges):
        anchor = "v0" if star else f"v{i}"
        incident = [
            (e, side)
            for e in schema.edges.values()
            for side in ("src", "dst")
            if getattr(e, side) == vertices[anchor]
        ]
        with_props = [(e, side) for e, side in incident if e.props]
        if with_props and rnd.random() < 0.75:
            incident = with_props
        e, side = rnd.choice(incident)
        new = f"v{i + 1}"
        vertices[new] = e.dst if side == "src" else e.src
        ends = (anchor, new) if side == "src" else (new, anchor)
        edges.append(QueryEdge(*ends, e.name, f"e{i}" if e.props else None))
    return vertices, edges


def _operands(env, vertices, edges):
    """Every ``(var, label, PropSpec)`` the query can read, grouped by
    vertex or edge and by the kind of column: NULL-bearing, dictionary,
    raw string or numeric."""
    ops = [
        (v, label, p)
        for v, label in vertices.items()
        for p in env.schema.vertices[label].props
    ] + [
        (e.var, e.label, p)
        for e in edges if e.var
        for p in env.schema.edges[e.label].props
    ]
    groups = {}
    for o in ops:
        side = groups.setdefault(o[0] in vertices, {})
        side.setdefault(env.kinds[o[1], o[2].name], []).append(o)
    return groups


def _pick_operand(rnd, groups, keep=lambda o: True):
    """An operand passing ``keep``: vertex or edge side, then column
    kind, each drawn evenly among those holding one, so edge properties
    and rare column kinds come up as often as the others."""
    sides = [
        [pool for pool in pools if pool] for pools in (
            [[o for o in pool if keep(o)] for pool in side.values()]
            for side in groups.values()
        )
    ]
    return rnd.choice(rnd.choice(rnd.choice([s for s in sides if s])))


def _adjacent(var: str, edges) -> set[str]:
    """``var``, and the variables one edge away from it: a vertex's edges
    and neighbours, an edge's endpoints and the edges sharing one."""
    out = {var}
    for e in edges:
        if var in (e.src, e.dst, e.var):
            out |= {e.src, e.dst, e.var}
    if any(e.var == var for e in edges):
        ends = set(out)
        out |= {e.var for e in edges if ends & {e.src, e.dst}}
    out.discard(None)
    return out


def _is_str(p) -> bool:
    return p.dtype == "str"


def _literal_pred(rnd, env, var, label, p, op=None) -> Predicate:
    values = env.values[label, p.name]
    if _is_str(p):
        op = op or rnd.choice(STR_OPS)
        if op in ("contains", "startswith"):
            # SQL LIKE patterns: keep literals free of its metacharacters.
            values = [v for v in values if "%" not in v and "_" not in v]
        values = values or [""]
        v = rnd.choice(values)
        if op == "contains":
            i = rnd.randint(0, len(v))
            value = v[i:i + rnd.randint(0, 4)]
        elif op == "startswith":
            value = v[:rnd.randint(0, len(v))]
        elif op == "in":
            value = rnd.sample(values, min(len(values), rnd.randint(1, 3)))
        else:
            value = v
        return Predicate(var, p.name, op, value)
    op = rnd.choice(CMP + ["in"])
    values = values or [0]
    if op == "in":
        return Predicate(
            var, p.name, op,
            rnd.sample(values, min(len(values), rnd.randint(1, 3))),
        )
    value = int(rnd.choice(values)) + rnd.choice([-1, 0, 1])
    return Predicate(var, p.name, op, value + rnd.choice([0, 0.5]))


def _stacked(rnd, env, vertices, edges) -> list[Predicate]:
    """Two to four literal predicates that one extend of a star fuses:
    on one edge's far vertex and the edge itself, dictionary or numeric
    ones mixed with raw-string CONTAINS / STARTS WITH, on NULL-heavy raw
    columns where there are some. Empty when there is no such mix."""
    e = rnd.choice(edges)
    far = e.dst if e.src == "v0" else e.src
    ops = [(far, vertices[far], p) for p in env.schema.vertices[vertices[far]].props]
    if e.var:
        ops += [(e.var, e.label, p) for p in env.schema.edges[e.label].props]
    raw = [o for o in ops if _is_str(o[2]) and not o[2].categorical]
    cheap = [o for o in ops if o not in raw]
    if not raw or not cheap:
        return []
    heavy = [o for o in raw if env.kinds[o[1], o[2].name] == "nulls"] or raw
    picks = [rnd.choice(cheap)] + rnd.sample(heavy, min(len(heavy), rnd.randint(1, 2)))
    preds = [_literal_pred(rnd, env, *picks[0])] + [
        _literal_pred(rnd, env, *o, op=rnd.choice(["contains", "startswith"]))
        for o in picks[1:]
    ]
    if rnd.random() < 0.5:
        preds.append(_literal_pred(rnd, env, *rnd.choice(cheap)))
    rnd.shuffle(preds)  # the planner, not the query, orders them
    return preds


@st.composite
def queries(draw, envs):
    rnd = draw(st.randoms(use_true_random=True))
    env = envs[rnd.choice(sorted(envs))]
    star = rnd.random() < 0.5
    vertices, edges = _pattern(rnd, env.schema, star)
    groups = _operands(env, vertices, edges)
    preds, n_preds = [], rnd.randint(0, 3)
    chain = not star and rnd.random() < 0.5
    # A third of the stars stack literals on one extend, joined from the
    # centre so that extend binds the far vertex.
    stacked = star and rnd.random() < 1 / 3 and _stacked(rnd, env, vertices, edges)
    if stacked:
        preds, n_preds = stacked, rnd.randint(0, 1)
    if chain:
        # An inequality-chained path (Table 3): each edge compared with
        # the one before it, at most one more predicate, a literal on an
        # edge, joined from either end and counted: the shape the chain
        # count fuses.
        for prev, e in zip(edges, edges[1:]):
            p = e.var and rnd.choice(env.schema.edges[e.label].props)
            qs = [
                q for q in env.schema.edges[prev.label].props
                if p and _is_str(q) == _is_str(p)
            ]
            if prev.var and qs:
                preds.append(Predicate(
                    e.var, p.name, rnd.choice(["<", "<=", ">", ">="]),
                    rhs_var=prev.var, rhs_prop=rnd.choice(qs).name,
                ))
        n_preds = rnd.randint(0, 1) if False in groups else 0
    for _ in range(n_preds if groups else 0):
        var, label, p = _pick_operand(rnd, {False: groups[False]} if chain else groups)
        if chain or rnd.random() < 0.5:
            preds.append(_literal_pred(rnd, env, var, label, p))
            continue
        # Half the time the right-hand side is on an adjacent variable:
        # an edge's endpoints or the edges sharing a vertex with it, the
        # shapes the count tails and chain counts fuse.
        near = _adjacent(var, edges) if rnd.random() < 0.5 else None
        # Strings of two different columns seldom contain one another, so
        # CONTAINS and STARTS WITH compare a property with itself, on the
        # same or another variable: half the string pairs, the rest CMP.
        same = _is_str(p) and rnd.random() < 0.5
        rvar, _, rp = _pick_operand(
            rnd, groups,
            lambda o: _is_str(o[2]) == _is_str(p) and (
                near is None or o[0] in near
            ) and (not same or o[2] is p),
        )
        op = rnd.choice(["contains", "startswith"] if same else CMP)
        preds.append(Predicate(var, p.name, op, rhs_var=rvar, rhs_prop=rp.name))
    if chain or not groups or rnd.random() < 2 / 3:
        returns = "count"  # the count tails and chain counts are fusions
    else:
        picks = {
            _pick_operand(rnd, groups)[::2] for _ in range(rnd.randint(1, 2))
        }
        returns = [(var, p.name) for var, p in sorted(picks, key=str)]
    leaves = (
        _leaf_arms(rnd, env.schema, vertices, edges)
        if not chain and rnd.random() < 1 / 3 else {}
    )
    order = [v for v in vertices if v not in leaves]
    if not chain:
        rnd.shuffle(order)
    elif rnd.random() < 0.5:
        order.reverse()  # a chain is joined from one end or the other
    if stacked:
        order.remove("v0")
        order.insert(0, "v0")
    for leaf, anchor in leaves.items():
        order.insert(order.index(anchor) + 1, leaf)
    spec = QuerySpec("fuzz", vertices, edges, preds, returns, order)
    return env, spec, rnd.choice([1, 3, BLOCK_SIZE])


def _largest_intermediate(env: Env, spec: QuerySpec) -> int:
    """The most tuples any extend of ``spec``'s plan emits before its
    filters: the count of its prefix pattern under the earlier filters."""
    bound, edges, preds, most = [], [], [], 0
    for step in compile_logical(spec):
        if isinstance(step, FilterStep):
            preds.append(step.pred)
            continue
        if not isinstance(step, ExtendStep):
            bound.append(step.var)
            continue
        bound.append(step.out_var)
        edges.append(step.edge)
        prefix = QuerySpec(
            "prefix", {v: spec.vertices[v] for v in bound}, list(edges),
            list(preds), "count", list(bound),
        )
        most = max(most, env.count(prefix))
    return most


def _norm(v):
    if v is None or v is pd.NA or (isinstance(v, float) and math.isnan(v)):
        return None
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return v


def _rows(df: pd.DataFrame) -> list[tuple]:
    rows = [tuple(_norm(v) for v in r) for r in df.itertuples(index=False)]
    return sorted(rows, key=lambda r: [(v is None, 0 if v is None else v) for v in r])


@settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(data=st.data())
def test_lbp_matches_duckdb(envs, data):
    env, spec, block_size = data.draw(queries(envs))
    work = _largest_intermediate(env, spec)
    assume(work <= MAX_TUPLES and work <= MAX_GROUPS * block_size)
    got = run_lbp_df(env.store, spec, block_size=block_size)
    want = env.result(spec)
    assert list(got.columns) == list(want.columns)
    assert _rows(got) == _rows(want), (spec, block_size)
