"""Query specs, logical plans, and SQL generation.

A :class:`QuerySpec` is the fixed-length subgraph pattern + predicates +
RETURN of the paper's query fragment (§2): MATCH / WHERE / RETURN with
either projections or ``count(*)``. One spec compiles to

- a **logical plan** (scan → extend* → filter* → sink) shared by the LBP
  and Volcano executors (``compile_logical``) — a left-deep plan in the
  given join order, the plan style the paper uses for GraphflowDB;
- **SQL text** over the ``v_<label>`` / ``e_<label>`` relational tables
  (``to_sql``) — fed to the DuckDB oracle and to the DuckDB / Spark SQL
  baseline systems of Table 6.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.graphs.schema import GraphSchema


@dataclass(frozen=True)
class Predicate:
    """``var.prop OP value`` or ``var.prop OP rhs_var.rhs_prop``."""

    var: str
    prop: str
    op: str
    value: Any = None
    rhs_var: str | None = None
    rhs_prop: str | None = None

    def vars(self) -> list[str]:
        return [self.var] + ([self.rhs_var] if self.rhs_var else [])


@dataclass(frozen=True)
class QueryEdge:
    src: str
    dst: str
    label: str
    var: str | None = None  # edge variable, when its properties are used


@dataclass
class QuerySpec:
    """A fixed-length pattern query against a :class:`GraphSchema`."""

    name: str
    vertices: dict[str, str]  # var -> vertex label
    edges: list[QueryEdge]
    predicates: list[Predicate] = field(default_factory=list)
    returns: Any = "count"  # 'count' | list[(var, prop)]
    join_order: list[str] | None = None  # vertex vars, left-deep

    def edge_of_var(self, evar: str) -> QueryEdge:
        for e in self.edges:
            if e.var == evar:
                return e
        raise KeyError(evar)


# -- logical plan -------------------------------------------------------------


@dataclass(frozen=True)
class ScanStep:
    var: str
    label: str


@dataclass(frozen=True)
class ExtendStep:
    edge: QueryEdge
    direction: str  # 'fwd' | 'bwd'
    src_var: str  # the bound variable we extend from
    out_var: str


@dataclass(frozen=True)
class FilterStep:
    pred: Predicate


def compile_logical(spec: QuerySpec) -> list:
    """Left-deep plan: scan the first join-order var, extend one query
    edge at a time, applying each predicate as soon as its vars are bound."""
    order = spec.join_order or _default_order(spec)
    start = order[0]
    steps: list = [ScanStep(start, spec.vertices[start])]
    bound = {start}
    applied: set[int] = set()

    def apply_ready_filters() -> None:
        for i, p in enumerate(spec.predicates):
            if i in applied:
                continue
            if all(v in bound for v in p.vars()):
                steps.append(FilterStep(p))
                applied.add(i)

    apply_ready_filters()
    remaining = list(spec.edges)
    while remaining:
        # Prefer the edge that binds the next var in the join order.
        want = next((v for v in order if v not in bound), None)
        connectable = [
            e for e in remaining if (e.src in bound) ^ (e.dst in bound)
        ]
        assert connectable, "pattern is disconnected or cyclic"
        pick = next(
            (
                e
                for e in connectable
                if (e.dst if e.src in bound else e.src) == want
            ),
            connectable[0],
        )
        remaining.remove(pick)
        direction = "fwd" if pick.src in bound else "bwd"
        src_var = pick.src if direction == "fwd" else pick.dst
        out_var = pick.dst if direction == "fwd" else pick.src
        steps.append(ExtendStep(pick, direction, src_var, out_var))
        bound.add(out_var)
        if pick.var:
            bound.add(pick.var)
        apply_ready_filters()
    assert len(applied) == len(spec.predicates), "disconnected predicate"
    return steps


def _default_order(spec: QuerySpec) -> list[str]:
    order = []
    for e in spec.edges:
        for v in (e.src, e.dst):
            if v not in order:
                order.append(v)
    if not order:  # edge-less pattern: a single scanned vertex
        order = list(spec.vertices)
    return order


def needed_eprops(spec: QuerySpec, evar: str) -> list[str]:
    """Edge properties of ``evar`` referenced by predicates or RETURN."""
    props = []
    for p in spec.predicates:
        if p.var == evar and p.prop not in props:
            props.append(p.prop)
        if p.rhs_var == evar and p.rhs_prop not in props:
            props.append(p.rhs_prop)
    if spec.returns != "count":
        for v, pr in spec.returns:
            if v == evar and pr not in props:
                props.append(pr)
    return props


# -- SQL generation ------------------------------------------------------------


def _sql_literal(v: Any) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(_sql_literal(x) for x in v) + ")"
    return repr(v)


def _like_pattern(s: str) -> str:
    # DuckDB and Spark SQL disagree on default LIKE escape characters, so
    # we simply require literals free of LIKE metacharacters (ours all are).
    assert "%" not in s and "_" not in s, f"LIKE metachar in literal {s!r}"
    return s


def _pred_sql(spec: QuerySpec, p: Predicate, alias: dict[str, str]) -> str:
    lhs = f"{alias[p.var]}.{p.prop}"
    if p.rhs_var is not None:
        rhs = f"{alias[p.rhs_var]}.{p.rhs_prop}"
        # Both agree with scalar_op on an empty rhs (true) and on NULL.
        if p.op == "contains":
            return f"position({rhs} IN {lhs}) > 0"
        if p.op == "startswith":
            return f"substr({lhs}, 1, length({rhs})) = {rhs}"
        if p.op == "in":
            raise ValueError(f"IN takes a literal list, not {rhs}")
        return f"{lhs} {p.op} {rhs}"
    if p.op == "contains":
        return f"{lhs} LIKE {_sql_literal('%' + _like_pattern(str(p.value)) + '%')}"
    if p.op == "startswith":
        return f"{lhs} LIKE {_sql_literal(_like_pattern(str(p.value)) + '%')}"
    if p.op == "in":
        return f"{lhs} IN {_sql_literal(list(p.value))}"
    return f"{lhs} {p.op} {_sql_literal(p.value)}"


def to_sql(spec: QuerySpec, schema: GraphSchema | None = None) -> str:
    """Equivalent SQL over the relational form (oracle + RDBMS baselines).

    The table and column names come from ``spec`` alone; ``schema`` is
    accepted, and unused, for the callers that pass it positionally."""
    alias: dict[str, str] = {v: v for v in spec.vertices}
    joins = []
    seen = set()
    first = (spec.join_order or _default_order(spec))[0]
    from_clause = f"v_{spec.vertices[first]} AS {first}"
    seen.add(first)
    remaining = list(spec.edges)
    i = 0
    while remaining:
        e = next(
            (x for x in remaining if x.src in seen or x.dst in seen),
            remaining[0],
        )
        remaining.remove(e)
        evar = e.var or f"__e{i}"
        i += 1
        alias[e.var or evar] = evar
        conds = []
        if e.src in seen:
            conds.append(f"{evar}.src = {e.src}._id")
        if e.dst in seen:
            conds.append(f"{evar}.dst = {e.dst}._id")
        joins.append(f"JOIN e_{e.label} AS {evar} ON " + " AND ".join(conds))
        for endpoint, col in ((e.src, "src"), (e.dst, "dst")):
            if endpoint not in seen:
                joins.append(
                    f"JOIN v_{spec.vertices[endpoint]} AS {endpoint} "
                    f"ON {endpoint}._id = {evar}.{col}"
                )
                seen.add(endpoint)
    where = " AND ".join(_pred_sql(spec, p, alias) for p in spec.predicates)
    if spec.returns == "count":
        select = "COUNT(*) AS cnt"
    else:
        select = ", ".join(
            f"{alias[v]}.{pr} AS {v}_{pr}" for v, pr in spec.returns
        )
    sql = f"SELECT {select} FROM {from_clause} " + " ".join(joins)
    if where:
        sql += f" WHERE {where}"
    return sql
