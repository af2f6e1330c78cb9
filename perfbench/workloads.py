"""The benchmark's four workloads, generated from one workload seed.

Each workload is a dataset, a list of distinct GF-CL queries, and a
seeded draw order over them. One workload seed derives, through
independent random streams:

- the dataset generator seed (stream ``GRAPH``; ``paths-fwd`` and
  ``paths-bwd`` share it, so for one seed they run on the same graph);
- the parameter pools: LDBC ``Person``/``Comment`` ids and the paths
  predicate constants (stream ``PARAMS``);
- the draw order of the timed loop (stream ``ORDER``).

The draw order is a sequence of decks. A deck holds every distinct query
as many times as its template's weight, and each deck is shuffled by the
seed. So every full deck has exactly the designed mix, and the latency
percentiles of a run do not depend on how many times an i.i.d. draw
happened to pick a slow template.

Why each workload exists is recorded at ``WORKLOADS`` below and in
``BENCHMARK.json``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.bench.lbp_vs_volcano import khop_count_spec, khop_filter_spec
from repro.bench.prop_pages import khop_spec
from repro.bench.queries_job import JOB_QUERIES
from repro.bench.queries_ldbc import IC_QUERIES, IS_QUERIES
from repro.graphs.data import GraphData
from repro.graphs.datasets import DATE_HI, DATE_LO, flickr_like, imdb_lite, ldbc_lite
from repro.proc.plan import QuerySpec

GRAPH, PARAMS, ORDER = 0, 1, 2

#: Minimum length of the seeded draw order; the timed loop wraps around it.
ORDER_LEN = 100_000

LDBC_SF = 1.0
IMDB_SF = 1.0
FLICKR_SF = 0.1

#: Parameter pool sizes: distinct LDBC ids per label (one per degree
#: stratum), distinct paths predicate constants (one per selectivity
#: stratum).
ID_POOL = 8
CONST_STRATA = 6


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def dataset_seed(seed: int) -> int:
    return int(rng(seed, GRAPH).integers(1 << 31))


# -- ldbc-interactive ----------------------------------------------------------

# Every template once per id per deck: the mix claims no traffic weights.
_LDBC_TEMPLATES = list(IS_QUERIES) + list(IC_QUERIES)


def _with_id(spec: QuerySpec, label: str, value: int) -> QuerySpec:
    """``spec`` with its ``<label var>.id = …`` constant set to ``value``."""
    preds = [
        replace(p, value=value) if (p.prop, p.op) == ("id", "=") else p
        for p in spec.predicates
    ]
    return replace(spec, name=f"{spec.name}[{label}.id={value}]", predicates=preds)


def _id_label(spec: QuerySpec) -> str:
    labels = {
        spec.vertices[p.var]
        for p in spec.predicates
        if p.prop == "id" and p.op == "=" and p.var in spec.vertices
    }
    (label,) = labels
    return label


def _stratified(g: np.random.Generator, degree: np.ndarray, k: int) -> np.ndarray:
    """One vertex from each of ``k`` equal strata of vertices ranked by
    ``degree``, so every seed's pool spans light and heavy vertices."""
    ranked = np.argsort(degree, kind="stable")
    return np.array([g.choice(stratum) for stratum in np.array_split(ranked, k)])


def ldbc_queries(data: GraphData, g: np.random.Generator):
    # Person queries start from the person's friends; Comment queries
    # from the comment's replies.
    degree = {
        "Person": np.bincount(
            data.etables["knows"]["src"], minlength=data.n_vertices("Person")
        ),
        "Comment": np.bincount(
            data.etables["replyOf"]["dst"], minlength=data.n_vertices("Comment")
        ),
    }
    pools = {label: _stratified(g, d, ID_POOL) for label, d in degree.items()}
    queries = [
        _with_id(spec, _id_label(spec), int(v))
        for spec in _LDBC_TEMPLATES
        for v in pools[_id_label(spec)]
    ]
    return queries, [1] * len(queries)


# -- job-star -----------------------------------------------------------------


def job_queries(data: GraphData, g: np.random.Generator):
    return list(JOB_QUERIES), [1] * len(JOB_QUERIES)


# -- paths-fwd / paths-bwd ---------------------------------------------------


def _constants(g: np.random.Generator) -> list[int]:
    """One constant per selectivity stratum of the uniform timestamps,
    so every seed spans selective to unselective predicates."""
    span = DATE_HI - DATE_LO
    u = g.random(CONST_STRATA)
    return [
        int(DATE_LO + (i + u[i]) * span / CONST_STRATA) for i in range(CONST_STRATA)
    ]


def _with_const(spec: QuerySpec, const: int, direction: str) -> QuerySpec:
    """Set the edge-vs-constant predicate; reverse the join order for a
    backward plan."""
    preds = [
        replace(p, value=const) if p.rhs_var is None else p for p in spec.predicates
    ]
    order = list(spec.join_order)
    if direction == "bwd":
        order.reverse()
    return replace(
        spec,
        name=f"{spec.name}-{direction}[>{const}]",
        predicates=preds,
        join_order=order,
    )


def _path_queries(g: np.random.Generator, direction: str, weights: dict):
    """Chained (Table 3) and last-edge (Table 5 FILTER) k-hop templates,
    one query per predicate constant, with ``weights[template]`` copies
    per deck."""
    templates = {
        "chain2": khop_spec("link", "node", "timestamp", 2, name="chain2"),
        "chain3": khop_spec("link", "node", "timestamp", 3, name="chain3"),
        "filter2": khop_filter_spec("link", "node", "timestamp", 2),
        "filter3": khop_filter_spec("link", "node", "timestamp", 3),
    }
    consts = _constants(g)
    queries, counts = [], []
    for key, spec in templates.items():
        for c in consts:
            queries.append(_with_const(spec, c, direction))
            counts.append(weights[key])
    return queries, counts


# Deck weights place the median inside one template's latency cluster
# and the 90th percentile inside the slowest template's cluster:
# forward, the median falls among 2-hop FILTER queries and the 90th
# percentile among 3-hop FILTER and unselective 3-hop chains; backward,
# the median falls mid-way through the 2-hop chains and the 90th
# percentile among 3-hop chains.
_FWD_WEIGHTS = {"chain2": 2, "filter2": 3, "chain3": 1, "filter3": 1}
_BWD_WEIGHTS = {"chain2": 3, "filter2": 1, "chain3": 1, "filter3": 1}


def paths_fwd_queries(data: GraphData, g: np.random.Generator):
    queries, counts = _path_queries(g, "fwd", _FWD_WEIGHTS)
    # A minority of predicate-free COUNT(*) paths (Table 5 COUNT rows).
    for hops in (2, 3):
        queries.append(khop_count_spec("link", "node", hops))
        counts.append(1)
    return queries, counts


def paths_bwd_queries(data: GraphData, g: np.random.Generator):
    return _path_queries(g, "bwd", _BWD_WEIGHTS)


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    make_data: Callable[[int], GraphData]  # generator seed -> dataset
    #: (data, rng) -> (distinct queries, copies of each per deck)
    make_queries: Callable
    #: Set-ups per run; setup_s is their median.
    setup_repeats: int
    #: Requests per second of traced run length; sizes the fixed traced
    #: pass so its counts repeat exactly for one seed.
    trace_rate: float



WORKLOADS: dict[str, WorkloadDef] = {
    w.name: w
    for w in (
        # ~1 ms point queries: fixed per-query costs (compile_lbp, operator
        # dispatch, vertex-property gathers, CollectSink.result) dominate.
        WorkloadDef(
            "ldbc-interactive",
            lambda s: ldbc_lite(sf=LDBC_SF, seed=s),
            ldbc_queries,
            setup_repeats=15,
            trace_rate=400.0,
        ),
        # Star joins with CONTAINS / STARTS WITH / IN on dictionary-encoded,
        # NULL-heavy properties: expressions, batch extend, Jacobson rank.
        WorkloadDef(
            "job-star",
            lambda s: imdb_lite(sf=IMDB_SF, seed=s),
            job_queries,
            setup_repeats=3,
            trace_rate=25.0,
        ),
        # Whole-graph k-hop paths under forward plans: large intermediates,
        # edge properties read as sequential page slices or runs.
        WorkloadDef(
            "paths-fwd",
            lambda s: flickr_like(sf=FLICKR_SF, seed=s),
            paths_fwd_queries,
            setup_repeats=45,
            trace_rate=20.0,
        ),
        # The same graph and paths with the join order reversed: every
        # edge-property read is a page-addressed gather (read_at).
        WorkloadDef(
            "paths-bwd",
            lambda s: flickr_like(sf=FLICKR_SF, seed=s),
            paths_bwd_queries,
            setup_repeats=45,
            trace_rate=20.0,
        ),
    )
}


def generate_queries(wd: WorkloadDef, data: GraphData, seed: int):
    """(distinct queries, draw order) of one workload seed."""
    queries, counts = wd.make_queries(data, rng(seed, PARAMS))
    deck = np.repeat(np.arange(len(queries)), counts)
    g = rng(seed, ORDER)
    decks = -(-ORDER_LEN // len(deck))
    return queries, np.concatenate([g.permutation(deck) for _ in range(decks)])
