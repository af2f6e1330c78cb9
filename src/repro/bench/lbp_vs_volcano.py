"""Table 5 — list-based processor vs Volcano tuple-at-a-time (§8.6).

Both systems run over the *same columnar storage* (the paper's GF-CV vs
GF-CL comparison isolates the processing model): GF-CV is the Volcano
executor through :class:`ColumnarAdapter`; GF-CL is LBP.

Two workloads per dataset and hop count:
- FILTER: k-hop path, predicate on the last edge's property;
- COUNT(*): k-hop path, no predicate — LBP aggregates on the factorized
  intermediate representation (product of list-group sizes; the fused
  terminal count never enumerates the last hop).
"""
from __future__ import annotations

import pandas as pd

from repro.graphs.data import GraphData
from repro.graphs.datasets import flickr_like, ldbc_lite, wiki_like
from repro.proc.lbp import run_lbp
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec
from repro.proc.volcano import ColumnarAdapter, run_volcano
from repro.storage.graph_store import GraphStore, StorageConfig
from repro.bench.prop_pages import PRED_DATE, _dataset_params
from repro.bench.record import best_of


def khop_filter_spec(elabel, vlabel, prop, hops) -> QuerySpec:
    """k-hop with a predicate on the LAST edge only (§8.6 experiment 1)."""
    vars_ = [chr(ord("a") + i) for i in range(hops + 1)]
    edges = [
        E(vars_[i], vars_[i + 1], elabel,
          f"e{i + 1}" if i == hops - 1 else None)
        for i in range(hops)
    ]
    return QuerySpec(
        f"filter-{hops}hop",
        {v: vlabel for v in vars_},
        edges,
        [Pr(f"e{hops}", prop, ">", PRED_DATE)],
        "count",
        vars_,
    )


def khop_count_spec(elabel, vlabel, hops) -> QuerySpec:
    vars_ = [chr(ord("a") + i) for i in range(hops + 1)]
    return QuerySpec(
        f"count-{hops}hop",
        {v: vlabel for v in vars_},
        [E(vars_[i], vars_[i + 1], elabel) for i in range(hops)],
        [],
        "count",
        vars_,
    )


def lbp_vs_volcano(
    datasets: dict[str, GraphData], *, hops=(1, 2, 3), repeats: int = 1
) -> pd.DataFrame:
    rows = []
    for ds_name, data in datasets.items():
        elabel, vlabel, prop = _dataset_params(data)
        store = GraphStore.build(data, StorageConfig.gf_cl())
        adapter = ColumnarAdapter(store)
        for workload in ("FILTER", "COUNT(*)"):
            for h in hops:
                spec = (
                    khop_filter_spec(elabel, vlabel, prop, h)
                    if workload == "FILTER"
                    else khop_count_spec(elabel, vlabel, h)
                )
                res = {}
                for system, runner in (
                    ("GF-CV", lambda: run_volcano(adapter, spec)),
                    ("GF-CL", lambda: run_lbp(store, spec)),
                ):
                    res[system] = best_of(repeats, runner)
                assert res["GF-CV"][1] == res["GF-CL"][1], (
                    ds_name, workload, h, res,
                )
                rows.append({
                    "dataset": ds_name, "workload": workload, "hops": h,
                    "GF-CV_s": res["GF-CV"][0], "GF-CL_s": res["GF-CL"][0],
                    "speedup": res["GF-CV"][0] / res["GF-CL"][0],
                    "count": res["GF-CL"][1],
                })
    return pd.DataFrame(rows)


def format_table5(df: pd.DataFrame) -> str:
    lines = ["Table 5 — GF-CV (Volcano) vs GF-CL (LBP), runtime (s)"]
    piv = df.pivot_table(
        index=["dataset", "workload"], columns="hops",
        values=["GF-CV_s", "GF-CL_s", "speedup"],
    )
    lines.append(piv.round(4).to_string())
    return "\n".join(lines)


def table5(spark=None, scale: float = 1.0):
    """Table 5 on LDBC at SF 0.08, WIKI at 0.02 and FLICKR at 0.05, 1–3
    hops, one run per cell; stores built locally."""
    df = lbp_vs_volcano({
        "LDBC": ldbc_lite(sf=0.08 * scale),
        "WIKI": wiki_like(sf=0.02 * scale),
        "FLICKR": flickr_like(sf=0.05 * scale),
    })
    return df, format_table5(df)
