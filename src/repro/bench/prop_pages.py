"""Table 3 — single-indexed property pages vs edge columns (§8.3).

k-hop path queries with edge-property predicates, run with a forward
plan (properties read in forward adjacency-list order — sequential
under PROP PAGES) and a backward plan (random reads under both
configurations). PAGE_P = property pages (k = 128); COL_E = edge
columns with randomized edge IDs. Each cell is timed through
:func:`repro.proc.lbp.run_lbp`, so both configurations run the same
plan and differ only in how the engine reads edge properties.
"""
from __future__ import annotations

import pandas as pd

from repro.bench.record import best_of
from repro.graphs.data import GraphData
from repro.graphs.datasets import flickr_like, ldbc_lite, wiki_like
from repro.proc.lbp import run_lbp
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec
from repro.storage.graph_store import GraphStore, StorageConfig

PRED_DATE = 1_400_000_000


def khop_spec(
    edge_label: str,
    vlabel: str,
    prop: str,
    hops: int,
    *,
    direction: str = "fwd",
    name: str = "khop",
) -> QuerySpec:
    """k-hop path over one edge label: the first edge's property is
    compared to a constant, each later edge's to the previous edge's
    (the paper's 1-/2-hop workloads of §8.3)."""
    vars_ = [chr(ord("a") + i) for i in range(hops + 1)]
    edges = [
        E(vars_[i], vars_[i + 1], edge_label, f"e{i + 1}") for i in range(hops)
    ]
    preds = [Pr("e1", prop, ">", PRED_DATE)]
    for i in range(2, hops + 1):
        preds.append(Pr(f"e{i}", prop, ">", value=None,
                        rhs_var=f"e{i - 1}", rhs_prop=prop))
    order = vars_ if direction == "fwd" else list(reversed(vars_))
    return QuerySpec(
        name,
        {v: vlabel for v in vars_},
        edges,
        preds,
        "count",
        order,
    )


def _dataset_params(data: GraphData):
    """(edge label, vertex label, property) for a Table 3 dataset."""
    if "knows" in data.schema.edges:
        return "knows", "Person", "date"
    return "link", "node", "timestamp"


def pages_vs_columns(
    datasets: dict[str, GraphData], *, repeats: int = 1
) -> pd.DataFrame:
    """Rows: (dataset, plan P_F/P_B, config, hop) → seconds and count."""
    rows = []
    for ds_name, data in datasets.items():
        elabel, vlabel, prop = _dataset_params(data)
        stores = {
            "PAGE_P": GraphStore.build(
                data, StorageConfig(edge_prop_storage="pages")
            ),
            "COL_E": GraphStore.build(
                data, StorageConfig(edge_prop_storage="edge_columns")
            ),
        }
        for hops in (1, 2):
            for plan, direction in (("P_F", "fwd"), ("P_B", "bwd")):
                spec = khop_spec(elabel, vlabel, prop, hops, direction=direction)
                counts = {}
                for cfg_name, store in stores.items():
                    best, cnt = best_of(repeats, lambda: run_lbp(store, spec))
                    counts[cfg_name] = cnt
                    rows.append({
                        "dataset": ds_name, "plan": plan, "hops": f"{hops}H",
                        "config": cfg_name, "seconds": best, "count": cnt,
                    })
                assert len(set(counts.values())) == 1, counts
    return pd.DataFrame(rows)


def format_table3(df: pd.DataFrame) -> str:
    piv = df.pivot_table(
        index=["dataset", "plan", "config"],
        columns="hops",
        values="seconds",
    )
    lines = ["Table 3 — runtime (s), property pages (PAGE_P) vs edge columns (COL_E)"]
    lines.append(piv.round(4).to_string())
    speed = []
    for (ds, plan), grp in df.groupby(["dataset", "plan"]):
        for h in sorted(grp["hops"].unique()):
            ce = grp[(grp.config == "COL_E") & (grp.hops == h)]["seconds"].iloc[0]
            pp = grp[(grp.config == "PAGE_P") & (grp.hops == h)]["seconds"].iloc[0]
            speed.append(
                f"{ds} {plan} {h}: COL_E/PAGE_P = {ce / pp:.1f}x"
            )
    lines.append("\n".join(speed))
    return "\n".join(lines)


def table3(spark=None, scale: float = 1.0):
    """Table 3 on LDBC at SF 2 and WIKI and FLICKR at SF 3, best of 2
    runs per cell; stores built locally."""
    df = pages_vs_columns({
        "LDBC": ldbc_lite(sf=2.0 * scale),
        "WIKI": wiki_like(sf=3.0 * scale),
        "FLICKR": flickr_like(sf=3.0 * scale),
    }, repeats=2)
    return df, format_table3(df)
