"""Table 4 — vertex columns vs CSR for single-cardinality edges (§8.4).

k-hop count(*) queries over the ``replyOf`` edge (Comment→Comment, n-1,
~50% of forward lists empty in ``ldbc_lite`` as in LDBC100) under four
configurations: {V-COL, CSR} × {uncompressed, NULL-compressed}. Also
reports the bytes used to store the replyOf edges per configuration.
"""
from __future__ import annotations

import pandas as pd

from repro.bench.record import best_of
from repro.graphs.data import GraphData
from repro.graphs.datasets import ldbc_lite
from repro.proc.lbp import run_lbp
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec
from repro.storage.graph_store import GraphStore, StorageConfig

CONFIGS = {
    "CSR-UNC": StorageConfig(single_card_as_vcol=False),
    "V-COL-UNC": StorageConfig(single_card_as_vcol=True),
    "CSR-C": StorageConfig(single_card_as_vcol=False, null_compress=True),
    "V-COL-C": StorageConfig(single_card_as_vcol=True, null_compress=True),
}


def reply_khop(hops: int) -> QuerySpec:
    vars_ = [f"c{i}" for i in range(hops + 1)]
    return QuerySpec(
        f"replyOf-{hops}hop",
        {v: "Comment" for v in vars_},
        [E(vars_[i], vars_[i + 1], "replyOf") for i in range(hops)],
        [],
        "count",
        vars_,
    )


def vcol_vs_csr(data: GraphData, *, repeats: int = 1) -> pd.DataFrame:
    rows = []
    for cfg_name, cfg in CONFIGS.items():
        store = GraphStore.build(data, cfg)
        es = store.edge("replyOf")
        mem = es.adj_nbytes("fwd") + es.adj_nbytes("bwd")
        row = {"config": cfg_name, "mem_bytes": mem}
        for hops in (1, 2, 3):
            spec = reply_khop(hops)
            best, cnt = best_of(repeats, lambda: run_lbp(store, spec))
            row[f"{hops}-hop_s"] = best
            row[f"{hops}-hop_count"] = cnt
        rows.append(row)
    return pd.DataFrame(rows).set_index("config")


def format_table4(df: pd.DataFrame) -> str:
    lines = ["Table 4 — V-Column vs CSR for single-cardinality edges"]
    lines.append(df.round(5).to_string())
    for suffix in ("UNC", "C"):
        csr, vc = df.loc[f"CSR-{suffix}"], df.loc[f"V-COL-{suffix}"]
        facts = [
            f"{h}-hop {csr[f'{h}-hop_s'] / vc[f'{h}-hop_s']:.2f}x"
            for h in (1, 2, 3)
        ]
        facts.append(f"mem {csr['mem_bytes'] / vc['mem_bytes']:.2f}x")
        lines.append(f"CSR-{suffix} / V-COL-{suffix}: " + ", ".join(facts))
    return "\n".join(lines)


def table4(spark=None, scale: float = 1.0):
    """Table 4 on ``ldbc_lite`` at SF 1, best of 2 runs per cell; stores
    built locally."""
    df = vcol_vs_csr(ldbc_lite(sf=1.0 * scale), repeats=2)
    return df, format_table4(df)
