"""Table 2 — memory reduction from each storage optimization (§8.2).

Starting from GF-RV's row layout (interpreted attribute layout, 8-byte
IDs — an analytic byte model, :func:`rv_memory_report`) we apply one
optimization at a time and measure the actual bytes of the built
structures: +COLS → +NEW-IDS → +0-SUPR → +NULL (= GF-CL).
"""
from __future__ import annotations

import pandas as pd

from repro.graphs.data import GraphData
from repro.graphs.datasets import imdb_lite, ldbc_lite
from repro.storage.graph_store import GraphStore, StorageConfig
from repro.storage.rv_model import rv_memory_report

COMPONENTS = ["vertex_props", "edge_props", "fwd_adj", "bwd_adj", "total"]


def table2(data: GraphData, *, spark=None) -> pd.DataFrame:
    """Bytes per component per configuration (columns in paper order)."""
    cols = {"GF-RV": rv_memory_report(data)}
    for name, cfg in StorageConfig.ablation_steps():
        store = GraphStore.build(data, cfg, spark=spark)
        cols[name] = store.memory_report()
    df = pd.DataFrame(cols).loc[COMPONENTS]
    df.index.name = "component"
    return df


def table2_with_factors(df: pd.DataFrame) -> pd.DataFrame:
    """Add the paper's per-step "+x.xx×" factors and GF-CL total factor."""
    out = df.copy().astype(float)
    steps = list(df.columns)
    factors = {}
    for prev, cur in zip(steps, steps[1:]):
        factors[f"{cur} ×"] = (df[prev] / df[cur]).round(2)
    factors["GF-CL ×"] = (df[steps[0]] / df[steps[-1]]).round(2)
    for k, v in factors.items():
        out[k] = v
    return out


def format_table2(df: pd.DataFrame, title: str) -> str:
    w = table2_with_factors(df)
    lines = [f"Table 2 ({title}) — bytes per component and reduction factors"]
    mb = df / (1024 * 1024)
    lines.append(mb.round(3).to_string())
    lines.append("")
    lines.append(
        w[[c for c in w.columns if c.endswith("×")]].to_string()
    )
    return "\n".join(lines)


def _table2_on(make, sf: float, spark):
    df = table2(make(sf=sf), spark=spark)
    return df, format_table2(df, f"{make.__name__} sf={sf:g}")


def table2_ldbc(spark=None, scale: float = 1.0):
    """Table 2 on ``ldbc_lite`` at SF 0.3, stores built through Spark."""
    return _table2_on(ldbc_lite, 0.3 * scale, spark)


def table2_imdb(spark=None, scale: float = 1.0):
    """Table 2 on ``imdb_lite`` at SF 0.3, stores built through Spark."""
    return _table2_on(imdb_lite, 0.3 * scale, spark)
