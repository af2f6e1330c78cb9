"""Tables 6a/6b/6c — baseline system comparison (§8.7).

Five systems over identical data (substitutions documented in
DESIGN.md):

- **GF-CL** — LBP over the columnar store (the paper's system);
- **GF-RV** — Volcano over the row store (interpreted attribute layout);
- **NEO4J-SIM** — Volcano over linked records (Neo4j-style storage);
- **DUCKDB** — a real block-based columnar RDBMS over the relational
  schema, with the two edge-table copies sorted by src and dst that the
  paper maintains for Vertica/MonetDB;
- **SPARKSQL** — Spark SQL (Catalyst + whole-stage codegen) over the
  same tables, the second relational engine.

Every system's result is checked equal to DuckDB's before timing is
reported, so Table 6 timings are also a correctness sweep.

The three Volcano systems scan the same key range as GF-CL
(:func:`repro.proc.lbp.scan_bounds` over the GF-CL store, whose vertex
offsets are those of the shared :class:`GraphData`), so the table
compares processors and storage, not scan strategies.
"""
from __future__ import annotations

import duckdb
import pandas as pd

from repro.bench.queries_job import JOB_QUERIES
from repro.bench.queries_ldbc import IC_QUERIES, IS_QUERIES
from repro.bench.record import best_of
from repro.graphs.data import GraphData
from repro.graphs.datasets import imdb_lite, ldbc_lite
from repro.proc.lbp import run_lbp_df, scan_bounds
from repro.proc.plan import QuerySpec, to_sql
from repro.proc.volcano import ColumnarAdapter, run_volcano_df
from repro.storage.graph_store import GraphStore, StorageConfig
from repro.storage.rv_model import LinkedStore, RowStore


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df.columns = [c.lower() for c in df.columns]
    df = df[sorted(df.columns)].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


class Table6Harness:
    """Builds all five systems once; runs/times each query on each."""

    def __init__(self, data: GraphData, *, spark=None) -> None:
        self.data = data
        self.spark = spark
        self.store = GraphStore.build(data, StorageConfig.gf_cl(), spark=spark)
        self.cv = ColumnarAdapter(self.store)
        self.rv = RowStore(data)
        self.neo = LinkedStore(data)
        self.con = duckdb.connect()
        for name, t in data.sql_tables().items():
            self.con.register(f"{name}_src", t)
            # The paper's two sorted copies of each edge table.
            if name.startswith("e_"):
                self.con.execute(
                    f"CREATE TABLE {name} AS SELECT * FROM {name}_src "
                    "ORDER BY src"
                )
                self.con.execute(
                    f"CREATE TABLE {name}__bydst AS SELECT * FROM {name}_src "
                    "ORDER BY dst"
                )
            else:
                self.con.execute(
                    f"CREATE TABLE {name} AS SELECT * FROM {name}_src"
                )
        if spark is not None:
            for name, t in data.sql_tables().items():
                sdf = spark.createDataFrame(t).cache()
                sdf.count()  # materialize the cache before timing
                sdf.createOrReplaceTempView(name)

    def systems(self) -> list[str]:
        base = ["GF-CL", "GF-RV", "NEO4J-SIM", "DUCKDB"]
        return base + (["SPARKSQL"] if self.spark is not None else [])

    def run_one(self, system: str, spec: QuerySpec) -> pd.DataFrame:
        sql = to_sql(spec)
        if system == "GF-CL":
            return run_lbp_df(self.store, spec)
        volcano = {"GF-RV": self.rv, "NEO4J-SIM": self.neo, "GF-CV": self.cv}
        if system in volcano:
            return run_volcano_df(
                volcano[system], spec, scan_range=scan_bounds(self.store, spec)
            )
        if system == "DUCKDB":
            return self.con.execute(sql).fetchdf()
        if system == "SPARKSQL":
            return self.spark.sql(sql).toPandas()
        raise ValueError(system)

    def run(
        self, queries: list[QuerySpec], *, repeats: int = 3, verify: bool = True
    ) -> pd.DataFrame:
        rows = []
        for spec in queries:
            expected = None
            if verify:
                expected = _canon(self.run_one("DUCKDB", spec))
            rec = {"query": spec.name}
            for system in self.systems():
                best, res = best_of(
                    repeats, lambda: self.run_one(system, spec)
                )
                if verify:
                    got = _canon(res)
                    assert got.equals(expected), (
                        f"{spec.name}: {system} result differs from DuckDB"
                    )
                rec[f"{system}_s"] = best
            rec["rows"] = len(res) if res is not None else 0
            rows.append(rec)
        df = pd.DataFrame(rows).set_index("query")
        for system in self.systems():
            if system != "GF-RV":
                df[f"{system}_vs_GF-RV"] = (
                    df["GF-RV_s"] / df[f"{system}_s"]
                ).round(2)
        return df

    def close(self) -> None:
        self.con.close()


def format_table6(df: pd.DataFrame, title: str) -> str:
    lines = [f"Table 6 ({title}) — runtime (s) per system"]
    lines.append(df.round(4).to_string())
    med = {}
    for c in df.columns:
        if c.endswith("_vs_GF-RV"):
            med[c] = float(df[c].median())
    lines.append(
        "median speedup vs GF-RV: "
        + ", ".join(f"{k.removesuffix('_vs_GF-RV')}={v:.2f}x"
                    for k, v in med.items())
    )
    return "\n".join(lines)


def _table6_on(data: GraphData, queries, title: str, spark, repeats: int):
    h = Table6Harness(data, spark=spark)
    try:
        df = h.run(queries, repeats=repeats)
    finally:
        h.close()
    return df, format_table6(df, title)


def table6a_ldbc_is(spark=None, scale: float = 1.0):
    """Table 6a: LDBC IS on ``ldbc_lite`` at SF 0.1, best of 2; with
    Spark SQL and a Spark-built store when ``spark`` is given."""
    return _table6_on(
        ldbc_lite(sf=0.1 * scale), IS_QUERIES, "a: LDBC IS", spark, 2
    )


def table6b_ldbc_ic(spark=None, scale: float = 1.0):
    """Table 6b: LDBC IC on ``ldbc_lite`` at SF 0.1, best of 2."""
    return _table6_on(
        ldbc_lite(sf=0.1 * scale), IC_QUERIES, "b: LDBC IC", spark, 2
    )


def table6c_job(spark=None, scale: float = 1.0):
    """Table 6c: JOB on ``imdb_lite`` at SF 0.1, one run per query."""
    return _table6_on(imdb_lite(sf=0.1 * scale), JOB_QUERIES, "c: JOB", spark, 1)
