"""Spark-parallel LBP (the "single-node parallelizable" deployment).

The LBP pipeline is embarrassingly parallel over the initial Scan: each
Spark partition runs the identical pipeline over a contiguous range of
scan-vertex offsets against a broadcast :class:`GraphStore` (morsel-
style parallelism). The ranges split the scan's key range
(:func:`repro.proc.lbp.scan_bounds`), so a point query does not leave
every partition but one with an empty scan. count(*) results are
summed; projections come back as a Spark DataFrame assembled from the
per-partition pandas frames.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.proc.lbp import run_lbp, scan_bounds
from repro.proc.plan import QuerySpec
from repro.storage.graph_store import GraphStore


def scan_ranges(
    n: int, n_parts: int, *, lo: int = 0
) -> list[tuple[int, int]]:
    """Split [lo, n) into ~equal contiguous ranges; none when it is empty."""
    size = n - lo
    if size <= 0:
        return []
    n_parts = max(1, min(n_parts, size))
    step = -(-size // n_parts)
    return [(s, min(s + step, n)) for s in range(lo, n, step)]


def run_distributed(
    spark: SparkSession,
    store: GraphStore,
    spec: QuerySpec,
    *,
    n_parts: int | None = None,
):
    """Run ``spec`` over Spark partitions; returns int (count(*)) or a
    Spark DataFrame (projections)."""
    lo, hi = scan_bounds(store, spec)
    sc = spark.sparkContext
    n_parts = n_parts or sc.defaultParallelism
    # An empty key range still runs one empty partition, so the result
    # keeps its usual shape.
    parts = scan_ranges(hi, n_parts, lo=lo) or [(lo, hi)]
    b_store = sc.broadcast(store)
    b_spec = sc.broadcast(spec)

    def work(rng):
        return run_lbp(b_store.value, b_spec.value, scan_range=rng)

    rdd = sc.parallelize(parts, len(parts)).map(work)
    if spec.returns == "count":
        return int(rdd.sum())
    frames = [f for f in rdd.collect() if len(f)]
    names = [f"{v}_{p}" for v, p in spec.returns]
    if not frames:
        schema = ", ".join(f"{c} string" for c in names)
        return spark.createDataFrame([], schema=schema)
    pdf = pd.concat(frames, ignore_index=True)
    return spark.createDataFrame(pdf)


def run_distributed_df(
    spark: SparkSession, store: GraphStore, spec: QuerySpec, **kw
) -> DataFrame:
    """Always a Spark DataFrame (count(*) → one row ``cnt``)."""
    res = run_distributed(spark, store, spec, **kw)
    if isinstance(res, DataFrame):
        return res
    return spark.createDataFrame(pd.DataFrame({"cnt": [res]}))
