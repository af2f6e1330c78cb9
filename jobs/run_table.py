"""spark-submit entrypoint: print one of the paper's tables.

Usage: spark-submit jobs/run_table.py <stem> [scale]

<stem> names a recorded output, ``benchmarks/out/<stem>.txt`` (the keys
of ``STEMS``). The job runs the workload that ``pytest benchmarks/``
records there, with every scale factor multiplied by ``scale`` (default
1.0), and prints the same table.
"""
import sys

from pyspark.sql import SparkSession

from repro.bench.baselines import table6a_ldbc_is, table6b_ldbc_ic, table6c_job
from repro.bench.lbp_vs_volcano import table5
from repro.bench.memory import table2_imdb, table2_ldbc
from repro.bench.prop_pages import table3
from repro.bench.sensitivity import fig12_k_sweep, table7, table7_schemes, table8
from repro.bench.single_card import table4

STEMS = {
    fn.__name__: fn
    for fn in (
        table2_ldbc, table2_imdb, table3, table4, table5, table6a_ldbc_is,
        table6b_ldbc_ic, table6c_job, table7, table7_schemes, table8,
        fig12_k_sweep,
    )
}


def main(spark: SparkSession, stem: str, scale: float = 1.0) -> None:
    print(STEMS[stem](spark, scale)[1])


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3) or sys.argv[1] not in STEMS:
        sys.exit("usage: run_table.py <stem> [scale]; stems: " + ", ".join(STEMS))
    # Arrow converts the pandas tables that hold numpy strings (imdb_lite),
    # which Spark's row-by-row schema inference rejects.
    session = (
        SparkSession.builder.appName(sys.argv[1])
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    try:
        main(session, sys.argv[1], float(sys.argv[2]) if len(sys.argv) > 2 else 1.0)
    finally:
        session.stop()
