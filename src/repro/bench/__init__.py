"""Benchmark harnesses — one module per evaluation table of the paper.

Each recorded output ``benchmarks/out/<stem>.txt`` has one definition of
its workload (datasets, scale factors, repeats, k values, hops, and
whether stores are built through Spark): the function named ``<stem>``
in its table's module. It takes a SparkSession (or None) and a
``scale`` that multiplies every scale factor, and returns the measured
frame and its formatted table. ``benchmarks/bench_*.py`` record and
check those outputs; ``jobs/run_table.py`` prints any of them.
"""
