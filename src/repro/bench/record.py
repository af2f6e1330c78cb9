"""Time and record harness outputs produced during benchmark runs.

Every harness times a cell with :func:`best_of`. Each benchmark writes
the paper-style formatted table both to stdout (visible in
``bench_output.txt``) and to ``benchmarks/out/<stem>.txt`` so
EXPERIMENTS.md can reference exact measured numbers.
"""
from __future__ import annotations

import pathlib
import time

OUT_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "out"


def record_run(benchmark, fn, spark):
    """Run the workload ``fn`` (a stem function such as
    :func:`repro.bench.memory.table2_ldbc`) once under pytest-benchmark's
    ``benchmark`` fixture, write its table to
    ``benchmarks/out/<fn.__name__>.txt`` and return its frame for the
    bench's shape checks."""
    stem = fn.__name__
    df, text = benchmark.pedantic(fn, args=(spark,), rounds=1, iterations=1)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{stem}.txt").write_text(text + "\n")
    print(f"\n===== {stem} =====\n{text}\n", flush=True)
    return df


def best_of(repeats: int, fn):
    """``(seconds, result)``: the fastest of ``repeats`` timed calls of
    ``fn`` (None when ``repeats`` is 0), and the last call's result."""
    best, out = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out
