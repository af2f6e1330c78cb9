"""Time and record harness outputs produced during benchmark runs.

Every harness times a cell with :func:`best_of`. Each benchmark writes
the paper-style formatted table both to stdout (visible in
``bench_output.txt``) and to ``benchmarks/out/<name>.txt`` so
EXPERIMENTS.md can reference exact measured numbers.
"""
from __future__ import annotations

import pathlib
import time

OUT_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "out"


def record(name: str, text: str) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n", flush=True)


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
