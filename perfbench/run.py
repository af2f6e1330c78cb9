"""GF-CL query benchmark: seeded, oracle-checked, one closed-loop client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paths-fwd --seed 1 --seconds 12 --trace 0

Each run uses the engine as shipped (``GraphStore.build(data,
StorageConfig.gf_cl())``, then ``run_lbp`` per query) in this single
process, with no SparkSession. Workloads are described in
``workloads.py`` and ``README.md``. A run:

1. computes every distinct query's expected answer with DuckDB
   (``to_sql``) in two child processes, which it waits for;
2. sets up (dataset generation plus ``GraphStore.build``) several times
   and reports the median as ``setup_s``;
3. runs one warm-up pass over the distinct queries;
4. with ``--trace 0``, runs the seeded query stream as a closed loop with
   one client until ``--seconds`` of query time have passed, and checks
   every answer after its timing stops; with ``--trace 1``, runs a fixed
   prefix of the stream untraced, then traced (spans and counters from
   ``tracing.py``), then once more per distinct query under ``tracemalloc``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat
every metric with its unit and sample count, and the environment.

Every workload's working set fits in a 300 MiB L3 cache, so sequential
versus random reads differ here in instructions, not cache misses.
Seed 104729 is held out: claims tuned on other seeds must also hold on it.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _l3_size() -> str:
    try:
        out = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    for line in out.splitlines():
        if line.startswith("L3 cache:"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l3": _l3_size(),
        "python": platform.python_version(),
        **{p: metadata.version(p) for p in ("numpy", "pandas", "duckdb")},
    }


def store_bytes(store) -> int:
    """Bytes of every numpy array reachable from ``store``, walking its
    objects from outside and counting each base buffer once."""
    seen, buffers, total = set(), set(), 0
    todo = [store]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            if id(base) not in buffers:
                buffers.add(id(base))
                total += base.nbytes
        elif isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif type(obj).__module__.startswith("repro.") and hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Counts attempted and failed queries; a failure is an exception or
    an answer whose key differs from the oracle's."""

    def __init__(self, queries, keys) -> None:
        from answers import answer_key, fingerprint

        self.answer_key, self.fingerprint = answer_key, fingerprint
        self.queries, self.keys = queries, keys
        self.attempted = self.failed = 0
        self._matched: dict[int, int | str] = {}  # query -> fingerprint
        self._reported: set[int] = set()

    def check(self, k: int, result, error: BaseException | None) -> None:
        self.attempted += 1
        if error is None:
            fp = self.fingerprint(result)
            if self._matched.get(k) == fp:
                return
            if self.answer_key(result) == self.keys[k]:
                self._matched[k] = fp
                return
        self.failed += 1
        if k not in self._reported:
            self._reported.add(k)
            what = (
                "".join(traceback.format_exception(error))
                if error is not None
                else "answer differs from the oracle\n"
            )
            print(f"FAILED {self.queries[k].name}: {what}", file=sys.stderr, end="")


def run_one(run, store, spec):
    """(result, error, seconds) of one query; the clock stops before any
    checking."""
    t0 = time.perf_counter()
    try:
        result, error = run(store, spec), None
    except Exception as e:  # noqa: BLE001 - counted in error_rate
        result, error = None, e
    return result, error, time.perf_counter() - t0


def setup(wd, seed: int):
    """Generate and build ``wd.setup_repeats`` times; keep the last store."""
    from repro.storage.graph_store import GraphStore, StorageConfig
    from workloads import dataset_seed

    gen_s, build_s = [], []
    for _ in range(wd.setup_repeats):
        data = store = None
        gc.collect()
        t0 = time.perf_counter()
        data = wd.make_data(dataset_seed(seed))
        t1 = time.perf_counter()
        store = GraphStore.build(data, StorageConfig.gf_cl())
        t2 = time.perf_counter()
        gen_s.append(t1 - t0)
        build_s.append(t2 - t1)
    return data, store, gen_s, build_s


def closed_loop(run, store, queries, order, checker, seconds: float):
    """Issue the stream in order, one query at a time, until ``seconds``
    of query time have passed; returns per-query latencies."""
    lat = []
    busy, i = 0.0, 0
    while busy < seconds:
        k = int(order[i % len(order)])
        i += 1
        result, error, dt = run_one(run, store, queries[k])
        lat.append(dt)
        busy += dt
        checker.check(k, result, error)
    return lat


def end_to_end(run, store, queries, order, checker, seconds, setup_s):
    lat = closed_loop(run, store, queries, order, checker, seconds)
    n = len(lat)
    ms = np.asarray(lat) * 1e3
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "throughput_qps": ((checker.attempted - checker.failed) / sum(lat), "queries/s", n),
        "latency_p50_ms": (float(np.percentile(ms, 50)), "ms", n),
        "latency_p90_ms": (float(np.percentile(ms, 90)), "ms", n),
        "store_bytes": (store_bytes(store), "B", 1),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "success_rate": ((checker.attempted - checker.failed) / n, "fraction", n),
        # Not in BENCHMARK.json: a metric that reads 0 cannot carry a bound.
        "error_rate": (checker.failed / n, "fraction", n),
    }


def traced(run, store, queries, order, checker, wd, seconds, gen_s, build_s):
    """The per-layer metrics, from a fixed prefix of the stream."""
    import tracemalloc

    from repro.proc import lbp
    from tracing import RUN_LBP, Tracer, installed, layer_metrics

    n = max(len(queries), math.ceil(seconds * wd.trace_rate))
    prefix = [int(k) for k in order[:n]]

    untraced_s = 0.0
    for k in prefix:
        result, error, dt = run_one(run, store, queries[k])
        untraced_s += dt
        checker.check(k, result, error)

    tracer = Tracer()
    traced_run = tracer.wrap(RUN_LBP, lbp.run_lbp)
    traced_s, counts, compiled_counts = 0.0, 0, 0
    with installed(tracer):
        for i, k in enumerate(prefix):
            tracer.query = i
            before = tracer.calls["proc.lbp.compile_lbp"]
            result, error, dt = run_one(traced_run, store, queries[k])
            traced_s += dt
            checker.check(k, result, error)
            if queries[k].returns == "count":
                counts += 1
                compiled_counts += tracer.calls["proc.lbp.compile_lbp"] > before

    peak = 0
    tracemalloc.start()
    try:
        for k in sorted(set(prefix)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_one(run, store, queries[k])
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()

    out = {
        "graphs.generate_s": (statistics.median(gen_s), "s"),
        "storage.build_s": (statistics.median(build_s), "s"),
        "storage.memory_report_bytes": (store.memory_report()["total"], "B"),
    }
    out.update(layer_metrics(tracer, compiled_counts, counts))
    out["proc.query.peak_alloc_bytes"] = (peak, "B")
    out["trace.queries"] = (n, "count")
    # Untraced over traced throughput of the same n queries.
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return out, tracer


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no engine sources at {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from answers import expected_keys
    from repro.proc.lbp import run_lbp
    from workloads import WORKLOADS, generate_queries

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wd = WORKLOADS[args.workload]
    env = environment()

    phases = {"start": time.perf_counter()}
    names, keys = expected_keys(args.workload, args.seed)
    phases["oracle"] = time.perf_counter()
    data, store, gen_s, build_s = setup(wd, args.seed)
    phases["setup"] = time.perf_counter()
    queries, order = generate_queries(wd, data, args.seed)
    if [q.name for q in queries] != names:
        print("oracle and benchmark generated different queries", file=sys.stderr)
        return 3

    for q in queries:  # warm-up: lazy numpy/pandas set-up is not timed
        run_one(run_lbp, store, q)
    gc.collect()
    phases["warm-up"] = time.perf_counter()

    checker = Checker(queries, keys)
    if args.trace:
        metrics, tracer = traced(
            run_lbp, store, queries, order, checker, wd, args.seconds,
            gen_s, build_s,
        )
        tracer.save(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz",
            {"workload": args.workload, "seed": args.seed, **env},
        )
        n = f"n={metrics['trace.queries'][0]}"
        shown = {k: (v, u, n) for k, (v, u) in metrics.items()}
    else:
        setup_s = [g + b for g, b in zip(gen_s, build_s)]
        shown = end_to_end(
            run_lbp, store, queries, order, checker, args.seconds, setup_s
        )
        metrics = {k: (v, u) for k, (v, u, _) in shown.items() if k != "error_rate"}
        shown = {k: (v, u, f"n={n}") for k, (v, u, n) in shown.items()}

    phases["measure"] = time.perf_counter()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    marks = list(phases.items())
    print("phases " + " ".join(
        f"{name}={t - prev:.2f}s" for (_, prev), (name, t) in zip(marks, marks[1:])
    ))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"distinct_queries={len(queries)}")
    for name, (value, unit, n) in shown.items():
        print(f"  {name:52s} {value:>16.6g} {unit:10s} {n}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
