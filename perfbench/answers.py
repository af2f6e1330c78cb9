"""Expected answers from the DuckDB oracle, and the key results compare by.

The oracle runs ``to_sql`` of every distinct generated query in DuckDB,
in child processes (``python3 answers.py <workload> <seed> <part>
<parts>``), before the timed loop: DuckDB's work and
memory stay out of the process whose latency and peak RSS are measured.
Each child rebuilds the workload from the same seed and returns one small
key per query, so the measuring process holds no expected frames.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pandas as pd

from repro.oracle import _canon
from repro.proc.plan import to_sql
from workloads import WORKLOADS, dataset_seed, generate_queries


_NUMERIC = {"integer", "floating", "mixed-integer-float", "decimal", "boolean", "empty"}
_NULL = "\x00NULL"


def answer_key(result) -> int | str:
    """A comparison key: the count for count(*), else a digest of the
    projection after ``repro.oracle``'s canonical column and row order.

    Like the oracle's ``check_dtype=False`` comparison, numeric columns
    compare by value (ints and floats alike, rounded to 6 digits) and
    everything else by pandas' object hash; NULL and NaN are one value.
    """
    if not isinstance(result, pd.DataFrame):
        return int(result)
    if len(result.columns) == 1 and result.columns[0] == "cnt" and len(result) == 1:
        return int(result["cnt"].iloc[0])
    canon = _canon(result)
    h = hashlib.sha1()
    for col in canon.columns:
        s = canon[col]
        if pd.api.types.infer_dtype(s, skipna=True) in _NUMERIC:
            vals = s.to_numpy(dtype=np.float64, na_value=np.nan).round(6)
            h.update(np.where(np.isnan(vals), np.inf, vals).tobytes())
        else:
            s = s.astype(object).where(s.notna(), _NULL)
            h.update(pd.util.hash_pandas_object(s, index=False).to_numpy().tobytes())
        h.update(b"\x1e")
    return f"{list(canon.columns)}|{len(canon)}|{h.hexdigest()}"


def fingerprint(result) -> int | str:
    """An order-sensitive digest of a result, without canonicalising it.

    A frame with the fingerprint of one already matched to the oracle
    holds the same values in the same order, so it needs no second
    canonical sort; the engine is deterministic, so repeats hit this.
    """
    if not isinstance(result, pd.DataFrame):
        return int(result)
    h = hashlib.sha1(repr((list(result.columns), list(map(str, result.dtypes)))).encode())
    h.update(pd.util.hash_pandas_object(result, index=False).to_numpy().tobytes())
    return h.hexdigest()


def _oracle_keys(workload: str, seed: int, part: int, parts: int):
    """(names, keys) of every ``parts``-th query from ``part`` on."""
    import duckdb

    wd = WORKLOADS[workload]
    data = wd.make_data(dataset_seed(seed))
    queries, _ = generate_queries(wd, data, seed)
    queries = queries[part::parts]
    con = duckdb.connect(config={"threads": 2})
    try:
        for name, table in data.sql_tables().items():
            con.register(name, table)
        keys = []
        for q in queries:
            # to_sql lists joins in join order. For a column-vs-column
            # inequality (the chained k-hop paths), DuckDB's reordering
            # joins on the inequality first and takes about a minute per
            # query, so those queries keep the written order.
            written = any(p.rhs_var is not None for p in q.predicates)
            con.execute(f"SET disabled_optimizers = '{'join_order' if written else ''}'")
            keys.append(answer_key(con.execute(to_sql(q, data.schema)).fetchdf()))
    finally:
        con.close()
    return [q.name for q in queries], keys


def expected_keys(workload: str, seed: int, *, workers: int = 2, timeout: float = 150.0):
    """(query names, answer keys) of the workload, computed by DuckDB in
    ``workers`` child processes that this call waits for."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, workload, str(seed), str(i), str(workers)],
            stdout=subprocess.PIPE, env=env,
        )
        for i in range(workers)
    ]
    deadline = time.monotonic() + timeout
    try:
        outs = [p.communicate(timeout=max(0.0, deadline - time.monotonic()))[0]
                for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    for p in procs:
        if p.returncode != 0:
            raise RuntimeError(f"oracle process exited with code {p.returncode}")
    parts = [json.loads(out) for out in outs]
    n = sum(len(part_names) for part_names, _ in parts)
    names, keys = [None] * n, [None] * n
    for i, (part_names, part_keys) in enumerate(parts):
        names[i::workers] = part_names
        keys[i::workers] = part_keys
    return names, keys


if __name__ == "__main__":
    workload, seed, part, parts = sys.argv[1], *map(int, sys.argv[2:5])
    json.dump(_oracle_keys(workload, seed, part, parts), sys.stdout)
