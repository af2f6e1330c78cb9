"""Checks of the benchmark itself: answer checking, seeding, tracing and
the metric names promised in BENCHMARK.json.

Run from the root of a checkout::

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from answers import answer_key, expected_keys  # noqa: E402
from repro.proc import lbp, operators  # noqa: E402
from repro.proc.lbp import run_lbp  # noqa: E402
from repro.storage.csr import CSR  # noqa: E402
from tracing import Tracer, installed  # noqa: E402
from workloads import WORKLOADS, generate_queries  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 3


@pytest.fixture(scope="module")
def paths_fwd():
    wd = WORKLOADS["paths-fwd"]
    names, keys = expected_keys(wd.name, SEED)
    data, store, gen_s, build_s = run.setup(wd, SEED)
    queries, order = generate_queries(wd, data, SEED)
    assert [q.name for q in queries] == names
    return wd, store, queries, order, keys, gen_s, build_s


def test_wrong_expected_answer_is_counted(paths_fwd):
    wd, store, queries, order, keys, *_ = paths_fwd
    bad = int(order[0])
    wrong = list(keys)
    wrong[bad] = keys[bad] + 1
    checker = run.Checker(queries, wrong)
    deck = [int(k) for k in order[:60]]
    for k in deck:
        result, error, _ = run.run_one(run_lbp, store, queries[k])
        checker.check(k, result, error)
    assert checker.attempted == len(deck)
    assert checker.failed == deck.count(bad) > 0


def test_raising_query_is_counted(paths_fwd):
    wd, store, queries, order, keys, *_ = paths_fwd

    def broken(store, spec):
        raise RuntimeError("engine failure")

    checker = run.Checker(queries, keys)
    result, error, _ = run.run_one(broken, store, queries[0])
    checker.check(0, result, error)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_answer_key_is_canonical():
    a = pd.DataFrame({"x": [3, 1, 2], "s": ["c", "a", None]})
    b = pd.DataFrame({"s": ["a", None, "c"], "x": [1.0, 2.0, 3.0]})
    assert answer_key(a) == answer_key(b)
    assert answer_key(a) != answer_key(a.assign(x=[3, 1, 5]))
    assert answer_key(pd.DataFrame({"cnt": [7]})) == answer_key(7)


def test_same_seed_gives_same_inputs():
    wd = WORKLOADS["ldbc-interactive"]
    data = wd.make_data(1)
    q1, o1 = generate_queries(wd, data, 11)
    q2, o2 = generate_queries(wd, data, 11)
    q3, o3 = generate_queries(wd, data, 12)
    assert [q.name for q in q1] == [q.name for q in q2]
    assert (o1 == o2).all()
    assert [q.name for q in q1] != [q.name for q in q3]
    # Every deck holds each distinct query exactly once.
    assert (np.bincount(o1[: len(q1)], minlength=len(q1)) == 1).all()


def test_store_bytes_counts_each_buffer_once():
    class Holder:
        __module__ = "repro.fake"

    base = np.zeros(1000, dtype=np.int64)
    h = Holder()
    h.__dict__.update(a=base, b=base[10:20], c={"d": [base[::2]]})
    assert run.store_bytes(h) == base.nbytes


def test_installed_restore_originals():
    before = (CSR.ranges_of, operators.concat_ranges, lbp.compile_lbp)
    with installed(Tracer()):
        assert CSR.ranges_of is not before[0]
        assert operators.concat_ranges is not before[1]
    assert (CSR.ranges_of, operators.concat_ranges, lbp.compile_lbp) == before


def test_missing_traced_layer_raises(monkeypatch):
    before = (CSR.ranges_of, operators.concat_ranges)
    monkeypatch.delattr(CSR, "range_of")
    with pytest.raises(AttributeError, match="CSR.range_of"):
        with installed(Tracer()):
            pass
    assert (CSR.ranges_of, operators.concat_ranges) == before


def test_end_to_end_reports_every_metric(paths_fwd):
    wd, store, queries, order, keys, gen_s, build_s = paths_fwd
    checker = run.Checker(queries, keys)
    shown = run.end_to_end(run_lbp, store, queries, order, checker, 0.3, [1.0])
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert [(k, u) for k, (_, u, _) in shown.items() if k != "error_rate"] == declared
    assert shown["error_rate"][0] == 0.0
    assert all(v > 0 for k, (v, _, _) in shown.items() if k != "error_rate")


def _traced(wd, store, queries, order, keys, gen_s, build_s):
    checker = run.Checker(queries, keys)
    metrics, _ = run.traced(
        run_lbp, store, queries, order, checker, wd, 0.5, gen_s, build_s
    )
    assert checker.failed == 0
    return metrics


def test_traced_run_reports_every_per_layer_metric(paths_fwd):
    metrics = _traced(*paths_fwd)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [u for _, u in metrics.values()] == [m["unit"] for m in BENCHMARK["per_layer"]]


#: Per-layer metrics each workload exists to exercise; each must be non-zero.
EXERCISED = {
    "ldbc-interactive": [
        "proc.lbp.compile_lbp.calls",
        "proc.operators.PhysVertexPropRead.calls",
        "proc.operators.PhysFilter.calls",
        "proc.operators.CollectSink.result.calls",
        "storage.vertex_column.get_many.values",
        "storage.csr.ranges_of.lists",
    ],
    "job-star": [
        "proc.operators.PhysBatchExtend.calls",
        "proc.expressions.vs_literal.values",
        "storage.null_compression.rank.calls",
        "storage.csr.ranges_of.lists",
    ],
    "paths-fwd": [
        "proc.operators.PhysExtendFilterCount.calls",
        "proc.operators.PhysBatchExtend.calls",
        "proc.operators.concat_ranges.self_s",
        "proc.expressions.vs_block.values",
        "storage.csr.ranges_of.lists",
        "storage.property_pages.read_fwd_range.values",
        "proc.lbp.vectorized_count_ratio",
    ],
    "paths-bwd": [
        "proc.operators.PhysExtendFilterCount.calls",
        "proc.expressions.vs_block.values",
        "storage.property_pages.read_at.values",
    ],
}
SEQ_SHARE = {"paths-fwd": 1.0, "paths-bwd": 0.0}


@pytest.mark.parametrize("workload", list(EXERCISED))
def test_traced_run_reaches_each_workloads_layers(workload):
    wd = replace(WORKLOADS[workload], setup_repeats=1)
    names, keys = expected_keys(wd.name, SEED)
    data, store, gen_s, build_s = run.setup(wd, SEED)
    queries, order = generate_queries(wd, data, SEED)
    metrics = _traced(wd, store, queries, order, keys, gen_s, build_s)
    assert [m for m in EXERCISED[workload] if not metrics[m][0] > 0] == []
    if workload in SEQ_SHARE:
        assert metrics["storage.property_pages.seq_share"][0] == SEQ_SHARE[workload]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
