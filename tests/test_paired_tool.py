"""``tools/paired.py``: the sign test and the per-metric summary."""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "paired", Path(__file__).resolve().parents[1] / "tools" / "paired.py"
)
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)


def test_sign_test_two_sided():
    assert paired.sign_test(10, 0) == pytest.approx(2 / 2 ** 10)
    assert paired.sign_test(9, 1) == pytest.approx(2 * 11 / 2 ** 10)
    assert paired.sign_test(0, 10) == paired.sign_test(10, 0)
    assert paired.sign_test(5, 5) == 1.0
    assert paired.sign_test(0, 0) == 1.0


def test_held_out_seed_runs_first():
    assert paired.SEEDS[0] == 104729
    assert len(set(paired.SEEDS)) == len(paired.SEEDS)


def test_summary_counts_wins_in_each_metric_direction():
    rows = [
        {"pair": i, "side": side, "result": {"metrics": {
            "throughput_qps": {"value": qps},
            "latency_p50_ms": {"value": 1000 / qps},
        }}}
        for i in range(4)
        for side, qps in (("parent", 100 + i), ("change", 150 + i))
    ]
    metrics = [
        {"name": "throughput_qps", "better": "higher"},
        {"name": "latency_p50_ms", "better": "lower"},
        {"name": "store_bytes", "better": "lower"},  # absent: no line
    ]
    header, qps, p50 = paired.summarize(rows, metrics)
    assert "wins" in header
    assert qps.split()[0] == "throughput_qps" and " 4/4 " in qps
    assert p50.split()[0] == "latency_p50_ms" and " 4/4 " in p50
    assert qps.split()[3] == "1.493"  # median of 150/100 … 153/103
    assert qps.endswith("yes") and p50.endswith("yes")
