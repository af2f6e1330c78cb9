"""``tools/paired.py``: the sign test, the per-metric summary and the
stop on a failed or wrong run (a stub stands in for ``perfbench/run.py``)."""
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


@pytest.mark.parametrize(
    "better, parent, change, want",
    [
        ("higher", 100.0, 76.0, "yes"),  # 24% worse, bound 25%
        ("higher", 100.0, 74.0, "no"),
        ("higher", 100.0, 180.0, "yes"),  # better by any amount
        ("lower", 10.0, 12.4, "yes"),
        ("lower", 10.0, 12.6, "no"),
        ("lower", 10.0, 3.0, "yes"),
    ],
)
def test_bound_column_checks_the_worse_direction(better, parent, change, want):
    rows = [
        {"pair": i, "side": side, "result": {"metrics": {"m": {"value": v}}}}
        for i in range(3)
        for side, v in (("parent", parent + i * 1e-3), ("change", change))
    ]
    header, line = paired.summarize(
        rows, [{"name": "m", "better": better, "bound": 0.25}]
    )
    assert header.split()[-2:] == ["bound", "gap>IQR"]
    assert line.split()[-2] == want
    assert paired.within_bound(parent, change, {"better": better}) == "-"


_STUB = '''\
import json, sys
print("FAILED ic3: answer differs from the oracle", file=sys.stderr)
print("metrics line")
print(json.dumps({{"correct": {correct}, "metrics": {{}}}}))
sys.exit({status})
'''


def _stub_checkout(tmp_path, *, correct=True, status=0):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        _STUB.format(correct=correct, status=status)
    )
    return tmp_path


def test_good_run_returns_its_last_line(tmp_path):
    res = paired.run_once(_stub_checkout(tmp_path), "parent", "w", 31, 1)
    assert res == {"correct": True, "metrics": {}}


@pytest.mark.parametrize(
    "correct, status, why",
    [
        (True, 3, "exited with status 3"),
        (False, 0, "reported correct: false"),
    ],
)
def test_bad_run_stops_with_side_seed_and_stderr(
    tmp_path, capsys, correct, status, why
):
    checkout = _stub_checkout(tmp_path, correct=correct, status=status)
    with pytest.raises(SystemExit) as stop:
        paired.run_once(checkout, "change", "paths-fwd", 104729, 1)
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert "change run of paths-fwd on seed 104729 " + why in err
    assert "FAILED ic3: answer differs from the oracle" in err
