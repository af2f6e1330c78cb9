"""Smoke tests for the spark-submit job at small scale: each recorded
output's table prints under the title its committed file has."""
import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks" / "out"

_spec = importlib.util.spec_from_file_location("run_table", ROOT / "jobs" / "run_table.py")
job = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(job)


def _title(text: str) -> str:
    return re.sub(r"sf=[0-9.e-]+", "sf=", text.splitlines()[0])


def _check(spark, capsys, prefixes, scale):
    stems = [s for s in job.STEMS if s.startswith(prefixes)]
    assert stems
    for stem in stems:
        job.main(spark, stem, scale)
        want = _title((OUT / f"{stem}.txt").read_text())
        assert _title(capsys.readouterr().out) == want, stem


def test_every_output_has_a_job():
    assert sorted(job.STEMS) == sorted(p.stem for p in OUT.glob("*.txt"))


def test_table2_job(spark, capsys):
    _check(spark, capsys, "table2", 0.03)


def test_table3_job(spark, capsys):
    _check(spark, capsys, "table3", 0.01)


def test_table4_job(spark, capsys):
    _check(spark, capsys, "table4", 0.01)


def test_table5_job(spark, capsys):
    _check(spark, capsys, "table5", 0.05)


def test_table6_ldbc_job(spark, capsys):
    _check(spark, capsys, ("table6a", "table6b"), 0.02)


def test_table6_job_job(spark, capsys):
    _check(spark, capsys, "table6c", 0.1)


def test_table7_8_job(spark, capsys):
    _check(spark, capsys, ("table7", "table8", "fig12"), 0.02)
