"""Table 6 harness: five systems, identical results, timed."""
import pytest

from repro.bench.baselines import Table6Harness, format_table6
from repro.bench.queries_ldbc import IS_QUERIES
from repro.bench.queries_job import JOB_QUERIES


@pytest.fixture(scope="module")
def harness(spark, ldbc):
    h = Table6Harness(ldbc, spark=spark)
    yield h
    h.close()


def test_systems_list(harness):
    assert harness.systems() == [
        "GF-CL", "GF-RV", "NEO4J-SIM", "DUCKDB", "SPARKSQL",
    ]


def test_is_queries_all_systems_agree(harness):
    df = harness.run(IS_QUERIES[:4], repeats=1, verify=True)
    assert len(df) == 4
    for system in harness.systems():
        assert (df[f"{system}_s"] > 0).all()
    assert "GF-CL_vs_GF-RV" in df.columns


def test_job_star_query_all_systems_agree(spark, imdb):
    h = Table6Harness(imdb, spark=spark)
    try:
        df = h.run([q for q in JOB_QUERIES if q.name in ("2a", "17a")],
                   repeats=1, verify=True)
        assert len(df) == 2
    finally:
        h.close()


def test_no_spark_harness_drops_sparksql(ldbc):
    h = Table6Harness(ldbc)
    try:
        assert "SPARKSQL" not in h.systems()
        df = h.run(IS_QUERIES[:1], repeats=1)
        assert "DUCKDB_s" in df.columns
    finally:
        h.close()


def test_format(harness):
    df = harness.run(IS_QUERIES[:2], repeats=1, verify=False)
    txt = format_table6(df, "test")
    assert "median speedup" in txt


def test_duckdb_keeps_two_sorted_edge_copies(harness):
    n = harness.con.execute("SELECT COUNT(*) FROM e_knows").fetchone()[0]
    n2 = harness.con.execute("SELECT COUNT(*) FROM e_knows__bydst").fetchone()[0]
    assert n == n2 > 0


def test_volcano_systems_scan_the_gf_cl_key_range(harness, monkeypatch):
    from repro.bench import baselines

    seen = []
    real = baselines.run_volcano_df

    def recording(adapter, spec, **kw):
        seen.append(kw["scan_range"])
        return real(adapter, spec, **kw)

    monkeypatch.setattr(baselines, "run_volcano_df", recording)
    spec = next(q for q in IS_QUERIES if q.name == "IS04")
    pid = spec.predicates[0].value
    for system in ("GF-RV", "NEO4J-SIM", "GF-CV"):
        harness.run_one(system, spec)
    assert seen == [(pid, pid + 1)] * 3
    df = harness.run([spec], repeats=1, verify=True)  # still equal to DuckDB
    assert df.loc["IS04", "rows"] == 1
