"""Table 6c benchmark: the 33 JOB queries across the five systems (§8.7.2)."""
from repro.bench.baselines import table6c_job
from repro.bench.record import record_run


def test_table6c_job(benchmark, spark):
    df = record_run(benchmark, table6c_job, spark)
    # Shape: GF-CL beats GF-RV on median across the star-join workload.
    assert df["GF-CL_vs_GF-RV"].median() > 1.0
