"""Table 4 benchmark: vertex columns vs CSR for single-cardinality
edges (§8.4)."""
from repro.bench.record import record_run
from repro.bench.single_card import table4


def test_table4_single_card(benchmark, spark):
    df = record_run(benchmark, table4, spark)
    # Shape: V-COL beats CSR on memory in both compression settings,
    # and NULL compression shrinks the half-empty replyOf storage.
    assert df.loc["V-COL-UNC", "mem_bytes"] < df.loc["CSR-UNC", "mem_bytes"]
    assert df.loc["V-COL-C", "mem_bytes"] < df.loc["CSR-C", "mem_bytes"]
    assert df.loc["V-COL-C", "mem_bytes"] < df.loc["V-COL-UNC", "mem_bytes"]
    for h in (2, 3):
        assert (
            df.loc["V-COL-UNC", f"{h}-hop_s"] < df.loc["CSR-UNC", f"{h}-hop_s"]
        )
