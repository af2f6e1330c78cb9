"""Table 2 benchmark: memory reduction per storage optimization (§8.2)."""
import pytest

from repro.bench.memory import table2_imdb, table2_ldbc, table2_with_factors
from repro.bench.record import record_run


@pytest.mark.parametrize("fn", [table2_ldbc, table2_imdb], ids=["ldbc", "imdb"])
def test_table2_memory(benchmark, spark, fn):
    df = record_run(benchmark, fn, spark)
    w = table2_with_factors(df)
    assert w.loc["total", "GF-CL ×"] > 1.5  # paper: 2.36x / 2.03x
