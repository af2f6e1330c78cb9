"""The DuckDB oracle rejects a wrong result (every DuckDB-checked query
test covers its accepting path)."""
import pytest

from repro.oracle import assert_equivalent


def test_oracle_catches_wrong_result(spark, ldbc):
    import pandas as pd

    wrong = spark.createDataFrame(pd.DataFrame({"cnt": [-1]}))
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            "SELECT COUNT(*) AS cnt FROM v_Person",
            **ldbc.sql_tables(),
        )
