"""Smoke + shape tests for the per-table harnesses at tiny scale."""
import numpy as np
import pytest

from repro.bench.lbp_vs_volcano import khop_count_spec, khop_filter_spec, lbp_vs_volcano
from repro.bench.memory import COMPONENTS, format_table2, table2, table2_with_factors
from repro.bench.prop_pages import format_table3, pages_vs_columns
from repro.bench.single_card import CONFIGS, format_table4, reply_khop, vcol_vs_csr
from repro.bench.sensitivity import (
    CM_GRID,
    cm_overhead,
    cm_runtime,
    k_sweep,
    table7_extremes,
)


class TestTable2:
    def test_columns_and_components(self, ldbc):
        df = table2(ldbc)
        assert list(df.columns) == [
            "GF-RV", "+COLS", "+NEW-IDS", "+0-SUPR", "+NULL",
        ]
        assert list(df.index) == COMPONENTS

    def test_totals_shrink(self, ldbc_mid):
        df = table2(ldbc_mid)
        assert df.loc["total", "+NULL"] < df.loc["total", "GF-RV"]

    def test_factors_and_format(self, ldbc):
        df = table2(ldbc)
        w = table2_with_factors(df)
        assert "GF-CL ×" in w.columns
        txt = format_table2(df, "test")
        assert "Table 2" in txt

    def test_spark_build_same_numbers(self, spark, ldbc):
        assert table2(ldbc).equals(table2(ldbc, spark=spark))


class TestTable3:
    def test_harness_rows(self, wiki):
        df = pages_vs_columns({"WIKI": wiki})
        assert len(df) == 8  # 2 hops x 2 plans x 2 configs
        assert set(df.config) == {"PAGE_P", "COL_E"}
        assert (df["seconds"] > 0).all()
        assert "Table 3" in format_table3(df)

    def test_counts_agree_across_configs(self, wiki):
        df = pages_vs_columns({"WIKI": wiki})
        for (_, _, h), grp in df.groupby(["dataset", "plan", "hops"]):
            assert grp["count"].nunique() == 1


class TestTable4:
    def test_configs_and_counts(self, ldbc):
        df = vcol_vs_csr(ldbc)
        assert set(df.index) == set(CONFIGS)
        for h in (1, 2, 3):
            assert df[f"{h}-hop_count"].nunique() == 1  # same answers
        assert "Table 4" in format_table4(df)

    def test_vcol_smaller_than_csr(self, ldbc_mid):
        df = vcol_vs_csr(ldbc_mid)
        assert df.loc["V-COL-UNC", "mem_bytes"] < df.loc["CSR-UNC", "mem_bytes"]
        assert df.loc["V-COL-C", "mem_bytes"] < df.loc["CSR-C", "mem_bytes"]
        # NULL compression shrinks the half-empty replyOf storage.
        assert df.loc["V-COL-C", "mem_bytes"] < df.loc["V-COL-UNC", "mem_bytes"]

    def test_reply_khop_spec(self):
        spec = reply_khop(2)
        assert len(spec.edges) == 2 and spec.returns == "count"


class TestTable5:
    def test_systems_agree_and_lbp_wins(self, ldbc):
        df = lbp_vs_volcano({"LDBC": ldbc}, hops=(1, 2))
        assert len(df) == 4
        assert (df["count"] >= 0).all()
        # LBP should win the 2-hop workloads even at tiny scale.
        two_hop = df[df.hops == 2]
        assert (two_hop["speedup"] > 1).all()

    def test_specs(self):
        f = khop_filter_spec("knows", "Person", "date", 3)
        assert f.edges[-1].var == "e3" and f.edges[0].var is None
        c = khop_count_spec("knows", "Person", 2)
        assert not c.predicates


class TestSensitivity:
    def test_table7_grid(self):
        df = cm_runtime(sf=0.01, rhos=(100, 50), repeats=1)
        assert len(df) == 2 * len(CM_GRID)
        assert (df["ms"] > 0).all()

    def test_table8_overhead_ordering(self):
        df = cm_overhead(sf=0.02)
        df = df.set_index(["c", "m"])
        # Overhead grows with m at fixed c; (8,8) ~ (16,16) (both m/c = 1).
        assert df.loc[(16, 8), "overhead_bytes"] < df.loc[(16, 32), "overhead_bytes"]
        ratio = df.loc[(8, 8), "overhead_bytes"] / df.loc[(16, 16), "overhead_bytes"]
        assert 0.8 < ratio < 1.3

    def test_vanilla_much_slower(self):
        df = table7_extremes(sf=0.01, repeats=1)
        assert df.loc["Vanilla-NULL", "ms"] > df.loc["J-NULL", "ms"] * 5

    def test_k_sweep_includes_edge_columns(self, wiki):
        df = k_sweep(wiki, ks=(2, 128), repeats=1)
        assert list(df["k"]) == ["2", "128", "*"]
