"""Tables 6a/6b benchmark: LDBC IS + IC across the five systems (§8.7.1)."""
from repro.bench.baselines import table6a_ldbc_is, table6b_ldbc_ic
from repro.bench.record import record_run


def test_table6a_ldbc_is(benchmark, spark):
    record_run(benchmark, table6a_ldbc_is, spark)


def test_table6b_ldbc_ic(benchmark, spark):
    df = record_run(benchmark, table6b_ldbc_ic, spark)
    # Shape assertion: GF-CL beats GF-RV on median (the paper's headline
    # Table 6 claim). Other ratios are reported, not asserted — the
    # cross-runtime and pointer-chasing contrasts do not transfer to a
    # Python substrate (see EXPERIMENTS.md).
    assert df["GF-CL_vs_GF-RV"].median() > 1.0
