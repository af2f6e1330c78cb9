"""Table 5 benchmark: LBP vs Volcano on k-hop FILTER / COUNT(*) (§8.6)."""
from repro.bench.lbp_vs_volcano import table5
from repro.bench.record import record_run


def test_table5_lbp_vs_volcano(benchmark, spark):
    df = record_run(benchmark, table5, spark)
    # Shape: GF-CL wins everywhere beyond 1 hop, COUNT(*) speedups exceed
    # FILTER speedups at 3 hops (factorized counting), and speedups grow
    # with hops.
    multi = df[df.hops >= 2]
    assert (multi["speedup"] > 1).all()
    for ds in df.dataset.unique():
        f3 = df[(df.dataset == ds) & (df.workload == "FILTER") & (df.hops == 3)]
        c3 = df[(df.dataset == ds) & (df.workload == "COUNT(*)") & (df.hops == 3)]
        assert c3["speedup"].iloc[0] > f3["speedup"].iloc[0]
