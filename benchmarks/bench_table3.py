"""Table 3 benchmark: property pages vs edge columns (§8.3)."""
from repro.bench.prop_pages import table3
from repro.bench.record import record_run


def test_table3_prop_pages(benchmark, spark):
    df = record_run(benchmark, table3, spark)
    # Shape check: forward plans are faster under property pages.
    for ds in df.dataset.unique():
        sub = df[(df.dataset == ds) & (df.plan == "P_F") & (df.hops == "1H")]
        ce = sub[sub.config == "COL_E"]["seconds"].iloc[0]
        pp = sub[sub.config == "PAGE_P"]["seconds"].iloc[0]
        assert ce > pp, f"{ds}: PAGE_P should win the forward 1-hop"
