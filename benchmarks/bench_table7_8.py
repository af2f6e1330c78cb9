"""Tables 7/8 benchmark: Jacobson (c, m) sensitivity; §8.5 scheme
comparison; Fig 12 k sweep as a table."""
from repro.bench.record import record_run
from repro.bench.sensitivity import fig12_k_sweep, table7, table7_schemes, table8


def test_table7_cm_runtime(benchmark, spark):
    df = record_run(benchmark, table7, spark)
    # Shape: runtime is insensitive to (c, m). We check spread away from
    # the extremes (rho=100 hits the dense fast path that skips ranks
    # entirely; sub-ms cells at tiny rho are noise-dominated).
    mid = df[(df.rho >= 20) & (df.rho <= 90)]
    for rho, grp in mid.groupby("rho"):
        assert grp["ms"].max() / grp["ms"].min() < 4.0, rho
    # No blow-up with sparsity either.
    assert df[df.rho == 20]["ms"].median() < df[df.rho == 90]["ms"].median() * 3


def test_table7_scheme_extremes(benchmark, spark):
    df = record_run(benchmark, table7_schemes, spark)
    # Paper §8.5: Vanilla-NULL is >20x slower than J-NULL.
    assert df.loc["Vanilla-NULL", "ms"] > 20 * df.loc["J-NULL", "ms"]


def test_table8_cm_memory(benchmark, spark):
    df = record_run(benchmark, table8, spark)
    d = df.set_index(["c", "m"])["overhead_bytes"]
    # Paper Table 8 shape: overhead ~ m/c; (8,8) ≈ (16,16); max at (8,32).
    assert abs(d[(8, 8)] - d[(16, 16)]) / d[(16, 16)] < 0.3
    assert d[(8, 32)] == d.max()
    assert d[(16, 8)] == d.min()


def test_fig12_k_sweep(benchmark, spark):
    df = record_run(benchmark, fig12_k_sweep, spark)
    # Shape: k=128 is no slower than pure edge columns ('*').
    t = dict(zip(df["k"], df["seconds"]))
    assert t["128"] < t["*"]
