"""Key-range scans: a literal predicate on a sorted numeric column narrows
the scan to the offsets it can match, with the same answers as DuckDB and
as the full scan."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.bench.lbp_vs_volcano import khop_count_spec, khop_filter_spec
from repro.bench.prop_pages import khop_spec
from repro.bench.queries_job import JOB_QUERIES
from repro.bench.queries_ldbc import IS_QUERIES
from repro.graphs.data import GraphData
from repro.graphs.datasets import flickr_like, ldbc_lite
from repro.graphs.schema import GraphSchema, PropSpec
from repro.oracle import _canon
from repro.proc.lbp import compile_lbp, run_lbp, run_lbp_df, scan_bounds
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import QueryEdge as E
from repro.proc.plan import QuerySpec, compile_logical, to_sql
from repro.storage.graph_store import GraphStore, StorageConfig
from repro.storage.vertex_column import VertexColumn

N = 40


def _keyed():
    """``A`` has sorted keys with duplicates and gaps (``k``), sorted
    floats (``f``), a permuted key (``perm``), a sorted key with NULLs
    (``nul``), a dictionary string (``name``) and a raw string (``raw``);
    every ``A`` links to two ``B``."""
    sch = GraphSchema()
    sch.add_vertex(
        "A", PropSpec("id"), PropSpec("k"), PropSpec("f", "float64"),
        PropSpec("perm"), PropSpec("nul"), PropSpec("name", "str", True),
        PropSpec("raw", "str"),
    )
    sch.add_vertex("B", PropSpec("id"), PropSpec("y"))
    sch.add_edge("ab", "A", "B", "n-n", PropSpec("w"))
    rng = np.random.default_rng(5)
    k = (np.arange(N) // 3) * 2  # 0 0 0 2 2 2 4 ... 26: triples, odd gaps
    nul = pd.Series(np.arange(N), dtype="float64")
    nul[[0, 1]] = None  # the NULL placeholder 0 would keep it in order
    vt = {
        "A": pd.DataFrame({
            "_id": np.arange(N), "id": np.arange(N), "k": k,
            "f": k + 0.5, "perm": rng.permutation(N), "nul": nul,
            "name": [f"n{i:02d}" for i in range(N)],
            "raw": [f"r{i:02d}" for i in range(N)],
        }),
        "B": pd.DataFrame({
            "_id": np.arange(N), "id": np.arange(N), "y": rng.integers(0, 9, N),
        }),
    }
    src = np.repeat(np.arange(N), 2)
    et = {"ab": pd.DataFrame({
        "src": src, "dst": (src * 7 + np.tile([1, 2], N)) % N,
        "w": rng.integers(0, 100, 2 * N),
    })}
    data = GraphData(sch, vt, et)
    data.validate()
    return data


@pytest.fixture(scope="module")
def keyed():
    return _keyed()


@pytest.fixture(scope="module")
def store(keyed):
    return GraphStore.build(keyed, StorageConfig.gf_cl())


@pytest.fixture(scope="module")
def full_store(keyed):
    """The same store with every sorted flag cleared: the full-scan plan."""
    s = GraphStore.build(keyed, StorageConfig.gf_cl())
    for cols in s.vprops.values():
        for col in cols.values():
            col.is_sorted = False
    return s


def _spec(*preds, returns=(("a", "k"), ("b", "id"))):
    return QuerySpec(
        "key", {"a": "A", "b": "B"}, [E("a", "b", "ab", "e")],
        list(preds), list(returns) if returns != "count" else "count",
        ["a", "b"],
    )


def _duckdb(data, spec):
    con = duckdb.connect()
    try:
        for name, t in data.sql_tables().items():
            con.register(name, t)
        return con.execute(to_sql(spec, data.schema)).fetchdf()
    finally:
        con.close()


def _same(got: pd.DataFrame, want: pd.DataFrame) -> None:
    assert set(got.columns) == set(want.columns)
    pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)


def _bounds(store, spec, scan_range=None):
    scan, _ = compile_lbp(store, spec, scan_range=scan_range)
    return scan.lo, scan.hi


class TestSortedFlag:
    def test_flags_set_at_build(self, store):
        flags = {p: c.is_sorted for p, c in store.vprops["A"].items()}
        assert flags == {
            "id": True, "k": True, "f": True, "perm": False, "nul": False,
            "name": False, "raw": False,
        }

    @pytest.mark.parametrize("mode", ["uncompressed", "jacobson", "vanilla"])
    def test_flag_per_null_mode(self, mode):
        def flag(values, dtype="int64", **kw):
            s = pd.Series(values)
            return VertexColumn.from_series(
                s, dtype, null_mode=mode, **kw
            ).is_sorted

        assert flag([1, 1, 2, 5])
        assert flag([])
        assert not flag([1, 3, 2])
        assert not flag([1.0, None, 3.0], "float64")
        assert not flag(["a", "b"], "str")
        assert not flag(["a", "b"], "str", categorical=True)

    def test_edge_columns_are_not_flagged(self):
        assert not VertexColumn.from_offsets(
            4, np.array([0, 1]), np.array([2, 3])
        ).is_sorted


#: (op, literal, the matching ``A`` offsets as [first, last + 1)).
#: ``k`` is 0 0 0 2 2 2 4 4 4 ... 26 (offsets 39..39 hold 26).
CASES = [
    ("=", -3, (0, 0)),        # below the minimum
    ("<", -3, (0, 0)),
    (">=", -3, (0, N)),
    ("=", 100, (N, N)),       # above the maximum
    (">", 100, (N, N)),
    ("<=", 100, (0, N)),
    ("=", 3, (6, 6)),         # between two keys
    ("<", 3, (0, 6)),
    (">", 3, (6, N)),
    ("=", 4, (6, 9)),         # a duplicated key
    ("<", 4, (0, 6)),
    ("<=", 4, (0, 9)),
    (">", 4, (9, N)),
    (">=", 4, (6, N)),
    ("=", 4.0, (6, 9)),       # float literals on an int column
    ("=", 4.5, (9, 9)),
    ("<", 3.5, (0, 6)),
    (">=", 3.5, (6, N)),
    ("=", np.int64(2), (3, 6)),
]


@pytest.mark.parametrize("op,value,rows", CASES, ids=repr)
def test_narrowed_scan_matches_duckdb_and_full_scan(
    keyed, store, full_store, op, value, rows
):
    spec = _spec(Pr("a", "k", op, value))
    lo, hi = _bounds(store, spec)
    if rows[0] == rows[1]:
        assert lo == hi
    else:
        assert (lo, hi) == rows
    assert _bounds(full_store, spec) == (0, N)
    got = run_lbp_df(store, spec)
    _same(got, run_lbp_df(full_store, spec))
    _same(got, _duckdb(keyed, spec))


@pytest.mark.parametrize("op,value", [
    (">", 2.5), ("<=", 6.5), ("=", 4.5), ("=", 4.0),
])
def test_float_column(keyed, store, op, value):
    spec = _spec(Pr("a", "f", op, value), returns=[("a", "f"), ("b", "id")])
    lo, hi = _bounds(store, spec)
    assert hi - lo < N
    _same(run_lbp_df(store, spec), _duckdb(keyed, spec))


def test_every_literal_predicate_narrows(keyed, store, full_store):
    spec = _spec(Pr("a", "k", ">=", 4), Pr("a", "id", "<", 20),
                 Pr("a", "perm", ">", 3))
    assert _bounds(store, spec) == (6, 20)
    _same(run_lbp_df(store, spec), run_lbp_df(full_store, spec))
    _same(run_lbp_df(store, spec), _duckdb(keyed, spec))


@pytest.mark.parametrize("pred", [
    Pr("a", "k", "=", True),          # bool is not a key literal
    Pr("a", "k", ">", False),
    Pr("a", "k", "=", "4"),           # nor is a string
    Pr("a", "name", "=", "n05"),      # dictionary column
    Pr("a", "raw", "=", "r05"),       # raw-string column
    Pr("a", "perm", "=", 5),          # permuted column
    Pr("a", "nul", "=", 5),           # column with NULLs
    Pr("a", "k", "<>", 4),            # not a range op
    Pr("a", "k", "in", [2, 4]),
    Pr("a", "k", "=", value=None, rhs_var="a", rhs_prop="id"),
])
def test_no_narrowing(store, pred):
    assert scan_bounds(store, _spec(pred)) == (0, N)


@pytest.mark.parametrize("pred", [
    Pr("a", "name", "=", "n05"),
    Pr("a", "raw", "=", "r05"),
    Pr("a", "perm", "=", 5),
    Pr("a", "nul", "=", 5),
    Pr("a", "nul", ">=", 30),
])
def test_full_scan_fallbacks_match_duckdb(keyed, store, pred):
    spec = _spec(pred)
    assert _bounds(store, spec) == (0, N)
    _same(run_lbp_df(store, spec), _duckdb(keyed, spec))


def test_bool_literal_matches_full_scan(store, full_store):
    spec = _spec(Pr("a", "k", "=", True))
    _same(run_lbp_df(store, spec), run_lbp_df(full_store, spec))


def test_predicate_after_an_extend_does_not_narrow(store):
    # b.id is filtered after the extend, not on the scan variable.
    assert scan_bounds(store, _spec(Pr("b", "id", "=", 3))) == (0, N)


@pytest.mark.parametrize("scan_range,want", [
    ((0, N), (6, 9)),
    ((7, 20), (7, 9)),
    ((0, 7), (6, 7)),
    ((10, 20), None),
])
def test_intersects_scan_range(store, full_store, scan_range, want):
    spec = _spec(Pr("a", "k", "=", 4), returns="count")
    lo, hi = _bounds(store, spec, scan_range)
    if want is None:
        assert lo == hi
    else:
        assert (lo, hi) == want
    assert run_lbp(store, spec, scan_range=scan_range) == run_lbp(
        full_store, spec, scan_range=scan_range
    )


def test_partitions_compose(store):
    spec = _spec(Pr("a", "k", ">", 7), returns="count")
    parts = [run_lbp(store, spec, scan_range=(lo, min(lo + 7, N)))
             for lo in range(0, N, 7)]
    assert sum(parts) == run_lbp(store, spec) == 2 * (N - 12)


def test_small_blocks(store, full_store):
    spec = _spec(Pr("a", "k", ">=", 10), Pr("a", "k", "<", 20))
    _same(run_lbp_df(store, spec, block_size=2), run_lbp_df(full_store, spec))


def test_empty_range_count_is_zero(store):
    spec = _spec(Pr("a", "id", "=", N + 5), returns="count")
    assert run_lbp(store, spec) == 0


def test_empty_range_projection_keeps_its_columns(keyed, store):
    spec = _spec(Pr("a", "id", "=", -1), returns=[("a", "raw"), ("e", "w")])
    got = run_lbp(store, spec)
    assert isinstance(got, pd.DataFrame) and len(got) == 0
    assert list(got.columns) == ["a_raw", "e_w"]
    assert len(_duckdb(keyed, spec)) == 0


class TestPlanShape:
    """The LDBC point queries scan one vertex; no JOB or k-hop path
    query gets a narrowed scan."""

    @pytest.fixture(scope="class")
    def ldbc_01(self):
        return GraphStore.build(ldbc_lite(sf=0.1), StorageConfig.gf_cl())

    @pytest.mark.parametrize("name", ["IS01", "IS04"])
    def test_is_point_queries_scan_one_row(self, ldbc_01, name):
        spec = next(q for q in IS_QUERIES if q.name == name)
        lo, hi = _bounds(ldbc_01, spec)
        assert hi - lo == 1
        assert lo == spec.predicates[0].value  # ids are offsets here

    def test_job_scans_are_not_narrowed(self, imdb_store):
        for spec in JOB_QUERIES:
            label = compile_logical(spec)[0].label
            assert _bounds(imdb_store, spec) == (
                0, imdb_store.n_vertices[label]
            ), spec.name

    def test_khop_scans_are_not_narrowed(self, ldbc_store):
        flickr = GraphStore.build(flickr_like(sf=0.02), StorageConfig.gf_cl())
        for store, (elabel, vlabel, prop) in (
            (ldbc_store, ("knows", "Person", "date")),
            (flickr, ("link", "node", "timestamp")),
        ):
            specs = [khop_count_spec(elabel, vlabel, 2)]
            for hops in (1, 2, 3):
                specs.append(khop_filter_spec(elabel, vlabel, prop, hops))
                for direction in ("fwd", "bwd"):
                    specs.append(khop_spec(
                        elabel, vlabel, prop, hops, direction=direction
                    ))
            for spec in specs:
                assert _bounds(store, spec) == (
                    0, store.n_vertices[vlabel]
                ), spec.name
