"""GraphStore: Table 1 storage decisions, Fig 6 factoring, Table 2 axes."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.data import GraphData
from repro.graphs.schema import GraphSchema, PropSpec
from repro.storage.graph_store import GraphStore, StorageConfig
from repro.storage.rv_model import rv_memory_report


def _mini():
    sch = GraphSchema()
    sch.add_vertex("A", PropSpec("x"))
    sch.add_vertex("B", PropSpec("y"))
    sch.add_edge("nn", "A", "B", "n-n", PropSpec("p"))
    sch.add_edge("nn_noprop", "A", "B", "n-n")
    sch.add_edge("n1", "A", "B", "n-1", PropSpec("q"))
    sch.add_edge("one_n", "A", "B", "1-n", PropSpec("r"))
    sch.add_edge("one_one", "A", "B", "1-1", PropSpec("s"))
    vt = {
        "A": pd.DataFrame({"_id": range(4), "x": [1, 2, 3, 4]}),
        "B": pd.DataFrame({"_id": range(4), "y": [5, 6, 7, 8]}),
    }
    et = {
        "nn": pd.DataFrame({"src": [0, 0, 1], "dst": [1, 2, 1], "p": [9, 8, 7]}),
        "nn_noprop": pd.DataFrame({"src": [0, 1], "dst": [0, 0]}),
        "n1": pd.DataFrame({"src": [0, 2], "dst": [1, 1], "q": [1, 2]}),
        "one_n": pd.DataFrame({"src": [0, 0], "dst": [1, 2], "r": [3, 4]}),
        "one_one": pd.DataFrame({"src": [1, 2], "dst": [3, 0], "s": [5, 6]}),
    }
    data = GraphData(sch, vt, et)
    data.validate()
    return data


@pytest.fixture(scope="module")
def store():
    return GraphStore.build(_mini(), StorageConfig.gf_cl())


class TestTable1Decisions:
    """Storage choices per Table 1 of the paper."""

    def test_nn_edges_use_csr_both_directions(self, store):
        es = store.edge("nn")
        assert es.fwd_kind == "csr" and es.bwd_kind == "csr"
        assert es.eprop_kind == "pages"

    def test_n1_forward_is_vertex_column(self, store):
        es = store.edge("n1")
        assert es.fwd_kind == "vcol" and es.bwd_kind == "csr"
        assert es.eprop_kind == "src_vcol"

    def test_1n_backward_is_vertex_column(self, store):
        es = store.edge("one_n")
        assert es.fwd_kind == "csr" and es.bwd_kind == "vcol"
        assert es.eprop_kind == "dst_vcol"

    def test_11_both_directions_vertex_columns(self, store):
        es = store.edge("one_one")
        assert es.fwd_kind == "vcol" and es.bwd_kind == "vcol"
        assert es.eprop_kind == "src_vcol"

    def test_single_card_override_uses_csr(self):
        st = GraphStore.build(
            _mini(), StorageConfig(single_card_as_vcol=False)
        )
        assert st.edge("n1").fwd_kind == "csr"
        assert st.edge("n1").eprop_kind == "src_vcol"


class TestFig6SlotFactoring:
    """Positional offsets are stored only when they are needed."""

    def test_nn_with_props_stores_slots(self, store):
        assert store.edge("nn").csr("fwd").slots is not None

    def test_nn_without_props_omits_slots(self, store):
        assert store.edge("nn_noprop").csr("fwd").slots is None

    def test_single_cardinality_omits_slots(self, store):
        # 1-n forward lives in a CSR but the edge property is addressed
        # by the destination vertex, so no slot is stored.
        assert store.edge("one_n").csr("fwd").slots is None

    def test_old_id_scheme_stores_8_byte_edge_ids(self):
        st = GraphStore.build(
            _mini(), StorageConfig(new_ids=False, zero_suppress=False)
        )
        csr = st.edge("nn").csr("fwd")
        assert csr.edge_ids is not None and csr.edge_ids.dtype == np.int64
        assert csr.slots is None


class TestEdgePropertyReads:
    def test_nn_pages_fwd(self, store):
        es = store.edge("nn")
        csr = es.csr("fwd")
        s, e = csr.range_of(0)
        vals, nulls, _ = es.eprops.read_fwd_range("p", s, e)
        assert sorted(vals.astype(int)) == [8, 9]

    def test_n1_prop_by_source_offset(self, store):
        col = store.edge("n1").eprops["q"]
        assert col.get_one(0) == 1 and col.get_one(2) == 2
        assert col.get_one(1) is None

    def test_1n_prop_by_destination_offset(self, store):
        col = store.edge("one_n").eprops["r"]
        assert col.get_one(1) == 3 and col.get_one(2) == 4


def _random_nn(n=12, n_edges=60, seed=3):
    rng = np.random.default_rng(seed)
    sch = GraphSchema()
    sch.add_vertex("A", PropSpec("x"))
    sch.add_edge("nn", "A", "A", "n-n", PropSpec("p"))
    vt = {"A": pd.DataFrame({"_id": range(n), "x": range(n)})}
    src = rng.integers(0, n - 1, n_edges)  # vertex n - 1 has no out-list
    dst = rng.integers(1, n, n_edges)  # vertex 0 has no in-list
    et = {"nn": pd.DataFrame({"src": src, "dst": dst, "p": np.arange(n_edges)})}
    data = GraphData(sch, vt, et)
    data.validate()
    return data


ADDR_CONFIGS = [
    *StorageConfig.ablation_steps(),
    ("pages-k2-old", StorageConfig(new_ids=False, k=2)),
    ("pages-k3-new", StorageConfig(k=3, null_compress=True)),
    ("cols-old", StorageConfig(new_ids=False, edge_prop_storage="edge_columns")),
    ("cols-new", StorageConfig(edge_prop_storage="edge_columns")),
]


class TestEdgePropertyAddress:
    """``EdgeStore.eprop_addr`` locates every CSR entry's properties under
    both ID schemes, both n-n property layouts and both directions."""

    @pytest.mark.parametrize("direction", ["fwd", "bwd"])
    @pytest.mark.parametrize(
        "cfg", [c for _, c in ADDR_CONFIGS], ids=[n for n, _ in ADDR_CONFIGS]
    )
    def test_lists_and_entries_resolve(self, cfg, direction):
        data = _random_nn()
        es = GraphStore.build(data, cfg).edge("nn")
        csr = es.csr(direction)
        et = data.etables["nn"]
        own, other = ("src", "dst") if direction == "fwd" else ("dst", "src")
        for v in range(12):
            s, e = csr.range_of(v)
            want = sorted(zip(et[et[own] == v][other], et[et[own] == v]["p"]))
            vals, _, _ = es.eprops.read_at(
                "p", es.eprop_addr(csr, direction, slice(s, e))
            )
            nbrs = csr.nbr[s:e].astype(int).tolist()
            assert sorted(zip(nbrs, vals.astype(int).tolist())) == want
            one = [
                es.eprops.read_one("p", es.eprop_addr(csr, direction, i))
                for i in range(s, e)
            ]
            assert sorted(zip(nbrs, one)) == want
            arr = es.eprop_addr(csr, direction, np.arange(s, e))
            assert list(arr) == list(es.eprop_addr(csr, direction, slice(s, e)))


class TestMemoryReport:
    def test_components_positive_and_sum(self, store):
        rep = store.memory_report()
        assert rep["total"] == (
            rep["vertex_props"] + rep["edge_props"]
            + rep["fwd_adj"] + rep["bwd_adj"]
        )
        assert all(v > 0 for v in rep.values())

    def test_ablation_totals_shrink_at_scale(self):
        from repro.graphs.datasets import ldbc_lite

        data = ldbc_lite(sf=0.05)
        totals = [rv_memory_report(data)["total"]]
        for _, cfg in StorageConfig.ablation_steps():
            totals.append(GraphStore.build(data, cfg).memory_report()["total"])
        # Each optimization reduces (or ~keeps) the footprint; GF-CL is
        # much smaller than GF-RV (Table 2 shape).
        for a, b in zip(totals, totals[1:]):
            assert b <= a * 1.02
        assert totals[-1] < totals[0] / 1.8

    def test_old_ids_single_card_accounting(self):
        st = GraphStore.build(
            _mini(), StorageConfig(new_ids=False, zero_suppress=False)
        )
        assert st.edge("n1").extra_id_bytes == 8 * 2


def test_build_via_spark(spark, monkeypatch):
    monkeypatch.setattr(GraphStore, "SPARK_SORT_THRESHOLD", 0)
    data = _mini()
    st_local = GraphStore.build(data, StorageConfig.gf_cl())
    st_spark = GraphStore.build(data, StorageConfig.gf_cl(), spark=spark)
    assert st_spark.memory_report() == st_local.memory_report()
    for name in data.schema.edges:
        a, b = st_local.edge(name), st_spark.edge(name)
        if a.fwd_kind == "csr":
            assert (a.csr("fwd").offsets == b.csr("fwd").offsets).all()
            assert sorted(a.csr("fwd").nbr) == sorted(b.csr("fwd").nbr)
