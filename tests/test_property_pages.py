"""Unit tests for single-indexed property pages and edge columns (§4.2)."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.schema import EdgeLabel, PropSpec
from repro.storage.csr import CSR
from repro.storage.edge_column import EdgeColumns
from repro.storage.property_pages import PropertyPages

EDGE = EdgeLabel("F", "P", "P", "n-n", (PropSpec("w", "int64"),))


def _etable(rng, n_src=10, n_edges=40):
    return pd.DataFrame({
        "src": rng.integers(0, n_src, n_edges),
        "dst": rng.integers(0, n_src, n_edges),
        "w": rng.integers(0, 1000, n_edges),
    })


@pytest.mark.parametrize("k", [1, 2, 4, 128])
def test_forward_reads_match_table(k):
    rng = np.random.default_rng(0)
    et = _etable(rng)
    pages, slots = PropertyPages.build(EDGE, et, 10, k=k)
    csr = CSR(10, et["src"].to_numpy(), et["dst"].to_numpy(), slots=slots)
    # Reading each forward list's properties must match the raw rows
    # grouped by src in original row order.
    for v in range(10):
        s, e = csr.range_of(v)
        vals, nulls, _ = pages.read_fwd_range("w", s, e)
        ref = et[et.src == v]["w"].tolist()
        assert list(vals.astype(int)) == ref
        assert not nulls.any()


@pytest.mark.parametrize("k", [1, 2, 128])
def test_backward_reads_via_owner_slot(k):
    rng = np.random.default_rng(1)
    et = _etable(rng)
    pages, slots = PropertyPages.build(EDGE, et, 10, k=k)
    bwd = CSR(10, et["dst"].to_numpy(), et["src"].to_numpy(), slots=slots)
    for v in range(10):
        s, e = bwd.range_of(v)
        addr = pages.addr(bwd.nbr[s:e], bwd.slots[s:e])
        vals, nulls, _ = pages.read_at("w", addr)
        ref = et[et.dst == v]["w"].tolist()
        assert sorted(vals.astype(int)) == sorted(ref)


def test_fwd_positions_identity():
    # Page order == forward CSR order, so position reads equal range reads.
    rng = np.random.default_rng(2)
    et = _etable(rng)
    pages, slots = PropertyPages.build(EDGE, et, 10, k=4)
    a, _, _ = pages.read_fwd_range("w", 3, 17)
    b, _, _ = pages.read_fwd_positions("w", np.arange(3, 17))
    assert (np.asarray(a) == b).all()


def test_slots_are_page_level_and_small():
    rng = np.random.default_rng(3)
    et = _etable(rng, n_src=100, n_edges=1000)
    _, slots = PropertyPages.build(EDGE, et, 100, k=2)
    # With k=2 a page holds 2 lists: slots bounded by max 2-list degree sum.
    deg = et.groupby("src").size().reindex(range(100), fill_value=0).to_numpy()
    max_page = max(deg[i] + deg[i + 1] for i in range(0, 100, 2))
    assert slots.max() < max_page


def test_page_starts_align_to_k_boundaries():
    rng = np.random.default_rng(4)
    et = _etable(rng, n_src=10, n_edges=50)
    pages, _ = PropertyPages.build(EDGE, et, 10, k=4)
    deg = et.groupby("src").size().reindex(range(10), fill_value=0).to_numpy()
    csum = np.concatenate(([0], np.cumsum(deg)))
    assert list(pages.page_starts.astype(int)) == [
        int(csum[0]), int(csum[4]), int(csum[8]), int(csum[10]),
    ]


def test_null_edge_properties():
    edge = EdgeLabel("G", "P", "P", "n-n", (PropSpec("s", "str"),))
    et = pd.DataFrame({
        "src": [0, 0, 1], "dst": [1, 2, 0], "s": ["x", None, "y"],
    })
    pages, slots = PropertyPages.build(edge, et, 3, null_mode="jacobson")
    vals, nulls, _ = pages.read_fwd_range("s", 0, 3)
    assert list(vals) == ["x", None, "y"]
    assert list(nulls) == [False, True, False]


class TestEdgeColumns:
    def test_roundtrip_via_global_ids(self):
        rng = np.random.default_rng(5)
        et = _etable(rng)
        cols, ids = EdgeColumns.build(EDGE, et)
        vals, nulls, _ = cols.read_at("w", ids)
        assert (vals.astype(int) == et["w"].to_numpy()).all()

    def test_ids_are_randomized_permutation(self):
        rng = np.random.default_rng(6)
        et = _etable(rng, n_edges=200)
        _, ids = EdgeColumns.build(EDGE, et)
        assert sorted(ids) == list(range(200))
        assert list(ids[:20]) != list(range(20))  # not identity order

    def test_no_sequential_direction(self):
        # A forward list's edges hold scattered global IDs, so its
        # properties are a gather by ID, never a slice of the column.
        rng = np.random.default_rng(7)
        et = _etable(rng)
        cols, ids = EdgeColumns.build(EDGE, et)
        assert not hasattr(cols, "read_fwd_range")
        csr = CSR(10, et["src"].to_numpy(), et["dst"].to_numpy(), edge_ids=ids)
        runs = 0
        for v in range(10):
            s, e = csr.range_of(v)
            lids = csr.edge_ids[s:e].astype(np.int64)
            runs += bool((np.diff(lids) == 1).all())
            vals, _, _ = cols.read_at("w", lids)
            assert list(vals.astype(int)) == et[et.src == v]["w"].tolist()
        assert runs < 10
