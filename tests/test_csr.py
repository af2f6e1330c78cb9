"""Unit tests for the CSR adjacency structure (§4.1.1)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.csr import CSR
from repro.storage.null_compression import JacobsonIndex

OWNERS = np.array([3, 0, 3, 1, 3, 0])
NBRS = np.array([7, 1, 8, 2, 9, 0])
SLOTS = np.array([10, 11, 12, 13, 14, 15])


def _ref_lists():
    return {0: [1, 0], 1: [2], 2: [], 3: [7, 8, 9], 4: []}


@pytest.mark.parametrize("null_compress", [False, True])
@pytest.mark.parametrize("zero_suppress", [False, True])
def test_neighbour_lists(null_compress, zero_suppress):
    csr = CSR(5, OWNERS, NBRS, zero_suppress=zero_suppress,
              null_compress=null_compress)
    for v, ref in _ref_lists().items():
        s, e = csr.range_of(v)
        assert list(csr.nbr[s:e].astype(int)) == ref
        assert csr.degree(v) == len(ref)


@pytest.mark.parametrize("null_compress", [False, True])
def test_vectorized_ranges_match_scalar(null_compress):
    csr = CSR(5, OWNERS, NBRS, null_compress=null_compress)
    vs = np.array([0, 1, 2, 3, 4, 2, 0])
    starts, ends = csr.ranges_of(vs)
    for v, s, e in zip(vs, starts, ends):
        assert (int(s), int(e)) == csr.range_of(int(v))
    assert (csr.degrees_of(vs) == ends - starts).all()


def test_slots_follow_owner_sort():
    csr = CSR(5, OWNERS, NBRS, slots=SLOTS)
    s, e = csr.range_of(3)
    assert list(csr.slots[s:e].astype(int)) == [10, 12, 14]
    s, e = csr.range_of(0)
    assert list(csr.slots[s:e].astype(int)) == [11, 15]


def test_edge_ids_are_8_bytes():
    csr = CSR(5, OWNERS, NBRS, edge_ids=np.arange(6), zero_suppress=True)
    assert csr.edge_ids.dtype == np.int64
    s, e = csr.range_of(3)
    assert list(csr.edge_ids[s:e]) == [0, 2, 4]


def test_zero_suppression_shrinks_dtype():
    a = CSR(5, OWNERS, NBRS, zero_suppress=True)
    b = CSR(5, OWNERS, NBRS, zero_suppress=False)
    assert a.nbr.dtype == np.uint8
    assert b.nbr.dtype == np.int64
    assert a.nbytes() < b.nbytes()


def test_null_compression_shrinks_offsets_when_sparse():
    n = 10_000
    owners = np.array([5, 5, 42])  # almost every list empty
    nbrs = np.array([1, 2, 3])
    dense = CSR(n, owners, nbrs, null_compress=False)
    sparse = CSR(n, owners, nbrs, null_compress=True)
    assert sparse.nbytes() < dense.nbytes()
    assert sparse.range_of(5) == dense.range_of(5)
    assert sparse.range_of(9999) == (0, 0)


def test_empty_csr():
    csr = CSR(4, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert csr.range_of(2) == (0, 0)
    assert csr.n_edges == 0


def test_stable_order_within_list():
    # Stable sort keeps the original relative order of a vertex's edges,
    # which is what aligns CSR order with property-page order.
    owners = np.array([1, 1, 1])
    nbrs = np.array([9, 3, 5])
    csr = CSR(2, owners, nbrs)
    s, e = csr.range_of(1)
    assert list(csr.nbr[s:e].astype(int)) == [9, 3, 5]


def test_nbytes_accounts_all_arrays():
    csr = CSR(5, OWNERS, NBRS, slots=SLOTS, zero_suppress=False)
    expected = csr.offsets.nbytes + csr.nbr.nbytes + csr.slots.nbytes
    assert csr.nbytes() == expected


def test_null_compressed_ranges_of_at_scale():
    # More than 2^16 vertices, so ranks cross a Jacobson block (m = 16).
    # Empty lists fall at word edges (multiples of c = 16 and the bit
    # before them), fill whole words, and are the first and last vertex.
    n = (1 << 17) + 37
    g = np.random.default_rng(11)
    degrees = g.integers(1, 4, n)
    degrees[g.random(n) < 0.5] = 0
    degrees[::16][g.random(len(degrees[::16])) < 0.5] = 0
    degrees[15::16][g.random(len(degrees[15::16])) < 0.5] = 0
    degrees[64:96] = 0
    degrees[(1 << 16) - 3:(1 << 16) + 3] = [0, 2, 0, 0, 1, 0]
    degrees[0] = degrees[-1] = 0
    owners = np.repeat(np.arange(n), degrees)
    nbrs = g.integers(0, n, len(owners))
    sparse = CSR(n, owners, nbrs, null_compress=True)
    dense = CSR(n, owners, nbrs, null_compress=False)
    vs = np.concatenate([np.arange(n), g.integers(0, n, 10_000)])
    starts, ends = sparse.ranges_of(vs)
    d_starts, d_ends = dense.ranges_of(vs)
    empty = d_starts == d_ends
    assert empty[[0, n - 1]].all()
    assert (starts[empty] == 0).all() and (ends[empty] == 0).all()
    assert (starts[~empty] == d_starts[~empty]).all()
    assert (ends[~empty] == d_ends[~empty]).all()
    picks = np.concatenate([
        np.arange(0, 40), np.arange(60, 100),
        np.arange((1 << 16) - 20, (1 << 16) + 20), np.arange(n - 40, n),
        g.integers(0, n, 2_000),
    ])
    for v in picks:
        assert (int(starts[v]), int(ends[v])) == sparse.range_of(int(v))
    p_starts, p_ends = sparse.ranges_of(picks)  # fewer lists than owners
    assert (p_starts == starts[picks]).all() and (p_ends == ends[picks]).all()


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([0, 1, 17, 2300]),
    fill=st.sampled_from(["none", "all", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
    null_compress=st.booleans(),
)
def test_both_lookup_routes_match_range_of(n, fill, seed, null_compress):
    # Lookups of n - 1 lists take the rank route; n, n + 1 and 2n lists
    # (with repeats) the prefix-sum route. Both equal range_of per owner.
    g = np.random.default_rng(seed)
    degrees = np.zeros(n, np.int64) if fill == "none" else g.integers(1, 4, n)
    if fill == "mixed" and n:
        degrees[g.random(n) < 0.5] = 0
        degrees[[0, -1]] = 0  # empty lists at both ends
    owners = np.repeat(np.arange(n), degrees)
    nbrs = g.integers(0, max(n, 1), len(owners))
    csr = CSR(n, owners, nbrs, null_compress=null_compress)
    ref = np.array([csr.range_of(v) for v in range(n)], np.int64).reshape(n, 2)
    for length in (n - 1, n, n + 1, 2 * n):
        if length < 0 or (n == 0 and length):
            continue
        vs = g.integers(0, max(n, 1), length)
        starts, ends = csr.ranges_of(vs)
        assert (starts == ref[vs, 0]).all() and (ends == ref[vs, 1]).all()
        assert (csr.degrees_of(vs) == ends - starts).all()


def test_lookup_route_follows_its_length(monkeypatch):
    # A lookup of at least n_vertices lists never ranks; a shorter one
    # (an LDBC point query's) keeps the Jacobson rank.
    n = 40
    owners = np.repeat(np.arange(n), np.arange(n) % 3)
    csr = CSR(n, owners, np.zeros(len(owners), np.int64), null_compress=True)
    want = [csr.range_of(v) for v in range(n)]
    real = JacobsonIndex.rank

    def refuse(*args, **kw):
        raise AssertionError("rank called")

    monkeypatch.setattr(JacobsonIndex, "rank", refuse)
    for vs in (np.arange(n), np.arange(2 * n) % n):
        starts, ends = csr.ranges_of(vs)
        assert list(zip(starts, ends)) == [want[v] for v in vs]
    calls = []
    monkeypatch.setattr(
        JacobsonIndex, "rank",
        lambda self, idx, **kw: calls.append(len(idx)) or real(self, idx, **kw),
    )
    starts, ends = csr.ranges_of(np.arange(n - 1))
    assert calls == [n - 1]
    assert list(zip(starts, ends)) == want[:n - 1]
