"""Unit tests for the Jacobson-index NULL compression (§5.3, Fig 7)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.compression import dictionary_encode
from repro.storage.null_compression import (
    BitVector,
    JacobsonIndex,
    NullableColumn,
    VanillaBitIndex,
    pack_bits,
    popcount_map,
)


def _ref_rank(mask):
    return np.concatenate(([0], np.cumsum(mask)))[:-1]


@pytest.mark.parametrize("c", [8, 16])
def test_popcount_map_values(c):
    m = popcount_map(c)
    assert m.shape == (1 << c, c)
    # Spot checks against int.bit_count on masked words.
    rng = np.random.default_rng(0)
    for w in rng.integers(0, 1 << c, 50):
        for i in (0, 1, c // 2, c - 1):
            expected = int(int(w) & ((1 << i) - 1)).bit_count()
            assert m[w, i] == expected


def test_popcount_map_rejects_large_c():
    with pytest.raises(ValueError):
        popcount_map(24)


def test_popcount_map_size_matches_paper():
    # c=16: 2^16 * 16 one-byte cells = 1 MiB (paper §5.3).
    assert popcount_map(16).nbytes == 1 << 20


@pytest.mark.parametrize("c", [8, 16])
def test_pack_bits_roundtrip(c):
    rng = np.random.default_rng(1)
    mask = rng.random(1000) < 0.3
    words = pack_bits(mask, c)
    unpacked = np.concatenate(
        [[(int(w) >> i) & 1 for i in range(c)] for w in words]
    )[: len(mask)].astype(bool)
    assert (unpacked == mask).all()


DENSITIES = [0.0, 0.01, 0.3, 0.5, 0.9, 1.0]
CM = [(8, 8), (8, 16), (8, 24), (8, 32), (16, 8), (16, 16), (16, 24), (16, 32)]


@pytest.mark.parametrize("c,m", CM)
@pytest.mark.parametrize("density", DENSITIES)
def test_jacobson_rank_and_is_set(c, m, density):
    rng = np.random.default_rng(42)
    n = 5000
    mask = rng.random(n) < density
    ji = JacobsonIndex(mask, c=c, m=m)
    idx = rng.integers(0, n, 500)
    assert (ji.is_set(idx) == mask[idx]).all()
    assert (ji.rank(idx) == _ref_rank(mask)[idx]).all()
    assert ji.total_set == int(mask.sum())


@pytest.mark.parametrize("c", [8, 16])
def test_jacobson_scalar_paths(c):
    rng = np.random.default_rng(3)
    n = 2000
    mask = rng.random(n) < 0.4
    ji = JacobsonIndex(mask, c=c)
    ref = _ref_rank(mask)
    for p in rng.integers(0, n, 100):
        assert ji.is_set_one(int(p)) == bool(mask[p])
        assert ji.rank_one(int(p)) == int(ref[p])


def test_jacobson_multiblock():
    # m=8 -> 256-element blocks; cross several block boundaries.
    rng = np.random.default_rng(4)
    mask = rng.random(3000) < 0.7
    ji = JacobsonIndex(mask, c=8, m=8)
    idx = np.arange(3000)
    assert (ji.rank(idx) == _ref_rank(mask)[idx]).all()


def test_jacobson_rejects_bad_m():
    with pytest.raises(ValueError):
        JacobsonIndex(np.array([True]), m=12)


def test_jacobson_overhead_two_bits_per_element():
    # Default c=m=16: 1 bit mask + 1 bit prefix sums (paper: 2 bits/elt).
    n = 64_000
    ji = JacobsonIndex(np.ones(n, dtype=bool), c=16, m=16)
    bits_per_elt = ji.overhead_bytes() * 8 / n
    assert 1.9 <= bits_per_elt <= 2.2


def test_jacobson_overhead_scales_with_m():
    n = 32_000
    mask = np.ones(n, dtype=bool)
    o8 = JacobsonIndex(mask, c=16, m=8).overhead_bytes()
    o32 = JacobsonIndex(mask, c=16, m=32).overhead_bytes()
    assert o32 > o8


def test_vanilla_index_matches_reference():
    rng = np.random.default_rng(5)
    mask = rng.random(1000) < 0.5
    vi = VanillaBitIndex(mask)
    idx = rng.integers(0, 1000, 50)
    assert (vi.is_set(idx) == mask[idx]).all()
    assert (vi.rank(idx) == _ref_rank(mask)[idx]).all()
    assert vi.overhead_bytes() == 125  # 1000 bits


@pytest.mark.parametrize("mode", ["uncompressed", "jacobson", "vanilla"])
def test_nullable_column_reads(mode):
    rng = np.random.default_rng(6)
    n = 2000
    mask = rng.random(n) < 0.6
    vals = rng.integers(0, 10**9, n)
    col = NullableColumn(vals, mask, mode=mode)
    idx = rng.integers(0, n, 300)
    got, nulls = col.get_many(idx)
    assert (nulls == ~mask[idx]).all()
    assert (got[~nulls] == vals[idx][~nulls]).all()
    assert (got[nulls] == 0).all()


def test_nullable_column_object_values():
    vals = np.array(["x", "skip", "y", "skip"], dtype=object)
    mask = np.array([True, False, True, False])
    col = NullableColumn(vals, mask, mode="jacobson")
    got, nulls = col.get_many(np.array([0, 1, 2, 3]))
    assert list(got) == ["x", None, "y", None]
    assert list(nulls) == [False, True, False, True]


def _two_pass(vals, mask, mode, idx):
    """``get_many`` as two passes over a separately built index:
    presence bits, then the ranks of the present positions only,
    scattered into a sentinel-filled output."""
    index = JacobsonIndex(mask) if mode == "jacobson" else VanillaBitIndex(mask)
    present = index.is_set(idx)
    if vals.dtype == object:
        out = np.full(len(idx), None, dtype=object)
    else:
        out = np.zeros(len(idx), dtype=vals.dtype)
    if present.any():
        out[present] = vals[mask][index.rank(idx[present])]
    return out, ~present


@pytest.mark.parametrize("mode", ["jacobson", "vanilla"])
@pytest.mark.parametrize("dtype", ["int64", "float64", "object"])
@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_get_many_matches_two_passes(mode, dtype, density):
    rng = np.random.default_rng(8)
    n = 1500
    mask = rng.random(n) < density
    vals = rng.integers(1, 10**6, n).astype(dtype)
    if dtype == "object":
        vals = np.array([f"s{v}" for v in vals], dtype=object)
    col = NullableColumn(vals, mask, mode=mode)
    # Empty, one position, the last one (whose rank may be past the
    # values) and random positions with repeats.
    for idx in (np.zeros(0, np.int64), np.array([0]), np.array([n - 1]),
                rng.integers(0, n, 400)):
        got, nulls = col.get_many(idx)
        want, want_nulls = _two_pass(vals, mask, mode, idx)
        assert got.dtype == want.dtype and len(got) == len(idx)
        assert (nulls == want_nulls).all() and (nulls == ~mask[idx]).all()
        assert list(got) == list(want)


def _column_values(kind, n, rng):
    """``n`` values of a column kind: a numeric dtype, raw strings, or
    dictionary codes as a string column stores them."""
    if kind == "codes":
        strs = np.array([f"s{v}" for v in rng.integers(0, 40, n)], dtype=object)
        return dictionary_encode(strs, np.ones(n, dtype=bool))[0]
    vals = rng.integers(1, 10**6, n).astype(kind)
    if kind == "object":
        return np.array([f"s{v}" for v in vals], dtype=object)
    return vals


@pytest.mark.parametrize("mode", ["uncompressed", "jacobson", "vanilla"])
@pytest.mark.parametrize("kind", ["int64", "float64", "object", "codes"])
@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_get_range_matches_get_many(mode, kind, density):
    rng = np.random.default_rng(9)
    n = 1000  # not a multiple of 8 or 16 words' bits
    mask = rng.random(n) < density
    col = NullableColumn(_column_values(kind, n, rng), mask, mode=mode)
    # Empty, the first position, word-unaligned, the last position, the
    # empty range at the end and the whole column.
    for start, end in ((5, 5), (0, 1), (3, 45), (17, 998), (n - 1, n),
                       (n, n), (0, n)):
        got, nulls = col.get_range(start, end)
        want, want_nulls = col.get_many(np.arange(start, end))
        assert got.dtype == want.dtype and len(got) == end - start
        assert nulls.dtype == bool and (nulls == want_nulls).all()
        assert (nulls == ~mask[start:end]).all()
        assert list(got) == list(want)


def test_bits_unpacks_any_range():
    rng = np.random.default_rng(10)
    mask = rng.random(333) < 0.5
    for c in (8, 16):
        bv = BitVector(mask, c=c)
        for start, end in ((0, 333), (7, 9), (16, 32), (330, 333), (333, 333)):
            assert (bv.bits(start, end) == mask[start:end]).all()
        assert (bv.unpack_all() == mask).all()


def _arrays(obj):
    """Every numpy array ``obj`` holds, through nested ``repro`` objects."""
    for v in vars(obj).values():
        if isinstance(v, np.ndarray):
            yield v
        elif type(v).__module__.startswith("repro."):
            yield from _arrays(v)


@pytest.mark.parametrize("n", [1, 8, 9, 1000, 1001])
def test_uncompressed_arrays_total_nbytes(n):
    """An uncompressed column holds its values and its validity bits,
    and nothing ``nbytes`` does not count."""
    mask = np.arange(n) % 3 > 0
    col = NullableColumn(np.arange(n, dtype=np.int32), mask, mode="uncompressed")
    arrays = list(_arrays(col))
    assert len(arrays) == 2  # values, validity words
    assert sum(a.nbytes for a in arrays) == col.nbytes() == 4 * n + -(-n // 8)


def test_nullable_column_length_mismatch():
    with pytest.raises(ValueError):
        NullableColumn(np.arange(3), np.array([True, False]))


def test_nullable_column_unknown_mode():
    with pytest.raises(ValueError):
        NullableColumn(np.arange(2), np.array([True, True]), mode="bogus")


def test_jacobson_nbytes_smaller_when_sparse():
    rng = np.random.default_rng(7)
    n = 50_000
    mask = rng.random(n) < 0.2
    vals = rng.integers(0, 2**31, n).astype(np.int64)
    dense = NullableColumn(vals, mask, mode="uncompressed")
    sparse = NullableColumn(vals, mask, mode="jacobson")
    assert sparse.nbytes() < dense.nbytes()


def test_uncompressed_nbytes_counts_validity_bits():
    n = 8000
    vals = np.zeros(n, dtype=np.int32)
    col = NullableColumn(vals, np.ones(n, dtype=bool), mode="uncompressed")
    assert col.nbytes() == n * 4 + n // 8


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.booleans(), min_size=1, max_size=400),
    st.integers(min_value=0, max_value=399),
)
def test_jacobson_rank_hypothesis(bits, p):
    mask = np.array(bits, dtype=bool)
    p = p % len(mask)
    ji = JacobsonIndex(mask, c=8, m=8)
    assert ji.rank_one(p) == int(mask[:p].sum())
    assert ji.is_set_one(p) == bool(mask[p])
