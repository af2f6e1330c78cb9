"""NULL / empty-list compression with a Jacobson rank index (paper §5.3).

Abadi's bit-string scheme stores the non-NULL values of a column
consecutively plus one bit per position. It supports O(1) "is p NULL?"
but computing *where* a non-NULL value lives requires rank(p) — the
number of non-NULL positions before p — which is O(n) with the plain
bit string. The paper layers a simplified Jacobson index on top:

- the bit string is divided into chunks of ``c`` bits (a machine word);
- every chunk stores a prefix sum of set bits since the start of its
  2^m-element *block*, in ``m`` bits;
- a static 2^c × c map ``M`` gives, for word ``b``, the number of set
  bits before bit ``i``;
- ``rank(p) = base[block(p)] + ps[p // c] + M[word[p // c], p mod c]``.

Defaults c = m = 16: a 1 MiB map and 2 bits/element total overhead.
All reads here are vectorized over numpy index arrays so the LBP
operators can gather many properties per call.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

_WORD_DTYPE = {8: np.uint8, 16: np.uint16}


@lru_cache(maxsize=4)
def popcount_map(c: int) -> np.ndarray:
    """The pre-populated map M with 2^c × c cells.

    ``M[b, i]`` = number of 1s strictly before bit ``i`` of the c-bit
    string ``b`` (LSB-first bit order). uint8 cells suffice for c ≤ 16,
    matching the paper's ceil(log2(c)/8)-byte cell accounting.
    """
    if c not in _WORD_DTYPE:
        raise ValueError("c must be 8 or 16 (larger maps are impractical, §A.2)")
    words = np.arange(1 << c, dtype=np.uint32)
    bits = ((words[:, None] >> np.arange(c, dtype=np.uint32)[None, :]) & 1).astype(
        np.uint8
    )
    m = np.zeros((1 << c, c), dtype=np.uint8)
    m[:, 1:] = np.cumsum(bits, axis=1, dtype=np.uint32)[:, :-1].astype(np.uint8)
    return m


def pack_bits(mask: np.ndarray, c: int) -> np.ndarray:
    """Pack a bool array into c-bit words (LSB-first within a word)."""
    mask = np.asarray(mask, dtype=bool)
    n_words = -(-len(mask) // c) if len(mask) else 0
    padded = np.zeros(n_words * c, dtype=bool)
    padded[: len(mask)] = mask
    weights = (1 << np.arange(c, dtype=np.uint64)).astype(np.uint64)
    words = (padded.reshape(n_words, c).astype(np.uint64) * weights).sum(axis=1)
    return words.astype(_WORD_DTYPE[c])


class JacobsonIndex:
    """Constant-time ``is_set`` and ``rank`` over a bit vector.

    Parameters
    ----------
    mask : bool array — True where the position is non-NULL.
    c : chunk (word) size in bits, 8 or 16.
    m : prefix-sum width in bits; one block spans 2^m elements and the
        per-chunk prefix sums are guaranteed to fit in m bits.
    """

    def __init__(self, mask: np.ndarray, *, c: int = 16, m: int = 16) -> None:
        if m not in (8, 16, 24, 32):
            raise ValueError("m must be one of 8, 16, 24, 32")
        mask = np.asarray(mask, dtype=bool)
        self.c, self.m = c, m
        self.n = len(mask)
        self.words = pack_bits(mask, c)
        block = 1 << m  # elements per block
        if block % c:
            raise ValueError("block size 2^m must be a multiple of c")
        words_per_block = block // c
        n_words = len(self.words)
        # Set-bit count per word, then per-block exclusive prefix sums.
        counts = popcount_map(c)[self.words, c - 1] + (
            (self.words >> (c - 1)) & 1
        ).astype(np.uint8)
        counts = counts.astype(np.int64)
        csum = np.concatenate(([0], np.cumsum(counts)))  # rank at word starts
        n_blocks = max(1, -(-n_words // words_per_block))
        self.block_base = csum[
            np.minimum(np.arange(n_blocks) * words_per_block, n_words)
        ].astype(np.int64)
        within = csum[:n_words] - self.block_base[
            np.arange(n_words) // words_per_block
        ]
        ps_dtype = {8: np.uint8, 16: np.uint16, 24: np.uint32, 32: np.uint32}[m]
        self.prefix_sums = within.astype(ps_dtype)
        self._words_per_block = words_per_block
        # c and 2^m / c are powers of two: word and block by shifting.
        self._c_shift = c.bit_length() - 1
        self._block_shift = words_per_block.bit_length() - 1
        self.total_set = int(csum[-1]) if n_words else 0

    def is_set(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        w = self.words[idx // self.c].astype(np.int64)
        return ((w >> (idx % self.c)) & 1).astype(bool)

    def rank(self, idx: np.ndarray, *, with_bits: bool = False):
        """Number of set bits strictly before each position (vectorized).

        With ``with_bits``, returns ``(ranks, bits)``: ``bits`` is each
        position's own bit (0 or 1, int64), taken from the word the rank
        already read. The rank of an unset position is the rank of the
        next set one, so one call serves set and unset positions alike.
        """
        idx = np.asarray(idx, dtype=np.int64)
        q = idx >> self._c_shift
        b = idx & (self.c - 1)
        w = self.words[q].astype(np.int64)
        ranks = self.block_base[q >> self._block_shift]
        ranks += self.prefix_sums[q]
        # M[w, b] read from the flattened map: one index, no 2-D gather.
        ranks += popcount_map(self.c).ravel()[(w << self._c_shift) | b]
        if with_bits:
            return ranks, (w >> b) & 1
        return ranks

    def unpack_all(self) -> np.ndarray:
        """The full bit vector as a bool array (one vectorized unpack —
        used by whole-column scans)."""
        bits = np.unpackbits(
            self.words.view(np.uint8), bitorder="little"
        )
        return bits[: self.n].astype(bool)

    def is_set_one(self, p: int) -> bool:
        """Scalar fast path (no numpy temporaries) for per-list lookups."""
        return bool((int(self.words[p // self.c]) >> (p % self.c)) & 1)

    def rank_one(self, p: int) -> int:
        q = p // self.c
        word_before = int(self.words[q]) & ((1 << (p % self.c)) - 1)
        return (
            int(self.block_base[q // self._words_per_block])
            + int(self.prefix_sums[q])
            + word_before.bit_count()
        )

    def overhead_bytes(self) -> int:
        """Bit-exact overhead: n·(1 + m/c) bits; the 2^c·c map is shared
        by every index of the same c and not counted."""
        bits = len(self.words) * self.c + len(self.prefix_sums) * self.m
        return -(-bits // 8) + self.block_base.nbytes


class VanillaBitIndex:
    """Abadi's plain bit-string secondary structure (no rank index).

    ``rank`` popcounts every preceding word — O(p) per lookup. This is
    the >20x-slower comparison point of §8.5; kept for tests and the
    sensitivity harness, not used by the engine.
    """

    def __init__(self, mask: np.ndarray, *, c: int = 16) -> None:
        self.c = c
        self.n = len(mask)
        self.words = pack_bits(mask, c)
        self._counts = (
            popcount_map(c)[self.words, c - 1]
            + ((self.words >> (c - 1)) & 1).astype(np.uint8)
        ).astype(np.int64)

    def is_set(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        w = self.words[idx // self.c].astype(np.int64)
        return ((w >> (idx % self.c)) & 1).astype(bool)

    def unpack_all(self) -> np.ndarray:
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return bits[: self.n].astype(bool)

    def rank(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        out = np.empty(len(idx), dtype=np.int64)
        for i, p in enumerate(idx):  # deliberate per-element scan
            q = int(p) // self.c
            out[i] = self._counts[:q].sum() + int(
                popcount_map(self.c)[self.words[q], int(p) % self.c]
            )
        return out

    def overhead_bytes(self) -> int:
        return -(-self.n // 8)


class NullableColumn:
    """A fixed-length column with one of three NULL storage modes.

    - ``uncompressed``: full-length values array + validity bits
      (NULL cells occupy storage; reads are direct).
    - ``jacobson``: compacted non-NULL values + :class:`JacobsonIndex`.
    - ``vanilla``: compacted values + :class:`VanillaBitIndex`.

    ``get_many`` returns ``(values, null_mask)`` with NULL positions
    filled by a dtype-appropriate sentinel (0 / NaN / None).
    """

    def __init__(
        self,
        values: np.ndarray,
        mask: np.ndarray,
        *,
        mode: str = "jacobson",
        c: int = 16,
        m: int = 16,
    ) -> None:
        values = np.asarray(values)
        mask = np.asarray(mask, dtype=bool)
        if len(values) != len(mask):
            raise ValueError("values and mask lengths differ")
        self.mode = mode
        self.n = len(values)
        if mode == "uncompressed":
            self.values = values.copy()
            if self.values.dtype != object:
                self.values[~mask] = 0
            self.index = JacobsonIndex(mask, c=c, m=m)  # used only for is_set
        elif mode == "jacobson":
            self.values = values[mask]
            self.index = JacobsonIndex(mask, c=c, m=m)
        elif mode == "vanilla":
            self.values = values[mask]
            self.index = VanillaBitIndex(mask, c=c)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self._all_set = bool(mask.all())

    def get_many(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(idx)
        if self._all_set and self.mode != "vanilla":
            # Dense column: positions equal ranks, so skip the
            # validity-bit gather and the rank computation entirely.
            return self.values[idx], np.zeros(len(idx), dtype=bool)
        idx = idx.astype(np.int64, copy=False)
        if self.mode == "jacobson" and len(self.values):
            # One Jacobson pass gives each rank and the position's own bit.
            # An unset position takes the next set one's rank, which may
            # be one past the values: clip it, then blank the NULLs.
            ranks, bits = self.index.rank(idx, with_bits=True)
            nulls = bits == 0
            out = self.values.take(ranks, mode="clip")
            if nulls.any():
                out[nulls] = None if out.dtype == object else 0
            return out, nulls
        present = self.index.is_set(idx)
        if self.mode == "uncompressed":
            return self.values[idx], ~present
        out = np.zeros(len(idx), dtype=self.values.dtype)
        if self.values.dtype == object:
            out = np.full(len(idx), None, dtype=object)
        if present.any():
            ranks = self.index.rank(idx[present])
            out[present] = self.values[ranks]
        return out, ~present

    def get_one(self, i: int):
        """Scalar read (Volcano path): value or None, no numpy temporaries."""
        if self._all_set and self.mode != "vanilla":
            v = self.values[i]
            return v.item() if hasattr(v, "item") else v
        if self.mode == "uncompressed":
            if not self._all_set and not self.index.is_set_one(i):
                return None
            v = self.values[i]
            return v.item() if hasattr(v, "item") else v
        if not self.index.is_set_one(i):
            return None
        if self.mode == "vanilla":
            r = int(self.index.rank(np.array([i]))[0])
        else:
            r = self.index.rank_one(i)
        v = self.values[r]
        return v.item() if hasattr(v, "item") else v

    def nbytes(self) -> int:
        if self.values.dtype == object:
            payload = sum(
                len(str(v).encode()) for v in self.values if v is not None
            )
        else:
            payload = int(self.values.nbytes)
        if self.mode == "uncompressed":
            return payload + -(-self.n // 8)  # validity bits only
        return payload + self.index.overhead_bytes()
