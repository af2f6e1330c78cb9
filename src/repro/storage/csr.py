"""2-level CSR adjacency lists for n-n (and 1-n forward) edges (paper §4.1.1).

A CSR stores, per owning vertex, the list of (neighbour offset,
edge-property slot) pairs contiguously. Variants along the Table 2
ablation axis:

- ``edge_ids``: when the new ID scheme is OFF, every adjacency entry
  additionally carries an 8-byte global edge ID (GF-RV / +COLS model);
  when ON, the entry carries only the page-level slot, and the slot is
  dropped entirely when the Fig-6 decision tree allows.
- ``zero_suppress``: neighbour offsets and slots stored at minimal byte
  width instead of int64.
- ``null_compress``: empty adjacency lists compressed away — offsets are
  kept only for vertices with non-empty lists, found through a
  :class:`JacobsonIndex` rank (constant-time, §5.3).

A null-compressed CSR decodes list ranges by access pattern (Abadi,
Madden & Ferreira, "Integrating Compression and Execution in
Column-Oriented Database Systems", SIGMOD 2006): a lookup of fewer
lists than the CSR has owners takes the Jacobson rank of each, a point
access; a lookup of at least that many decodes every owner's range with
one prefix sum over the presence bits and gathers from it, a sequential
decode.
"""
from __future__ import annotations

import numpy as np

from repro.storage.compression import suppress
from repro.storage.null_compression import JacobsonIndex


class CSR:
    """Adjacency lists of one edge label in one direction.

    Parameters
    ----------
    n_vertices : number of owning vertices (source vertices for a
        forward CSR, destination vertices for a backward one).
    owners, nbrs : one entry per edge; ``owners`` need not be sorted.
    slots : per-edge property slots to store alongside neighbours
        (page-level positional offsets), or None to factor them out.
    edge_ids : optional 8-byte global edge IDs (pre-new-ID-scheme model).
    """

    def __init__(
        self,
        n_vertices: int,
        owners: np.ndarray,
        nbrs: np.ndarray,
        *,
        slots: np.ndarray | None = None,
        edge_ids: np.ndarray | None = None,
        zero_suppress: bool = True,
        null_compress: bool = False,
    ) -> None:
        owners = np.asarray(owners, dtype=np.int64)
        nbrs = np.asarray(nbrs, dtype=np.int64)
        order = np.argsort(owners, kind="stable")
        owners_s = owners[order]
        self.n_vertices = int(n_vertices)
        self.n_edges = len(owners)
        degrees = np.bincount(owners_s, minlength=n_vertices).astype(np.int64)
        full_offsets = np.concatenate(([0], np.cumsum(degrees)))
        nbr = nbrs[order]
        self.nbr = suppress(nbr) if zero_suppress else nbr.astype(np.int64)
        self.slots = None
        if slots is not None:
            s = np.asarray(slots, dtype=np.int64)[order]
            self.slots = suppress(s) if zero_suppress else s.astype(np.int64)
        self.edge_ids = None
        if edge_ids is not None:
            self.edge_ids = np.asarray(edge_ids, dtype=np.int64)[order]
        self.null_compress = null_compress
        if null_compress:
            nonempty = degrees > 0
            self.index = JacobsonIndex(nonempty)
            # Offsets over non-empty vertices only: entry r is the start
            # of the r'th non-empty vertex's list; entry r+1 its end.
            ne_ids = np.flatnonzero(nonempty)
            self.offsets = np.concatenate(
                (full_offsets[ne_ids], [self.n_edges])
            ).astype(np.int64)
        else:
            self.index = None
            self.offsets = full_offsets

    def range_of(self, v: int) -> tuple[int, int]:
        """(start, end) of vertex ``v``'s list in the edge arrays."""
        if self.null_compress:
            if not self.index.is_set_one(v):
                return 0, 0
            r = self.index.rank_one(v)
            return int(self.offsets[r]), int(self.offsets[r + 1])
        return int(self.offsets[v]), int(self.offsets[v + 1])

    def ranges_of(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (starts, ends); empty lists give start == end.

        Under null compression each list's offsets sit at its vertex's
        rank ``r``, the number of non-empty lists before it: its range
        is ``(offsets[r]·bit, offsets[r + bit]·bit)``, with ``bit`` the
        vertex's presence bit, so an empty list is exactly ``(0, 0)``.
        A lookup of fewer than ``n_vertices`` lists takes ``r`` and
        ``bit`` from one Jacobson pass over ``vs``, O(len(vs)). A longer
        one unpacks the bits once and gathers all ``n_vertices + 1``
        per-owner offsets at once, ``offsets[r]`` with ``r`` the
        inclusive prefix sum of the bits after a leading 0 (owner ``v``'s
        start at ``v``, its end at ``v + 1``); it zeroes the empty lists'
        two ends and gathers each list's range from them,
        O(n_vertices + len(vs)).
        """
        vs = np.asarray(vs, dtype=np.int64)
        if not self.null_compress:
            return self.offsets[vs], self.offsets[vs + 1]
        if len(vs) < self.n_vertices:
            r, bit = self.index.rank(vs, with_bits=True)
            return self.offsets[r] * bit, self.offsets[r + bit] * bit
        bit = self.index.unpack_all().astype(np.int64)
        r = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(bit, out=r[1:])
        full = self.offsets[r]
        return (full[:-1] * bit)[vs], (full[1:] * bit)[vs]

    def owners(self) -> np.ndarray:
        """The vertex whose list starts at each ``offsets`` entry but the
        last: the non-empty ones when null-compressed, else every one."""
        if self.null_compress:
            return np.flatnonzero(self.index.unpack_all())
        return np.arange(self.n_vertices)

    def degrees_of(self, vs: np.ndarray) -> np.ndarray:
        s, e = self.ranges_of(vs)
        return e - s

    def degree(self, v: int) -> int:
        s, e = self.range_of(v)
        return e - s

    def nbytes(self) -> int:
        total = int(self.offsets.nbytes) + int(self.nbr.nbytes)
        if self.slots is not None:
            total += int(self.slots.nbytes)
        if self.edge_ids is not None:
            total += int(self.edge_ids.nbytes)
        if self.index is not None:
            total += self.index.overhead_bytes()
        return total
