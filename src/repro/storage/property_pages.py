"""Single-indexed edge property pages (paper §4.2, Fig 5).

Properties of an n-n edge label are stored once, in the order of the
*forward* adjacency lists, grouped into pages of ``k`` source-vertex
lists (k = 128 by default). The accompanying edge ID scheme is
(edge label, source vertex, page-level positional offset):

- the label is implicit (one pages object per label),
- the source vertex is the adjacency-list owner (forward) or the stored
  neighbour (backward) — never stored twice,
- only the small page-level slot is stored in adjacency lists.

Address of an edge's property: ``page_starts[src // k] + slot``. Reading
along a forward adjacency list is an in-order range read (sequential):
a slice of the column, or under NULL compression one rank of the
range's start and a slice of the compacted values
(:meth:`repro.storage.null_compression.NullableColumn.get_range`).
Reading along a backward list is a gather (random), one rank per
position — the asymmetry measured in Table 3.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.graphs.schema import EdgeLabel
from repro.storage.compression import suppress
from repro.storage.vertex_column import VertexColumn


class PropertyPages:
    """Forward-indexed property pages for one n-n edge label."""

    def __init__(
        self,
        n_src: int,
        page_starts: np.ndarray,
        columns: dict[str, VertexColumn],
        k: int,
    ) -> None:
        self.n_src = n_src
        self.page_starts = page_starts  # int64[n_pages + 1]
        self.columns = columns  # prop name -> page-ordered column
        self.k = k

    @classmethod
    def build(
        cls,
        edge: EdgeLabel,
        etable: pd.DataFrame,
        n_src: int,
        *,
        k: int = 128,
        null_mode: str = "uncompressed",
    ) -> tuple["PropertyPages", np.ndarray]:
        """Build pages plus the per-edge slots in *original row order*.

        The forward sort here uses the same stable argsort as
        :class:`repro.storage.csr.CSR`, so page order equals forward CSR
        edge order and forward reads are literal slices.
        """
        src = etable["src"].to_numpy(dtype=np.int64)
        order = np.argsort(src, kind="stable")
        n_edges = len(src)
        degrees = np.bincount(src[order], minlength=n_src).astype(np.int64)
        full_offsets = np.concatenate(([0], np.cumsum(degrees)))
        n_pages = max(1, -(-n_src // k))
        # Page base table, leading-0 suppressed (positions < n_edges).
        page_starts = suppress(
            full_offsets[np.minimum(np.arange(n_pages + 1) * k, n_src)]
        )
        # Slot of the edge at sorted position p, owner v: p - page_start(v).
        owners_sorted = src[order]
        slots_sorted = np.arange(n_edges, dtype=np.int64) - page_starts[
            owners_sorted // k
        ]
        slots_orig = np.empty(n_edges, dtype=np.int64)
        slots_orig[order] = slots_sorted
        columns = {
            p.name: VertexColumn.from_series(
                etable[p.name].iloc[order].reset_index(drop=True),
                p.dtype,
                categorical=p.categorical,
                null_mode=null_mode,
            )
            for p in edge.props
        }
        return cls(n_src, page_starts, columns, k), slots_orig

    # -- reads ---------------------------------------------------------------

    def read_fwd_range(self, prop: str, start: int, end: int):
        """Sequential read: the properties of the forward adjacency
        positions ``[start, end)``. Returns (values-or-codes, nulls,
        column); the values may be a view of the column."""
        col = self.columns[prop]
        return (*col.get_range(start, end), col)

    def read_fwd_positions(self, prop: str, idx: np.ndarray):
        """Read by *global forward positions*. Because page order equals
        forward-CSR edge order, ``page_starts[src // k] + slot`` for an
        edge at forward position ``i`` is exactly ``i`` — reading along
        forward adjacency lists needs no ID arithmetic at all."""
        col = self.columns[prop]
        vals, nulls = col.get_many(np.asarray(idx, dtype=np.int64))
        return vals, nulls, col

    def addr(self, owners, slots):
        """Page positions of the edges ``(owners, slots)`` (arrays or
        scalars): ``page_starts[owner // k] + slot``."""
        if self.k & (self.k - 1) == 0:  # power-of-two page size
            pages = owners >> (self.k.bit_length() - 1)
        else:
            pages = owners // self.k
        return self.page_starts[pages] + slots

    def read_at(self, prop: str, addr: np.ndarray):
        """Random-access read by page position (:meth:`addr`) — the
        'opposite direction' path: two dependent array accesses."""
        col = self.columns[prop]
        vals, nulls = col.get_many(np.asarray(addr, dtype=np.int64))
        return vals, nulls, col

    def read_one(self, prop: str, addr: int):
        """Scalar read by page position — the Volcano path."""
        return self.columns[prop].get_one(addr)

    def nbytes(self) -> int:
        # page_starts is the per-page base table; slot arrays live in the
        # adjacency lists and are accounted there.
        return int(self.page_starts.nbytes) + sum(
            c.nbytes() for c in self.columns.values()
        )
