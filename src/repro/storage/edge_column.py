"""Edge columns — the dominated baseline design point (paper §4.2).

One column per property of an edge label, addressed by a *global*
edge ID. IDs are assigned in a randomized order (the paper: "the order
would be determined by the sequence of edge insertions and deletions"),
so neither forward nor backward property reads are sequential. Used by
the Table 3 EDGE COLS configuration.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.graphs.schema import EdgeLabel
from repro.storage.vertex_column import VertexColumn


#: Seed of the random edge-ID order, fixed so builds are reproducible.
_ID_SEED = 7


class EdgeColumns:
    def __init__(self, columns: dict[str, VertexColumn], n_edges: int) -> None:
        self.columns = columns  # prop -> column indexed by global edge ID
        self.n_edges = n_edges

    @classmethod
    def build(
        cls,
        edge: EdgeLabel,
        etable: pd.DataFrame,
        *,
        null_mode: str = "uncompressed",
    ) -> tuple["EdgeColumns", np.ndarray]:
        """Build columns plus the per-edge global IDs in original row order."""
        n = len(etable)
        g = np.random.default_rng(_ID_SEED)
        ids = g.permutation(n).astype(np.int64)  # row i gets edge ID ids[i]
        inv = np.empty(n, dtype=np.int64)
        inv[ids] = np.arange(n)  # edge ID e was row inv[e]
        columns = {
            p.name: VertexColumn.from_series(
                etable[p.name].iloc[inv].reset_index(drop=True),
                p.dtype,
                categorical=p.categorical,
                null_mode=null_mode,
            )
            for p in edge.props
        }
        return cls(columns, n), ids

    def read_at(self, prop: str, ids: np.ndarray):
        """Gather by global edge ID: edge columns have no source-vertex
        component in their IDs."""
        col = self.columns[prop]
        vals, nulls = col.get_many(np.asarray(ids, dtype=np.int64))
        return vals, nulls, col

    def read_one(self, prop: str, edge_id: int):
        """Scalar read by global edge ID — the Volcano path."""
        return self.columns[prop].get_one(edge_id)

    def nbytes(self) -> int:
        return sum(c.nbytes() for c in self.columns.values())
