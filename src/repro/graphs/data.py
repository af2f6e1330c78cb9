"""GraphData: the canonical relational form of a property graph.

One pandas table per vertex label (``_id`` = label-level positional
offset, 0..n-1, plus structured property columns) and one per edge label
(``src``/``dst`` label-level offsets plus edge property columns).

This is the single source of truth: the columnar :class:`GraphStore` is
built from it (via Spark), the DuckDB oracle and the relational baseline
systems (DuckDB, Spark SQL) query it directly, and the GF-RV row store
is populated from it. Table names in SQL are ``v_<label>`` / ``e_<label>``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.graphs.schema import GraphSchema


@dataclass
class GraphData:
    schema: GraphSchema
    vtables: dict[str, pd.DataFrame] = field(default_factory=dict)
    etables: dict[str, pd.DataFrame] = field(default_factory=dict)

    def validate(self) -> None:
        """Cheap structural checks: offsets contiguous, endpoints in range,
        cardinality constraints actually hold in the data."""
        for name, vl in self.schema.vertices.items():
            t = self.vtables[name]
            n = len(t)
            assert (t["_id"].to_numpy() == np.arange(n)).all(), f"{name}: _id gap"
            for p in vl.props:
                assert p.name in t.columns, f"{name}: missing prop {p.name}"
        for name, el in self.schema.edges.items():
            t = self.etables[name]
            ns = len(self.vtables[el.src])
            nd = len(self.vtables[el.dst])
            s, d = t["src"].to_numpy(), t["dst"].to_numpy()
            assert len(t) == 0 or (s.min() >= 0 and s.max() < ns), f"{name}: src oob"
            assert len(t) == 0 or (d.min() >= 0 and d.max() < nd), f"{name}: dst oob"
            if el.single_fwd:
                assert t["src"].is_unique, f"{name}: n-1/1-1 violated (dup src)"
            if el.single_bwd:
                assert t["dst"].is_unique, f"{name}: 1-n/1-1 violated (dup dst)"

    def n_vertices(self, label: str) -> int:
        return len(self.vtables[label])

    def sql_tables(self) -> dict[str, pd.DataFrame]:
        """All tables under their SQL names, for the DuckDB oracle."""
        out = {f"v_{k}": v for k, v in self.vtables.items()}
        out.update({f"e_{k}": v for k, v in self.etables.items()})
        return out
