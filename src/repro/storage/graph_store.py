"""The columnar graph store (paper §4–§5, Tables 1 and 2).

:class:`GraphStore` assembles, from a :class:`GraphData`, the structures
of Table 1 under a :class:`StorageConfig`:

====================  =========================================================
Data                  Structure
====================  =========================================================
Vertex properties     vertex columns (dictionary-encoded when categorical)
Edge properties       vertex column of src (n-1/1-1) or dst (1-n);
                      single-indexed property pages (or edge columns) when n-n
Fwd adjacency         vertex column when 1-1/n-1, CSR otherwise
Bwd adjacency         vertex column when 1-1/1-n, CSR otherwise
====================  =========================================================

``StorageConfig`` is also the Table 2 ablation axis: +COLS (columns but
old 8-byte edge-ID scheme), +NEW-IDS (factor ID components per Fig 6),
+0-SUPR (minimal byte widths in adjacency arrays), +NULL (Jacobson
compression of empty lists and NULL properties) = GF-CL.

When a SparkSession is passed to :meth:`GraphStore.build`, the per-label
edge tables are sorted by the owning vertex as Spark DataFrame jobs
(the distributed part of the build); numpy then assembles the arrays
from the Arrow-collected columns.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs.data import GraphData
from repro.graphs.schema import EdgeLabel
from repro.storage.csr import CSR
from repro.storage.edge_column import EdgeColumns
from repro.storage.property_pages import PropertyPages
from repro.storage.vertex_column import VertexColumn


@dataclass(frozen=True)
class StorageConfig:
    """One point on the Table 2 / Table 3 / Table 4 configuration axes."""

    new_ids: bool = True  # factor ID components (Fig 6) vs 8-byte edge IDs
    zero_suppress: bool = True  # minimal byte widths in adjacency arrays
    null_compress: bool = False  # Jacobson NULLs / empty lists
    k: int = 128  # property-page size (lists per page)
    edge_prop_storage: str = "pages"  # 'pages' | 'edge_columns' (Table 3)
    single_card_as_vcol: bool = True  # False → CSR even for n-1/1-n (Table 4)

    @classmethod
    def gf_cl(cls) -> "StorageConfig":
        """The full GF-CL configuration (all optimizations on)."""
        return cls(null_compress=True)

    @classmethod
    def ablation_steps(cls) -> list[tuple[str, "StorageConfig"]]:
        """The Table 2 step-by-step configurations, +COLS → +NULL."""
        return [
            ("+COLS", cls(new_ids=False, zero_suppress=False)),
            ("+NEW-IDS", cls(zero_suppress=False)),
            ("+0-SUPR", cls()),
            ("+NULL", cls(null_compress=True)),
        ]

    @property
    def null_mode(self) -> str:
        return "jacobson" if self.null_compress else "uncompressed"


@dataclass
class EdgeStore:
    """All structures of one edge label under one config."""

    label: EdgeLabel
    fwd_kind: str  # 'csr' | 'vcol'
    fwd: object
    bwd_kind: str
    bwd: object
    eprop_kind: str | None  # 'pages' | 'edge_columns' | 'src_vcol' | 'dst_vcol'
    eprops: object | None = None
    # Extra 8-byte edge-ID columns when the old ID scheme is in force and
    # the edges live in vertex columns (accounting only).
    extra_id_bytes: int = 0

    def _side(self, direction: str) -> tuple[str, object]:
        """(kind, structure) of the adjacency in ``direction``."""
        if direction == "fwd":
            return self.fwd_kind, self.fwd
        return self.bwd_kind, self.bwd

    def csr(self, direction: str) -> CSR:
        kind, s = self._side(direction)
        if kind != "csr":
            raise TypeError(f"{self.label.name} {direction} is not a CSR")
        return s

    def nbr_vcol(self, direction: str) -> VertexColumn:
        kind, s = self._side(direction)
        if kind != "vcol":
            raise TypeError(f"{self.label.name} {direction} is not a vcol")
        return s

    def eprop_addr(self, csr: CSR, direction: str, pos):
        """Where the properties of the ``csr`` entries at ``pos`` (a
        position, a position array or a slice) live in ``eprops``: the
        page position under property pages, the column row under edge
        columns; read them with ``eprops.read_at`` / ``read_one``.

        Under the old ID scheme the entry's 8-byte edge ID is the
        address. Under the new one the entry's slot is, plus the base of
        its source's page under property pages. Forward pages follow
        forward CSR order, so there a position is its own address.
        """
        if csr.slots is None:
            return csr.edge_ids[pos]
        if self.eprop_kind == "edge_columns":
            return csr.slots[pos]
        if direction == "fwd":
            if isinstance(pos, slice):
                return np.arange(pos.start, pos.stop, dtype=np.int64)
            return pos
        return self.eprops.addr(csr.nbr[pos], csr.slots[pos])

    def eprop_keyed_by_input(self, direction: str) -> bool:
        """Whether the properties of a single-cardinality edge
        (``src_vcol`` / ``dst_vcol``) are keyed by the input vertex of an
        extend in ``direction``, rather than by the neighbour it reaches."""
        return (self.eprop_kind == "src_vcol") == (direction == "fwd")

    def storage_kind(self, direction: str) -> str:
        return self._side(direction)[0]

    def adj_nbytes(self, direction: str) -> int:
        kind, s = self._side(direction)
        return s.nbytes() + (self.extra_id_bytes if kind == "vcol" else 0)

    def eprop_nbytes(self) -> int:
        if self.eprop_kind is None:
            return 0
        if self.eprop_kind in ("pages", "edge_columns"):
            return self.eprops.nbytes()
        return sum(c.nbytes() for c in self.eprops.values())


class GraphStore:
    #: Edge tables at least this large are sorted as a Spark job during
    #: :meth:`build`; smaller ones are sorted locally by numpy.
    SPARK_SORT_THRESHOLD = 50_000

    def __init__(self, data: GraphData, config: StorageConfig) -> None:
        self.schema = data.schema
        self.config = config
        self.n_vertices = {k: len(t) for k, t in data.vtables.items()}
        self.vprops: dict[str, dict[str, VertexColumn]] = {}
        self.edges: dict[str, EdgeStore] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        data: GraphData,
        config: StorageConfig | None = None,
        *,
        spark: SparkSession | None = None,
    ) -> "GraphStore":
        config = config or StorageConfig.gf_cl()
        store = cls(data, config)
        for name, vl in data.schema.vertices.items():
            t = data.vtables[name]
            store.vprops[name] = {
                p.name: VertexColumn.from_series(
                    t[p.name], p.dtype, categorical=p.categorical,
                    null_mode=config.null_mode,
                )
                for p in vl.props
            }
        for name, el in data.schema.edges.items():
            et = data.etables[name]
            if spark is not None and len(et) >= max(1, cls.SPARK_SORT_THRESHOLD):
                # Distributed sort of the edge table by owning vertex; the
                # numpy assembly below then sees pre-grouped rows. Tiny
                # tables skip the round trip — a Spark job costs more
                # than sorting them locally.
                et = (
                    spark.createDataFrame(et)
                    .orderBy("src", "dst")
                    .toPandas()
                )
            store.edges[name] = store._build_edge(el, et)
        return store

    def _build_edge(self, el: EdgeLabel, et: pd.DataFrame) -> EdgeStore:
        cfg = self.config
        n_src = self.n_vertices[el.src]
        n_dst = self.n_vertices[el.dst]
        src = et["src"].to_numpy(dtype=np.int64)
        dst = et["dst"].to_numpy(dtype=np.int64)
        n_e = len(et)
        fwd_vcol = el.single_fwd and cfg.single_card_as_vcol
        bwd_vcol = el.single_bwd and cfg.single_card_as_vcol
        has_props = bool(el.props)

        # --- edge properties ------------------------------------------------
        eprop_kind, eprops, slots = None, None, None
        if has_props:
            if fwd_vcol or (el.single_fwd and not cfg.single_card_as_vcol):
                eprop_kind = "src_vcol"
                eprops = self._aligned_vcols(el, et, key="src", n=n_src)
            elif el.single_bwd:
                eprop_kind = "dst_vcol"
                eprops = self._aligned_vcols(el, et, key="dst", n=n_dst)
            elif cfg.edge_prop_storage == "pages":
                eprop_kind = "pages"
                eprops, slots = PropertyPages.build(
                    el, et, n_src, k=cfg.k, null_mode=cfg.null_mode
                )
            else:
                eprop_kind = "edge_columns"
                eprops, slots = EdgeColumns.build(
                    el, et, null_mode=cfg.null_mode
                )

        # Fig 6 decision tree: store positional offsets only for n-n labels
        # with properties, and only under the new ID scheme.
        store_slots = slots is not None and cfg.new_ids
        # Under the old scheme the entry's 8-byte edge ID takes the slot's
        # place, so it is the edge's property address: its page position
        # under property pages, its column row under edge columns
        # (read through EdgeStore.eprop_addr).
        if cfg.new_ids:
            edge_ids = None
        elif eprop_kind == "pages":
            edge_ids = eprops.addr(src, slots)
        elif eprop_kind == "edge_columns":
            edge_ids = slots
        else:
            edge_ids = np.arange(n_e, dtype=np.int64)

        def make_csr(n, owners, nbrs):
            return CSR(
                n,
                owners,
                nbrs,
                slots=slots if store_slots else None,
                edge_ids=edge_ids,
                zero_suppress=cfg.zero_suppress,
                null_compress=cfg.null_compress,
            )

        def make_vcol(n, positions, values):
            return VertexColumn.from_offsets(
                n,
                positions,
                values,
                zero_suppress=cfg.zero_suppress,
                null_mode=cfg.null_mode,
            )

        fwd = make_vcol(n_src, src, dst) if fwd_vcol else make_csr(n_src, src, dst)
        bwd = make_vcol(n_dst, dst, src) if bwd_vcol else make_csr(n_dst, dst, src)
        extra = 8 * n_e if (not cfg.new_ids and (fwd_vcol or bwd_vcol)) else 0
        return EdgeStore(
            el,
            "vcol" if fwd_vcol else "csr",
            fwd,
            "vcol" if bwd_vcol else "csr",
            bwd,
            eprop_kind,
            eprops,
            extra_id_bytes=extra,
        )

    def _aligned_vcols(
        self, el: EdgeLabel, et: pd.DataFrame, *, key: str, n: int
    ) -> dict[str, VertexColumn]:
        """Single-cardinality edge properties as vertex columns of the keyed
        endpoint: value at offset o = the property of o's unique edge."""
        pos = et[key].to_numpy(dtype=np.int64)
        out = {}
        for p in el.props:
            series = pd.Series([None] * n, dtype=object)
            series.iloc[pos] = list(et[p.name])
            if p.dtype != "str":
                series = pd.to_numeric(series)
            out[p.name] = VertexColumn.from_series(
                series, p.dtype, categorical=p.categorical,
                null_mode=self.config.null_mode,
            )
        return out

    # -- accessors -----------------------------------------------------------

    def vprop_column(self, label: str, prop: str) -> VertexColumn:
        return self.vprops[label][prop]

    def edge(self, label: str) -> EdgeStore:
        return self.edges[label]

    # -- memory accounting (Table 2) ------------------------------------------

    def memory_report(self) -> dict[str, int]:
        vertex_props = sum(
            c.nbytes() for cols in self.vprops.values() for c in cols.values()
        )
        edge_props = sum(e.eprop_nbytes() for e in self.edges.values())
        fwd = sum(e.adj_nbytes("fwd") for e in self.edges.values())
        bwd = sum(e.adj_nbytes("bwd") for e in self.edges.values())
        return {
            "vertex_props": vertex_props,
            "edge_props": edge_props,
            "fwd_adj": fwd,
            "bwd_adj": bwd,
            "total": vertex_props + edge_props + fwd + bwd,
        }
