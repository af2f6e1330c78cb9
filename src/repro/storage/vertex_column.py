"""Vertex columns (paper §4.1.2).

A vertex column stores one value per vertex of a label, addressed by the
label-level positional offset that is the vertex ID's second component.
They hold:

- structured vertex properties;
- single-cardinality (1-1 / 1-n / n-1) edges — the neighbour offset is
  simply a property of the source (or destination) vertex; and
- the properties of those single-cardinality edges.

Value kinds: ``numeric`` (int32/int64/float64), ``dict`` (categorical
strings as fixed-width codes over a dictionary, §5.1), ``str`` (raw
string payloads). NULLs / missing edges use the §5.3 scheme through
:class:`NullableColumn` (``uncompressed`` / ``jacobson`` / ``vanilla``).

A numeric column with no NULLs whose values never decrease in offset
order (an ``id`` assigned in load order, say) is flagged ``is_sorted``
at build time, so the scan can turn a literal range predicate on it into
an offset range by binary search (:func:`repro.proc.lbp.scan_bounds`).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.storage.compression import DictionaryColumn, suppress
from repro.storage.null_compression import NullableColumn

_NUMERIC = {"int32": np.int32, "int64": np.int64, "float64": np.float64}


class VertexColumn:
    """One column over the vertices of a label (or a single-card edge)."""

    def __init__(
        self,
        kind: str,
        col: NullableColumn,
        dictionary: np.ndarray | None = None,
        *,
        is_sorted: bool = False,
    ) -> None:
        self.kind = kind  # 'numeric' | 'dict' | 'str'
        self.col = col
        self.dictionary = dictionary
        self.n = col.n
        # True only for a numeric column with no NULLs whose values are
        # non-decreasing, so ``col.values`` is the whole column, sorted.
        self.is_sorted = is_sorted

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_series(
        cls,
        series: pd.Series,
        dtype: str,
        *,
        categorical: bool = False,
        null_mode: str = "uncompressed",
    ) -> "VertexColumn":
        """Build from a pandas column; NaN/None are NULL."""
        if dtype == "str":
            vals = series.to_numpy(dtype=object)
            mask = np.array([v is not None and v == v for v in vals], dtype=bool)
            if categorical:
                dc = DictionaryColumn.encode(vals)
                codes = dc.codes.astype(np.int64)
                col = NullableColumn(
                    suppress(np.where(mask, codes, 0)), mask, mode=null_mode
                )
                return cls("dict", col, dc.values)
            clean = np.array(
                [v if (v is not None and v == v) else None for v in vals],
                dtype=object,
            )
            return cls("str", NullableColumn(clean, mask, mode=null_mode))
        mask = series.notna().to_numpy()
        np_dtype = _NUMERIC[dtype]
        raw = series.to_numpy(dtype=object, copy=True)
        raw[~mask] = 0
        vals = raw.astype(np_dtype)
        is_sorted = bool(mask.all() and (vals[1:] >= vals[:-1]).all())
        return cls(
            "numeric", NullableColumn(vals, mask, mode=null_mode),
            is_sorted=is_sorted,
        )

    @classmethod
    def from_offsets(
        cls,
        n: int,
        positions: np.ndarray,
        values: np.ndarray,
        *,
        zero_suppress: bool = True,
        null_mode: str = "uncompressed",
    ) -> "VertexColumn":
        """A single-cardinality edge column: ``values[positions[i]]`` is the
        neighbour offset of vertex ``positions[i]``; other vertices have no
        edge (NULL)."""
        mask = np.zeros(n, dtype=bool)
        full = np.zeros(n, dtype=np.int64)
        mask[np.asarray(positions, dtype=np.int64)] = True
        full[np.asarray(positions, dtype=np.int64)] = np.asarray(values)
        stored = suppress(full) if zero_suppress else full
        return cls("numeric", NullableColumn(stored, mask, mode=null_mode))

    # -- access ------------------------------------------------------------

    def get_many(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values-or-codes, null-mask); dict columns return codes —
        decode through ``self.dictionary`` or predicate on it directly."""
        return self.col.get_many(idx)

    def get_one(self, i: int):
        """Scalar access (Volcano path); decodes dict values; NULL → None."""
        v = self.col.get_one(int(i))
        if v is None:
            return None
        if self.kind == "dict":
            return self.dictionary[int(v)]
        return v

    def nbytes(self) -> int:
        total = self.col.nbytes()
        if self.dictionary is not None:
            total += sum(len(str(v).encode()) for v in self.dictionary)
        return total
