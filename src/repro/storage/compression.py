"""Fixed-length columnar compression codes (paper §5.1).

The paper's Desideratum 2 requires constant-time access to arbitrary
elements of a compressed block, which restricts compression to
*fixed-length* codes. Two such schemes are implemented here:

- **Leading-0 suppression**: store an unsigned integer component (a
  positional offset, a neighbour ID, a dictionary code) in the minimal
  whole number of bytes its maximum value needs.
- **Dictionary encoding**: map a categorical (string) property with ``z``
  distinct values to ``ceil(log2(z)/8)``-byte codes. Predicates are
  evaluated *on the dictionary* (z values) and mapped through the codes,
  i.e. computation happens on compressed data. The query engine
  (:func:`repro.proc.expressions.eval_block_vs_literal`) computes that
  dictionary mask once per operator per query and only gathers it
  through the codes of each block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_UINT_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


def min_uint_dtype(max_value: int) -> np.dtype:
    """Smallest unsigned dtype (1/2/4/8 bytes) that can hold ``max_value``.

    This is the fixed-length variant of leading-0 suppression the paper
    uses for ID components (§5.1): pad ``log2`` bits up to whole bytes.
    """
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    for dt in _UINT_DTYPES:
        if max_value <= np.iinfo(dt).max:
            return np.dtype(dt)
    raise ValueError(f"max_value {max_value} does not fit in uint64")


def suppress(values: np.ndarray) -> np.ndarray:
    """Cast a non-negative integer array to its leading-0-suppressed dtype."""
    arr = np.asarray(values)
    if arr.size == 0:
        return arr.astype(np.uint8)
    mx = int(arr.max(initial=0))
    return arr.astype(min_uint_dtype(mx))


@dataclass
class DictionaryColumn:
    """A categorical column stored as fixed-width codes over a dictionary.

    ``codes[i]`` indexes into ``values``; NULLs are represented by the
    reserved code ``len(values)`` so that ``values`` can be extended with
    a ``None`` sentinel for decoding. ``decode`` is O(z) + one vectorized
    gather.
    """

    codes: np.ndarray  # leading-0-suppressed uint codes
    values: np.ndarray  # object array of z distinct non-null values

    @classmethod
    def encode(cls, column: np.ndarray) -> "DictionaryColumn":
        """Build from an object/string array; ``None``/NaN become NULL."""
        col = np.asarray(column, dtype=object)
        is_null = np.array([v is None or v != v for v in col], dtype=bool)
        distinct = sorted({v for v in col[~is_null]})
        lut = {v: i for i, v in enumerate(distinct)}
        z = len(distinct)
        codes = np.fromiter(
            (z if n else lut[v] for v, n in zip(col, is_null)),
            dtype=np.int64,
            count=len(col),
        )
        return cls(codes=suppress(codes), values=np.array(distinct, dtype=object))

    @property
    def null_code(self) -> int:
        return len(self.values)

    def decode(self, idx: np.ndarray | int):
        """Return decoded value(s); NULLs decode to ``None``."""
        table = np.append(self.values, None)
        return table[self.codes[idx]]

    def nbytes(self) -> int:
        """Bytes of codes plus the dictionary payload."""
        dict_bytes = sum(len(str(v).encode()) for v in self.values)
        return int(self.codes.nbytes) + dict_bytes

    def __len__(self) -> int:
        return len(self.codes)
