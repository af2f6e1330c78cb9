"""Fixed-length columnar compression codes (paper §5.1).

The paper's Desideratum 2 requires constant-time access to arbitrary
elements of a compressed block, which restricts compression to
*fixed-length* codes. Two such schemes are implemented here:

- **Leading-0 suppression**: store an unsigned integer component (a
  positional offset, a neighbour ID, a dictionary code) in the minimal
  whole number of bytes its maximum value needs.
- **Dictionary encoding**: map a categorical (string) property with ``z``
  distinct values to ``ceil(log2(z)/8)``-byte codes
  (:func:`dictionary_encode`). The codes are stored in a
  :class:`repro.storage.null_compression.NullableColumn`, which owns
  their NULLs: a NULL takes code 0 and its validity bit says it is NULL.
  Predicates are evaluated *on the dictionary* (z values) and mapped
  through the codes, i.e. computation happens on compressed data. The
  query engine (:func:`repro.proc.expressions.eval_block_vs_literal`)
  computes that dictionary mask once per operator per query and only
  gathers it through the codes of each block.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

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


def dictionary_encode(
    values: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode the non-NULL (``mask`` set) values of a string
    column: ``(codes, dictionary)``, the leading-0-suppressed code of
    each position (0 at NULL) and the sorted distinct values."""
    values = np.asarray(values, dtype=object)
    codes, dictionary = pd.factorize(values[mask], sort=True)
    full = np.zeros(len(values), dtype=np.int64)
    full[mask] = codes
    return suppress(full), np.asarray(dictionary, dtype=object)
