"""The LBP intermediate: one unflat list group (paper §6.1).

A :class:`ListGroup` holds aligned :class:`Block`\\ s, one per variable
or property, and represents as many tuples as they are long. Operators
hand a new group downstream instead of mutating a shared one. The
paper's intermediate is a factorized union of flat and unflat groups;
compiled plans here hold exactly one unflat group, because every
extend replaces its input group by the expanded one, and factorization
lives in the count tails (list lengths and prefix sums, never
enumerating the last hop). Blocks are variable-length and are
frequently **views** over CSR / property-page arrays, which is how LBP
avoids materializing adjacency lists.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class Block:
    """One column of a list group. ``data`` holds values — or dictionary
    codes when ``dictionary`` is set; ``nulls`` marks NULL positions."""

    data: np.ndarray
    nulls: np.ndarray | None = None
    dictionary: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.data)

    def take(self, sel: np.ndarray) -> "Block":
        return Block(
            self.data[sel],
            None if self.nulls is None else self.nulls[sel],
            self.dictionary,
        )

    def decoded(self) -> np.ndarray:
        """Values as an object/native array with None at NULLs."""
        if self.dictionary is not None:
            table = np.append(self.dictionary, None)
            idx = self.data.astype(np.int64)
            if self.nulls is not None:
                idx = np.where(self.nulls, len(self.dictionary), idx)
            return table[idx]
        if self.nulls is not None and self.nulls.any():
            out = self.data.astype(object)
            out[self.nulls] = None
            return out
        return self.data


@dataclass(eq=False)
class ListGroup:
    """``size`` tuples as aligned blocks, keyed by variable or
    ``var.prop``."""

    blocks: dict[str, Block]
    size: int

    def take(self, mask: np.ndarray) -> "ListGroup":
        """The tuples where the boolean ``mask`` is set."""
        return ListGroup(
            {k: b.take(mask) for k, b in self.blocks.items()},
            int(mask.sum()),
        )
