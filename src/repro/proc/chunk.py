"""The LBP intermediate: one unflat list group (paper §6.1).

A :class:`ListGroup` holds aligned :class:`Block`\\ s, one per variable
or property, and a per-row multiplicity ``mult``: row ``i`` stands for
``mult[i]`` tuples (None: one each). Operators hand a new group
downstream instead of mutating a shared one. The paper's intermediate
is a factorized union of flat and unflat groups; compiled plans here
hold one group whose rows are flat, and keep unflat the adjacency lists
nothing after their extend reads, as the row's multiplicity (their
lengths, multiplied along the plan), as the count tails keep the last
hop's lists as lengths and prefix sums. Blocks are variable-length and
are frequently **views** over CSR / property-page arrays, which is how
LBP avoids materializing adjacency lists.
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
    """``size`` rows as aligned blocks, keyed by variable or
    ``var.prop``; row ``i`` stands for ``mult[i]`` tuples (None: 1)."""

    blocks: dict[str, Block]
    size: int
    mult: np.ndarray | None = None

    def take(self, mask: np.ndarray) -> "ListGroup":
        """The rows where the boolean ``mask`` is set."""
        return ListGroup(
            {k: b.take(mask) for k, b in self.blocks.items()},
            int(mask.sum()),
            None if self.mult is None else self.mult[mask],
        )

    def tuples(self) -> int:
        """The tuples the rows stand for."""
        return self.size if self.mult is None else int(self.mult.sum())
