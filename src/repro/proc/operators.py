"""LBP physical operators (paper §6.2).

Push-based pipeline: each operator's ``consume(chunk)`` mutates the
chunk (append a group / blocks, flatten, compact), calls
``next.consume``, and restores the chunk before returning — so a single
chunk object flows through the whole pipeline with no copies except
where the paper's design copies (ColumnExtend gathers, Filter
compaction).

- ``block_size`` (default :data:`BLOCK_SIZE`, ``1 << 15``) is the most
  tuples a list group may hold. :class:`PhysScan` emits
  ``block_size``-vertex blocks of its ``[lo, hi)`` range, and the fused
  extends :class:`PhysBatchExtend` / :class:`PhysExtendFilterCount` run
  once per piece of at most ``block_size`` adjacency positions
  (:func:`cut_ranges`), so intermediates stay bounded however many hops
  a plan expands.
- :class:`PhysListExtend` flattens its input group, and per input tuple
  emits a **new unflat group** whose neighbour/slot blocks are *views*
  over the CSR arrays (adjacency lists are not materialized). Edge
  properties needed downstream are materialized here: a sequential
  slice for forward property pages, a gather otherwise.
- :class:`PhysColumnExtend` appends gathered blocks to the *same* group
  (1-1 / n-1 / 1-n edges stored in vertex columns), dropping tuples with
  no edge.
- :class:`PhysFilter` evaluates flat/flat, list/flat and list/list
  operand combinations and compacts the unflat group.
- :class:`CountSink` counts factorized tuples as the product of group
  sizes; the fused :class:`PhysCountListExtend` /
  :class:`PhysCountColumnExtend` implement the terminal
  extend-then-count(*) case without enumerating the last hop at all.
- :class:`PhysExtendFilterCount` counts a terminal extend's filtered
  lists. When all its predicates compare to literals, it switches, once
  it has expanded as many positions as the CSR has edges, to a per-query
  prefix sum of the predicate mask over the CSR: each later list costs
  ``cum[end] - cum[start]``, with no property read or comparison.
- :class:`CollectSink` flattens the Cartesian product for RETURN.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.proc.chunk import Block, IntermediateChunk, ListGroup
from repro.proc.expressions import (
    eval_block_vs_block,
    eval_block_vs_literal,
    scalar_op,
)
from repro.proc.plan import Predicate
from repro.storage.graph_store import EdgeStore

#: The most tuples a list group may hold: vertices per scan block, and
#: adjacency positions per piece of an extend.
BLOCK_SIZE = 1 << 15


class Operator:
    def __init__(self) -> None:
        self.next: Operator | None = None

    def consume(self, chunk: IntermediateChunk) -> None:
        raise NotImplementedError


class PhysScan(Operator):
    """Source: blocks of vertex offsets for one label."""

    def __init__(
        self, var: str, n_vertices: int, *, block_size: int = BLOCK_SIZE,
        lo: int = 0, hi: int | None = None,
    ) -> None:
        super().__init__()
        self.var = var
        self.n = n_vertices
        self.block_size = block_size
        self.lo, self.hi = lo, n_vertices if hi is None else hi

    def run(self) -> None:
        for start in range(self.lo, self.hi, self.block_size):
            end = min(start + self.block_size, self.hi)
            chunk = IntermediateChunk()
            chunk.push_group(
                ListGroup(
                    {self.var: Block(np.arange(start, end, dtype=np.int64))},
                    end - start,
                )
            )
            self.next.consume(chunk)


class PhysVertexPropRead(Operator):
    """Gather a vertex property into the group of its variable."""

    def __init__(self, var: str, prop: str, vcol) -> None:
        super().__init__()
        self.var, self.prop, self.vcol = var, prop, vcol
        self.key = f"{var}.{prop}"

    def consume(self, chunk: IntermediateChunk) -> None:
        g = chunk.group_of(self.var)
        ids = g.blocks[self.var].data
        vals, nulls = self.vcol.get_many(ids)
        blk = Block(
            vals,
            nulls if nulls.any() else None,
            self.vcol.dictionary if self.vcol.kind == "dict" else None,
        )
        chunk.add_blocks(self.var, {self.key: blk})
        try:
            self.next.consume(chunk)
        finally:
            chunk.remove_blocks([self.key])


def _eprop_block(
    estore: EdgeStore,
    prop: str,
    direction: str,
    owner: int,
    nbr_data: np.ndarray,
    csr,
    start: int,
    end: int,
) -> Block:
    """Materialize one edge property for the adjacency list of ``owner``."""
    kind = estore.eprop_kind
    if kind == "pages" and direction == "fwd":
        vals, nulls, col = estore.eprops.read_fwd_range(prop, start, end)
    elif kind in ("pages", "edge_columns"):
        addr = estore.eprop_addr(csr, direction, slice(start, end))
        vals, nulls, col = estore.eprops.read_at(prop, addr)
    elif kind in ("src_vcol", "dst_vcol"):
        input_side = "src" if direction == "fwd" else "dst"
        keyed_side = "src" if kind == "src_vcol" else "dst"
        keys = (
            np.full(len(nbr_data), owner, dtype=np.int64)
            if keyed_side == input_side
            else nbr_data.astype(np.int64)
        )
        col = estore.eprops[prop]
        vals, nulls = col.get_many(keys)
    else:
        raise TypeError(f"{estore.label.name} has no edge properties")
    return Block(
        vals,
        nulls if nulls is not None and np.any(nulls) else None,
        col.dictionary if col.kind == "dict" else None,
    )


def concat_ranges(
    starts: np.ndarray, ends: np.ndarray, lens: np.ndarray | None = None
) -> tuple[np.ndarray | None, tuple[int, int] | None, np.ndarray]:
    """Concatenate [starts_i, ends_i) ranges (``lens``: ``ends - starts``
    when the caller already has it).

    Returns ``(idx, contig, lens)``: when the non-empty ranges tile a
    single ascending run (the forward full-scan case), ``idx`` is None
    and ``contig = (lo, hi)`` so callers can use a zero-copy slice —
    this *is* the sequential-read fast path of forward property pages.
    Otherwise ``idx`` is the gather index array.
    """
    if lens is None:
        lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), None, lens
    nz = lens > 0
    s, e = starts[nz], ends[nz]
    if (s[1:] == e[:-1]).all():
        return None, (int(s[0]), int(e[-1])), lens
    out_start = np.concatenate(([0], np.cumsum(lens)[:-1]))
    base = np.repeat(starts - out_start, lens)
    return base + np.arange(total, dtype=np.int64), None, lens


def cut_ranges(
    starts: np.ndarray, ends: np.ndarray, budget: int, row0: int = 0
):
    """The concatenated ranges ``[starts_i, ends_i)`` cut into pieces of
    at most ``budget`` positions, each as ``(rows, idx, contig, lens)``.

    ``rows`` is the slice of input rows a piece covers, counted from
    ``row0``; ``(idx, contig, lens)`` is :func:`concat_ranges` of those
    rows' part of the ranges. Pieces end at the multiples of ``budget``
    in the prefix sum of the lengths, so a list longer than the budget
    is split: a piece clips the start of its first row and the end of
    its last. Pieces of a contiguous run stay contiguous. When the total
    fits the budget the result is one piece, made without a prefix sum;
    when it is 0 there is no piece.
    """
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return ()
    if total <= budget:
        rows = slice(row0, row0 + len(lens))
        return ((rows, *concat_ranges(starts, ends, lens)),)
    return _pieces(starts, ends, lens, total, budget, row0)


def _pieces(starts, ends, lens, total, budget, row0):
    cum = np.cumsum(lens)
    los = np.arange(0, total, budget)
    his = np.minimum(los + budget, total)
    # First row ending after lo; first row reaching hi (it holds hi - 1).
    firsts = np.searchsorted(cum, los, "right")
    lasts = np.searchsorted(cum, his, "left")
    for lo, hi, r0, r1 in zip(
        los.tolist(), his.tolist(), firsts.tolist(), lasts.tolist()
    ):
        s = starts[r0:r1 + 1].copy()
        e = ends[r0:r1 + 1].copy()
        s[0] += lo - (cum[r0] - lens[r0])
        e[-1] -= cum[r1] - hi
        yield (slice(row0 + r0, row0 + r1 + 1), *concat_ranges(s, e))


def _eprop_block_multi(
    estore: EdgeStore,
    prop: str,
    direction: str,
    srcs: np.ndarray,
    lens: np.ndarray,
    idx: np.ndarray | None,
    contig: tuple[int, int] | None,
    csr,
) -> Block:
    """Edge property values for a whole block of adjacency lists.

    Under forward property pages with a contiguous range this is one
    slice (sequential); every other combination is a gather (random).
    """
    kind = estore.eprop_kind
    if kind == "pages" and direction == "fwd":
        # Forward reads follow page order: a slice when contiguous, a
        # run-structured position read otherwise — no ID arithmetic.
        if contig is not None:
            vals, nulls, col = estore.eprops.read_fwd_range(prop, *contig)
        else:
            vals, nulls, col = estore.eprops.read_fwd_positions(prop, idx)
    elif kind in ("pages", "edge_columns"):
        pos = slice(*contig) if contig is not None else idx
        addr = estore.eprop_addr(csr, direction, pos)
        vals, nulls, col = estore.eprops.read_at(prop, addr)
    elif kind in ("src_vcol", "dst_vcol"):
        input_side = "src" if direction == "fwd" else "dst"
        keyed_side = "src" if kind == "src_vcol" else "dst"
        if keyed_side == input_side:
            keys = np.repeat(srcs, lens).astype(np.int64)
        else:
            keys = (
                csr.nbr[contig[0]:contig[1]] if contig is not None
                else csr.nbr[idx]
            ).astype(np.int64)
        col = estore.eprops[prop]
        vals, nulls = col.get_many(keys)
    else:
        raise TypeError(f"{estore.label.name} has no edge properties")
    return Block(
        vals,
        nulls if nulls is not None and np.any(nulls) else None,
        col.dictionary if col.kind == "dict" else None,
    )


class PhysExtendFilterCount(Operator):
    """Fused terminal ListExtend + Filter(s) + count(*).

    When a plan ends with "extend the last edge, filter on its
    properties, count", LBP can evaluate the whole tail block-at-a-time:
    read the property values of the adjacency lists of the input block
    in one vectorized operation per piece of at most ``block_size``
    positions (a single sequential slice under forward property pages),
    apply the predicates as one masked comparison, and add
    ``prefix × mask.sum()`` to the count. This is the tight-loop
    behaviour of a block-based processor (§6) and the measurement
    instrument for Tables 3 and 5 FILTER rows.

    When every predicate compares to a literal, the mask of an edge does
    not depend on the tuple that reaches it, so only the *size* of each
    filtered list matters (count(*) on the factorized form, §6.2). Once
    the positions this operator has expanded in the query reach the
    CSR's edge count, it evaluates the mask once over the whole CSR, in
    pieces of ``block_size`` positions, and keeps its prefix sum ``cum``
    (8 bytes per edge); from then on the filtered size of list
    ``[s, e)`` is ``cum[e] - cum[s]``, with no property read, comparison
    or range concatenation. The threshold bounds the extra work of the
    one whole-CSR pass by what the operator has already read, so a
    selective tail that touches few lists never pays for it.
    """

    def __init__(
        self,
        src_var: str,
        estore: EdgeStore,
        direction: str,
        edge_var: str,
        preds: list[Predicate],
        *,
        block_size: int = BLOCK_SIZE,
    ) -> None:
        super().__init__()
        self.src_var, self.edge_var = src_var, edge_var
        self.estore, self.direction, self.preds = estore, direction, preds
        self.block_size = block_size
        self.csr = estore.csr(direction)
        self.count = 0
        self.memos = [{} for _ in preds]  # dictionary masks, this query
        self.literal_only = all(p.rhs_var is None for p in preds)
        self.expanded = 0  # adjacency positions expanded, this query
        self.cum: np.ndarray | None = None  # mask prefix sum, this query

    def consume(self, chunk: IntermediateChunk) -> None:
        g = chunk.group_of(self.src_var)
        row0 = max(g.cur_idx, 0)
        srcs = g.blocks[self.src_var].data
        if g.is_flat:
            srcs = srcs[row0:row0 + 1]
        starts, ends = self.csr.ranges_of(srcs)
        if self.cum is None and self.literal_only:
            self.expanded += int((ends - starts).sum())
            if self.expanded >= self.csr.n_edges > 0:
                self.cum = self._prefix_sum()
        if self.cum is not None:
            hits = int((self.cum[ends] - self.cum[starts]).sum())
            self.count += _others_product(chunk, g) * hits
            return
        for piece in cut_ranges(starts, ends, self.block_size, row0):
            self._count(chunk, g, *piece)

    def _prefix_sum(self) -> np.ndarray:
        """``cum[i]``: edges before CSR position ``i`` that pass every
        (literal) predicate. The mask is evaluated over the whole CSR in
        pieces of ``block_size`` positions (forward page slices under
        forward property pages), so only ``cum``, 8 bytes per edge,
        outlives a piece."""
        csr = self.csr
        owners = (
            np.flatnonzero(csr.index.unpack_all()) if csr.null_compress
            else np.arange(csr.n_vertices)
        )
        cum = np.empty(csr.n_edges + 1, dtype=np.int64)
        cum[0] = 0
        for rows, idx, contig, lens in cut_ranges(
            csr.offsets[:-1], csr.offsets[1:], self.block_size
        ):
            mask = self._literal_mask({}, owners[rows], lens, idx, contig)
            lo, hi = contig  # the lists tile [0, E)
            np.cumsum(mask, out=cum[lo + 1:hi + 1])
            cum[lo + 1:hi + 1] += cum[lo]
        return cum

    def _read(self, blocks, prop, srcs, lens, idx, contig) -> Block:
        """``prop`` over the given positions, read once per piece."""
        if prop not in blocks:
            blocks[prop] = _eprop_block_multi(
                self.estore, prop, self.direction, srcs, lens, idx, contig,
                self.csr,
            )
        return blocks[prop]

    def _literal_mask(self, blocks, srcs, lens, idx, contig) -> np.ndarray:
        """The positions passing every literal predicate; the properties
        read go into ``blocks``."""
        mask = np.ones(int(lens.sum()), dtype=bool)
        for p, memo in zip(self.preds, self.memos):
            if p.rhs_var is None:
                lblk = self._read(blocks, p.prop, srcs, lens, idx, contig)
                mask &= eval_block_vs_literal(p.op, lblk, p.value, memo)
        return mask

    def _count(self, chunk, g, rows, idx, contig, lens) -> None:
        srcs = g.blocks[self.src_var].data[rows]
        blocks: dict[str, Block] = {}
        mask = self._literal_mask(blocks, srcs, lens, idx, contig)
        for p in self.preds:
            if p.rhs_var is None:
                continue
            lblk = self._read(blocks, p.prop, srcs, lens, idx, contig)
            rkey = f"{p.rhs_var}.{p.rhs_prop}"
            rg = chunk.group_of(rkey)
            rblk = rg.blocks[rkey]
            if rg.is_flat:
                rv = rblk.scalar(rg.cur_idx)
                if rv is None:
                    return
                mask &= eval_block_vs_literal(p.op, lblk, rv)
            else:
                assert rg is g, "fused rhs must live in the extend's input group"
                rep = Block(
                    np.repeat(rblk.data[rows], lens),
                    None if rblk.nulls is None
                    else np.repeat(rblk.nulls[rows], lens),
                    rblk.dictionary,
                )
                mask &= eval_block_vs_block(p.op, lblk, rep)
        prefix = _others_product(chunk, g)
        self.count += prefix * int(mask.sum())


class PhysListExtend(Operator):
    """Join over a CSR: flatten the input group, emit an unflat group of
    adjacency-list views per input tuple (paper §6.2 ListExtend)."""

    def __init__(
        self,
        src_var: str,
        out_var: str,
        edge_var: str | None,
        estore: EdgeStore,
        direction: str,
        eprops: list[str],
    ) -> None:
        super().__init__()
        self.src_var, self.out_var, self.edge_var = src_var, out_var, edge_var
        self.estore, self.direction, self.eprops = estore, direction, eprops
        self.csr = estore.csr(direction)

    def consume(self, chunk: IntermediateChunk) -> None:
        g = chunk.group_of(self.src_var)
        block = g.blocks[self.src_var]
        if g.is_flat:
            self._emit(chunk, block, g.cur_idx)
            return
        try:
            for i in range(g.size):
                g.cur_idx = i
                self._emit(chunk, block, i)
        finally:
            g.cur_idx = -1

    def _emit(self, chunk: IntermediateChunk, block: Block, i: int) -> None:
        v = int(block.data[i])
        start, end = self.csr.range_of(v)
        if start == end:
            return
        nbr = self.csr.nbr[start:end]
        blocks = {self.out_var: Block(nbr)}
        for prop in self.eprops:
            blocks[f"{self.edge_var}.{prop}"] = _eprop_block(
                self.estore, prop, self.direction, v, nbr, self.csr,
                start, end,
            )
        chunk.push_group(ListGroup(blocks, end - start))
        try:
            self.next.consume(chunk)
        finally:
            chunk.pop_group()


class PhysColumnExtend(Operator):
    """Join over a vertex column (single-cardinality edge): append
    same-length blocks into the input group (paper §6.2 ColumnExtend)."""

    def __init__(
        self,
        src_var: str,
        out_var: str,
        edge_var: str | None,
        estore: EdgeStore,
        direction: str,
        eprops: list[str],
    ) -> None:
        super().__init__()
        self.src_var, self.out_var, self.edge_var = src_var, out_var, edge_var
        self.estore, self.direction, self.eprops = estore, direction, eprops
        self.vcol = estore.nbr_vcol(direction)

    def _new_blocks(self, src_data: np.ndarray):
        vals, nulls = self.vcol.get_many(src_data.astype(np.int64))
        blocks = {self.out_var: Block(vals.astype(np.int64))}
        for prop in self.eprops:
            kind = self.estore.eprop_kind
            input_side = "src" if self.direction == "fwd" else "dst"
            keyed_side = "src" if kind == "src_vcol" else "dst"
            keys = (
                src_data.astype(np.int64)
                if keyed_side == input_side
                else vals.astype(np.int64)
            )
            col = self.estore.eprops[prop]
            pv, pn = col.get_many(keys)
            pn = pn | nulls  # no edge -> property NULL
            blocks[f"{self.edge_var}.{prop}"] = Block(
                pv,
                pn if np.any(pn) else None,
                col.dictionary if col.kind == "dict" else None,
            )
        return blocks, nulls

    def consume(self, chunk: IntermediateChunk) -> None:
        g = chunk.group_of(self.src_var)
        src = g.blocks[self.src_var]
        blocks, nulls = self._new_blocks(src.data)
        if g.is_flat:
            if bool(nulls[g.cur_idx]):
                return  # this tuple has no edge
            chunk.add_blocks(self.src_var, blocks)
            try:
                self.next.consume(chunk)
            finally:
                chunk.remove_blocks(list(blocks))
            return
        if nulls.any():
            sel = ~nulls
            if not sel.any():
                return
            saved_blocks, saved_size = g.blocks, g.size
            g.blocks = {k: b.take(sel) for k, b in g.blocks.items()}
            g.size = int(sel.sum())
            blocks = {k: b.take(sel) for k, b in blocks.items()}
            chunk.add_blocks(self.src_var, blocks)
            try:
                self.next.consume(chunk)
            finally:
                chunk.remove_blocks(list(blocks))
                g.blocks, g.size = saved_blocks, saved_size
            return
        chunk.add_blocks(self.src_var, blocks)
        try:
            self.next.consume(chunk)
        finally:
            chunk.remove_blocks(list(blocks))


class PhysBatchExtend(Operator):
    """Block-at-a-time ListExtend fused with its adjacent property reads
    and filters.

    For a left-deep plan, the paper's ListExtend *flattens* its input
    group and iterates it — i.e., every level but the last gives up its
    factorization anyway (§8.7.2: "each ListExtend first flattens the
    previously extended node"). In Java that iteration costs nanoseconds;
    in this simulator the faithful constant-factor equivalent is the
    vectorized form: expand the input group's blocks over the adjacency
    list lengths (the data copy that flattening implies), concatenate the
    lists (a zero-copy view when contiguous), gather the edge/vertex
    properties the next operators need in one shot, and apply their
    predicates as one mask. This runs once per piece of at most
    ``block_size`` positions (:func:`cut_ranges`), and each piece replaces
    the input group downstream. The chunk keeps its factorized structure
    (the merged group is an ordinary unflat group; sibling groups still
    multiply), so terminal factorized counting is unaffected.
    """

    def __init__(
        self,
        src_var: str,
        out_var: str,
        edge_var: str | None,
        estore: EdgeStore,
        direction: str,
        eprops: list[str],
        vprop_reads: list[tuple[str, object]],  # (prop, vcol) of out_var
        preds: list[Predicate],
        *,
        block_size: int = BLOCK_SIZE,
    ) -> None:
        super().__init__()
        self.src_var, self.out_var, self.edge_var = src_var, out_var, edge_var
        self.estore, self.direction = estore, direction
        self.eprops = eprops
        self.vprop_reads = vprop_reads
        self.preds = preds
        self.block_size = block_size
        self.csr = estore.csr(direction)
        self.memos = [{} for _ in preds]  # dictionary masks, this query

    def _operand(self, chunk, merged, key):
        if key in merged:
            return merged[key], None
        g = chunk.group_of(key)
        if g.is_flat:
            return None, g.blocks[key].scalar(g.cur_idx)
        raise NotImplementedError(
            f"batched filter operand {key} lives in another unflat group"
        )

    def consume(self, chunk: IntermediateChunk) -> None:
        gi = chunk.key_group[self.src_var]
        g = chunk.groups[gi]
        row0 = max(g.cur_idx, 0)
        srcs = g.blocks[self.src_var].data
        if g.is_flat:
            srcs = srcs[row0:row0 + 1]
        starts, ends = self.csr.ranges_of(srcs)
        for piece in cut_ranges(starts, ends, self.block_size, row0):
            self._extend(chunk, gi, g, *piece)

    def _extend(self, chunk, gi, g, rows, idx, contig, lens) -> None:
        srcs = g.blocks[self.src_var].data[rows]
        merged: dict[str, Block] = {}
        for k, b in g.blocks.items():
            data = b.data[rows]
            nulls = None if b.nulls is None else b.nulls[rows]
            merged[k] = Block(
                np.repeat(data, lens),
                None if nulls is None else np.repeat(nulls, lens),
                b.dictionary,
            )
        nbr = (
            self.csr.nbr[contig[0]:contig[1]] if contig is not None
            else self.csr.nbr[idx]
        )
        merged[self.out_var] = Block(nbr)
        for prop in self.eprops:
            merged[f"{self.edge_var}.{prop}"] = _eprop_block_multi(
                self.estore, prop, self.direction, srcs, lens, idx, contig,
                self.csr,
            )
        total = len(nbr)
        for prop, vcol in self.vprop_reads:
            vals, nulls = vcol.get_many(nbr)
            merged[f"{self.out_var}.{prop}"] = Block(
                vals,
                nulls if nulls.any() else None,
                vcol.dictionary if vcol.kind == "dict" else None,
            )
        # Fused predicates, evaluated once over the whole batch.
        mask = None
        for p, memo in zip(self.preds, self.memos):
            lblk, lsc = self._operand(chunk, merged, f"{p.var}.{p.prop}")
            if p.rhs_var is None:
                rblk, rsc = None, p.value
            else:
                rblk, rsc = self._operand(
                    chunk, merged, f"{p.rhs_var}.{p.rhs_prop}"
                )
                memo = None  # a flat operand changes from call to call
            if lblk is not None and rblk is None:
                if rsc is None:
                    return
                m = eval_block_vs_literal(p.op, lblk, rsc, memo)
            elif lblk is not None and rblk is not None:
                m = eval_block_vs_block(p.op, lblk, rblk)
            elif lblk is None and rblk is not None:
                if lsc is None:
                    return
                m = eval_block_vs_literal(p.op, rblk, lsc, lit_left=True)
            else:
                if not scalar_op(p.op, lsc, rsc):
                    return
                continue
            mask = m if mask is None else (mask & m)
        if mask is not None and not mask.all():
            if not mask.any():
                return
            merged = {k: b.take(mask) for k, b in merged.items()}
            total = int(mask.sum())
        new_group = ListGroup(merged, total)
        saved_map = {k: chunk.key_group[k] for k in g.blocks}
        chunk.groups[gi] = new_group
        for k in merged:
            chunk.key_group[k] = gi
        try:
            self.next.consume(chunk)
        finally:
            chunk.groups[gi] = g
            for k in merged:
                del chunk.key_group[k]
            chunk.key_group.update(saved_map)


class PhysFilter(Operator):
    """Filter on flat/flat, list/flat or list/list operands (§6.2)."""

    def __init__(self, pred: Predicate) -> None:
        super().__init__()
        self.pred = pred
        self.lkey = f"{pred.var}.{pred.prop}"
        self.rkey = (
            f"{pred.rhs_var}.{pred.rhs_prop}" if pred.rhs_var else None
        )
        self.memo: dict = {}  # dictionary masks of the literal, this query

    def consume(self, chunk: IntermediateChunk) -> None:
        p = self.pred
        lg = chunk.group_of(self.lkey)
        lblk = lg.blocks[self.lkey]
        if self.rkey is None:
            rg, rval = None, p.value
        else:
            rg = chunk.group_of(self.rkey)
            rval = rg.blocks[self.rkey]

        l_flat = lg.is_flat
        r_flat = rg.is_flat if rg is not None else True
        if l_flat and r_flat:
            lv = lblk.scalar(lg.cur_idx)
            rv = rval if rg is None else rval.scalar(rg.cur_idx)
            if scalar_op(p.op, lv, rv):
                self.next.consume(chunk)
            return
        if not l_flat and not r_flat:
            assert lg is rg, "list/list filter requires one group"
            mask = eval_block_vs_block(p.op, lblk, rval)
            self._emit_masked(chunk, lg, mask)
            return
        if l_flat:  # flat lhs vs list: the flat value is the literal
            lv = lblk.scalar(lg.cur_idx)
            if lv is None:
                return
            mask = eval_block_vs_literal(p.op, rval, lv, lit_left=True)
            self._emit_masked(chunk, rg, mask)
            return
        rv = rval if rg is None else rval.scalar(rg.cur_idx)
        if rv is None:
            return
        memo = self.memo if rg is None else None  # only a literal is fixed
        mask = eval_block_vs_literal(p.op, lblk, rv, memo)
        self._emit_masked(chunk, lg, mask)

    def _emit_masked(self, chunk, g, mask) -> None:
        if mask.all():
            self.next.consume(chunk)
            return
        if not mask.any():
            return
        saved_blocks, saved_size = g.blocks, g.size
        g.blocks = {k: b.take(mask) for k, b in g.blocks.items()}
        g.size = int(mask.sum())
        try:
            self.next.consume(chunk)
        finally:
            g.blocks, g.size = saved_blocks, saved_size


class CountSink(Operator):
    """count(*) on the factorized form: product of group sizes."""

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def consume(self, chunk: IntermediateChunk) -> None:
        self.count += chunk.tuple_count()


def _others_product(chunk: IntermediateChunk, g: ListGroup) -> int:
    n = 1
    for og in chunk.groups:
        if og is not g:
            n *= og.tuple_count
    return n


class PhysCountListExtend(Operator):
    """Fused terminal ListExtend + count(*): the last hop is counted from
    adjacency-list lengths without iterating it (aggregation on the
    compressed intermediate representation, §6.2 / Table 5 COUNT rows)."""

    def __init__(self, src_var: str, estore: EdgeStore, direction: str) -> None:
        super().__init__()
        self.src_var = src_var
        self.csr = estore.csr(direction)
        self.count = 0

    def consume(self, chunk: IntermediateChunk) -> None:
        g = chunk.group_of(self.src_var)
        degs = self.csr.degrees_of(g.blocks[self.src_var].data.astype(np.int64))
        if g.is_flat:
            self.count += _others_product(chunk, g) * int(degs[g.cur_idx])
        else:
            self.count += _others_product(chunk, g) * int(degs.sum())


class PhysCountColumnExtend(Operator):
    """Fused terminal ColumnExtend + count(*)."""

    def __init__(self, src_var: str, estore: EdgeStore, direction: str) -> None:
        super().__init__()
        self.src_var = src_var
        self.vcol = estore.nbr_vcol(direction)
        self.count = 0

    def consume(self, chunk: IntermediateChunk) -> None:
        g = chunk.group_of(self.src_var)
        _, nulls = self.vcol.get_many(g.blocks[self.src_var].data.astype(np.int64))
        if g.is_flat:
            self.count += _others_product(chunk, g) * int(not nulls[g.cur_idx])
        else:
            self.count += _others_product(chunk, g) * int((~nulls).sum())


class CollectSink(Operator):
    """Flatten the factorized tuples and collect RETURN columns.

    Per-chunk output is kept as raw numpy arrays; the pandas frame is
    assembled once at :meth:`result` (a DataFrame per chunk would
    dominate runtime for selective queries emitting many small chunks).
    The frame wraps the arrays ``np.concatenate`` has just made, without
    copying them again: they alias no store array.
    """

    def __init__(self, keys: list[str], names: list[str]) -> None:
        super().__init__()
        self.keys, self.names = keys, names
        self.parts: dict[str, list[np.ndarray]] = {k: [] for k in keys}

    def consume(self, chunk: IntermediateChunk) -> None:
        if chunk.tuple_count() == 0:
            return
        cols = chunk.flatten_columns(self.keys)
        for k in self.keys:
            self.parts[k].append(cols[k])

    def result(self) -> pd.DataFrame:
        if not self.keys or not self.parts[self.keys[0]]:
            return pd.DataFrame({n: [] for n in self.names})
        data = {}
        for k, n in zip(self.keys, self.names):
            chunks = self.parts[k]
            if any(c.dtype == object for c in chunks):
                chunks = [c.astype(object) for c in chunks]
            data[n] = np.concatenate(chunks)
        return pd.DataFrame(data, copy=False)
