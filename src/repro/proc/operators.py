"""LBP physical operators (paper §6.2).

Push-based pipeline: each operator's ``consume(group)`` takes one
unflat :class:`ListGroup` and hands the groups it derives to
``next.consume``. A group is never mutated after it is handed on, so no
operator restores state, and data is copied only where the paper's
design copies (ColumnExtend gathers, Filter compaction, the expansion
of input rows over their lists).

- ``block_size`` (default :data:`BLOCK_SIZE`, ``1 << 15``) is the most
  tuples a list group may hold. :class:`PhysScan` emits
  ``block_size``-vertex blocks of its ``[lo, hi)`` range, and the CSR
  extends :class:`PhysBatchExtend` / :class:`PhysExtendFilterCount` run
  once per piece of at most ``block_size`` adjacency positions
  (:func:`cut_ranges`), so intermediates stay bounded however many hops
  a plan expands.
- Each row of a group stands for ``mult`` tuples (None: one); every
  operator hands the multiplicity on with the row, and the count sinks
  and tails weight by it.
- :class:`PhysBatchExtend` is the ListExtend of compiled plans, with
  the out-vertex property reads and filters that follow it. It filters
  each piece before it flattens it: cheap predicates first, each later
  one read and tested only at the surviving positions, and it hands on
  only the blocks later operators read. When nothing after it reads its
  out-vertex or edge and it has no predicate or read, it keeps the lists
  unflat: each input row goes on once, its multiplicity times its
  list's length.
- :class:`PhysListExtend` reads one adjacency list at a time; no plan
  holds it. It is the per-list reference the batched edge-property
  reads are tested against.
- :class:`PhysColumnExtend` adds gathered blocks to its input group's
  (1-1 / n-1 / 1-n edges stored in vertex columns), dropping tuples with
  no edge.
- :class:`PhysFilter` evaluates list/literal and list/list predicates
  and compacts the group.
- In a compiled plan, :class:`PhysColumnExtend` and :class:`PhysFilter`
  hand on, and so compact, only the blocks later operators read (their
  ``live``); hand-built ones hand on every block.
- :class:`CountSink` counts tuples, summing multiplicities; the fused
  :class:`PhysCountListExtend` / :class:`PhysCountColumnExtend`
  implement the terminal extend-then-count(*) case without enumerating
  the last hop at all.
- :class:`PhysExtendFilterCount` counts a terminal extend's filtered
  lists. When all its predicates compare to literals, it switches, once
  it has expanded more positions than the CSR has edges, to a per-query
  prefix sum of the predicate mask over the CSR: each later list costs
  ``cum[end] - cum[start]``, with no property read or comparison.
- :class:`PhysChainCount` counts a chain of extends whose consecutive
  edges are compared by ``<``, ``<=``, ``>`` or ``>=``. It hands its
  input to the chain's own extends and tail until the second hop would
  have expanded as many positions as the chain has edges; then it builds
  per-edge suffix weights once per query, from the last hop back, and
  counts each later row with one binary search over a list's sorted
  values (:class:`_SuffixSums`).
- :class:`CollectSink` keeps the RETURN blocks encoded and decodes each
  column once, at :meth:`CollectSink.result`, repeating each row by its
  multiplicity.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.proc.chunk import Block, ListGroup
from repro.proc.expressions import (
    _COMPARE,
    eval_block_vs_block,
    eval_block_vs_literal,
)
from repro.proc.plan import Predicate
from repro.storage.graph_store import EdgeStore

#: The most tuples a list group may hold: vertices per scan block, and
#: adjacency positions per piece of an extend.
BLOCK_SIZE = 1 << 15


class Operator:
    def __init__(self) -> None:
        self.next: Operator | None = None

    def consume(self, group: ListGroup) -> None:
        raise NotImplementedError


class PhysScan(Operator):
    """Source: blocks of vertex offsets for one label."""

    def __init__(
        self, var: str, n_vertices: int, *, block_size: int = BLOCK_SIZE,
        lo: int = 0, hi: int | None = None,
    ) -> None:
        super().__init__()
        self.var = var
        self.block_size = block_size
        self.lo, self.hi = lo, n_vertices if hi is None else hi

    def run(self) -> None:
        for start in range(self.lo, self.hi, self.block_size):
            end = min(start + self.block_size, self.hi)
            self.next.consume(ListGroup(
                {self.var: Block(np.arange(start, end, dtype=np.int64))},
                end - start,
            ))


def _block(col, vals: np.ndarray, nulls: np.ndarray) -> Block:
    """A read of column ``col`` as a :class:`Block`: the NULL mask only
    when some value is NULL, the dictionary only for a dict column."""
    return Block(
        vals,
        nulls if nulls.any() else None,
        col.dictionary if col.kind == "dict" else None,
    )


class PhysVertexPropRead(Operator):
    """Gather a vertex property into the group of its variable."""

    def __init__(self, var: str, prop: str, vcol) -> None:
        super().__init__()
        self.var, self.prop, self.vcol = var, prop, vcol
        self.key = f"{var}.{prop}"

    def consume(self, group: ListGroup) -> None:
        vals, nulls = self.vcol.get_many(group.blocks[self.var].data)
        blk = _block(self.vcol, vals, nulls)
        self.next.consume(
            ListGroup({**group.blocks, self.key: blk}, group.size, group.mult)
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


def cut_ranges(starts: np.ndarray, ends: np.ndarray, budget: int):
    """The concatenated ranges ``[starts_i, ends_i)`` cut into pieces of
    at most ``budget`` positions, each as ``(rows, idx, contig, lens)``.

    ``rows`` is the slice of input rows a piece covers; ``(idx, contig,
    lens)`` is :func:`concat_ranges` of those rows' part of the ranges.
    Pieces end at the multiples of ``budget`` in the prefix sum of the
    lengths, so a list longer than the budget is split: a piece clips
    the start of its first row and the end of its last. Pieces of a
    contiguous run stay contiguous. When the total fits the budget the
    result is one piece, made without a prefix sum; when it is 0 there
    is no piece.
    """
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return ()
    if total <= budget:
        return ((slice(0, len(lens)), *concat_ranges(starts, ends, lens)),)
    return _pieces(starts, ends, lens, total, budget)


def _pieces(starts, ends, lens, total, budget):
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
        yield (slice(r0, r1 + 1), *concat_ranges(s, e))


def _eprop_block_multi(
    estore: EdgeStore,
    prop: str,
    direction: str,
    srcs: np.ndarray,
    lens: np.ndarray,
    idx: np.ndarray | None,
    contig: tuple[int, int] | None,
    csr,
    sel: np.ndarray | None = None,
) -> Block:
    """Edge property values for a whole block of adjacency lists, or for
    the positions ``sel`` of it only.

    Under forward property pages with a contiguous range this is one
    slice (sequential); every other combination is a gather (random).
    """
    if sel is not None:
        idx, contig = sel + contig[0] if contig else idx[sel], None
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
        if estore.eprop_keyed_by_input(direction):
            keys = np.repeat(srcs, lens).astype(np.int64)
            if sel is not None:
                keys = keys[sel]
        else:
            keys = (
                csr.nbr[contig[0]:contig[1]] if contig is not None
                else csr.nbr[idx]
            ).astype(np.int64)
        col = estore.eprops[prop]
        vals, nulls = col.get_many(keys)
    else:
        raise TypeError(f"{estore.label.name} has no edge properties")
    return _block(col, vals, nulls)


def _csr_pieces(csr, block_size: int):
    """The whole CSR in pieces of at most ``block_size`` positions, as
    :func:`cut_ranges` cuts its lists, each as ``(srcs, lens, idx,
    contig)``: ``srcs`` own the piece's lists. The lists tile ``[0, E)``,
    so every piece is ``contig``: a forward page slice under forward
    property pages, a gather otherwise."""
    owners = (
        np.flatnonzero(csr.index.unpack_all()) if csr.null_compress
        else np.arange(csr.n_vertices)
    )
    for rows, idx, contig, lens in cut_ranges(
        csr.offsets[:-1], csr.offsets[1:], block_size
    ):
        yield owners[rows], lens, idx, contig


def _read_once(op, blocks, prop, srcs, lens, idx, contig) -> Block:
    """Edge property ``prop`` of extend ``op`` (a :class:`PhysBatchExtend`
    or :class:`PhysExtendFilterCount`) over the given positions, read
    once per piece into ``blocks``."""
    if prop not in blocks:
        blocks[prop] = _eprop_block_multi(
            op.estore, prop, op.direction, srcs, lens, idx, contig, op.csr
        )
    return blocks[prop]


def _literal_mask(op, blocks, srcs, lens, idx, contig) -> np.ndarray:
    """The positions passing every literal predicate of extend ``op``;
    the properties read go into ``blocks``."""
    mask = np.ones(int(lens.sum()), dtype=bool)
    for p, memo in zip(op.preds, op.memos):
        if p.rhs_var is None:
            lblk = _read_once(op, blocks, p.prop, srcs, lens, idx, contig)
            mask &= eval_block_vs_literal(p.op, lblk, p.value, memo)
    return mask


class PhysExtendFilterCount(Operator):
    """Terminal CSR extend + Filter(s) on its edge + count(*).

    When a plan ends with "extend the last edge, filter on its
    properties, count", LBP can evaluate the whole tail block-at-a-time:
    read the property values of the adjacency lists of the input block
    in one vectorized operation per piece of at most ``block_size``
    positions (a single sequential slice under forward property pages),
    apply the predicates as one masked comparison, and add
    ``mask.sum()`` to the count. This is the tight-loop
    behaviour of a block-based processor (§6) and the measurement
    instrument for Tables 3 and 5 FILTER rows.

    When every predicate compares to a literal, the mask of an edge does
    not depend on the tuple that reaches it, so only the *size* of each
    filtered list matters (count(*) on the factorized form, §6.2). Once
    the positions this operator has expanded in the query exceed the
    CSR's edge count, it evaluates the mask once over the whole CSR, in
    pieces of ``block_size`` positions, and keeps its prefix sum ``cum``
    (8 bytes per edge); from then on the filtered size of list
    ``[s, e)`` is ``cum[e] - cum[s]``, with no property read, comparison
    or range concatenation. The threshold bounds the extra work of the
    one whole-CSR pass by what the operator has already read, so a
    selective tail that touches few lists, or a query that reads each
    list at most once, never pays for it.
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

    def consume(self, group: ListGroup) -> None:
        starts, ends = self.csr.ranges_of(group.blocks[self.src_var].data)
        if self.cum is None and self.literal_only:
            self.expanded += int((ends - starts).sum())
            if self.expanded > self.csr.n_edges > 0:
                self.cum = self._prefix_sum()
        if self.cum is not None:
            self.count += _weighted(self.cum[ends] - self.cum[starts], group.mult)
            return
        for piece in cut_ranges(starts, ends, self.block_size):
            self._count(group, *piece)

    def _prefix_sum(self) -> np.ndarray:
        """``cum[i]``: edges before CSR position ``i`` that pass every
        (literal) predicate. The mask is evaluated over the whole CSR in
        pieces of ``block_size`` positions (forward page slices under
        forward property pages), so only ``cum``, 8 bytes per edge,
        outlives a piece."""
        cum = np.empty(self.csr.n_edges + 1, dtype=np.int64)
        cum[0] = 0
        for srcs, lens, idx, contig in _csr_pieces(self.csr, self.block_size):
            mask = _literal_mask(self, {}, srcs, lens, idx, contig)
            lo, hi = contig
            np.cumsum(mask, out=cum[lo + 1:hi + 1])
            cum[lo + 1:hi + 1] += cum[lo]
        return cum

    def _count(self, group, rows, idx, contig, lens) -> None:
        srcs = group.blocks[self.src_var].data[rows]
        blocks: dict[str, Block] = {}
        mask = _literal_mask(self, blocks, srcs, lens, idx, contig)
        for p in self.preds:
            if p.rhs_var is None:
                continue
            lblk = _read_once(self, blocks, p.prop, srcs, lens, idx, contig)
            rblk = group.blocks[f"{p.rhs_var}.{p.rhs_prop}"]
            mask &= eval_block_vs_block(p.op, lblk, _expand(rblk, rows, lens))
        if group.mult is None:
            self.count += int(mask.sum())
        else:
            self.count += int(np.repeat(group.mult[rows], lens)[mask].sum())


def _weighted(counts: np.ndarray, mult: np.ndarray | None) -> int:
    """The sum of per-row ``counts``, each times its row's multiplicity."""
    return int(counts.sum() if mult is None else (counts * mult).sum())


def _expand(block: Block, rows, lens: np.ndarray) -> Block:
    """``block``'s ``rows``, each repeated as often as its list is long."""
    return Block(
        np.repeat(block.data[rows], lens),
        None if block.nulls is None else np.repeat(block.nulls[rows], lens),
        block.dictionary,
    )


#: int64 sums stay exact below this bound, with room for the rounding of
#: the float64 total that checks them.
_INT_SAFE = 2.0 ** 62

#: Per band ``y OP x``: the ``searchsorted`` side that splits a list's
#: sorted values at ``x``, and whether the passing values lie above it.
_BAND = {
    ">": ("right", True), ">=": ("left", True),
    "<": ("left", False), "<=": ("right", False),
}


def _exact(w: np.ndarray) -> np.ndarray:
    """``w``, as Python ints once its total might leave int64."""
    if w.dtype != object and float(w.sum(dtype=np.float64)) >= _INT_SAFE:
        return w.astype(object)
    return w


class _SuffixSums:
    """A chain hop's per-edge suffix weights ``w``, summed over lists.

    ``cum`` is the prefix sum of ``w`` over the CSR. With a band ``y op
    x`` (``y`` the edge's value, ``x`` the previous hop's), a band join
    (DeWitt, Naughton & Schneider, VLDB 1991): the weighted edges with a
    non-NULL ``y`` are sorted once by ``list start · R + rank(y)``, and
    ``scum`` sums their weights in that order, so a list's passing edges
    lie on one side of one ``searchsorted`` probe. ``rank(y)`` is ``y -
    vmin`` while such keys fit int64, else ``y``'s index in the distinct
    values ``u``; a float operand makes both compare as float64, as numpy
    compares them. The offset keys need no sort but the key sort, where
    distinct-value ranks add a ``np.unique`` of every weighted edge:
    ranks alone made the k-hop chain counts 1.9–3.0× slower. 0/1 weights sort only the passing keys and need no
    argsort: ``scum[i]`` is ``i``.
    """

    def __init__(self, csr, w, op=None, y=None, valid=None, as_float=False):
        self.csr, self.op, self.as_float = csr, op, as_float
        if op is not None:
            w = w & valid if w.dtype == bool else w * valid
        w = _exact(w)
        self.cum = np.concatenate(([0], np.cumsum(w)))
        if op is None:
            return
        keep = w != 0
        y = y[keep].astype(np.float64) if as_float else y[keep]
        key = np.repeat(csr.offsets[:-1], np.diff(csr.offsets))[keep]
        self.u, self.vmin = None, 0
        offsets = not as_float and len(y) > 0
        if offsets:
            lo, hi = int(y.min()), int(y.max())
            offsets = (
                -_INT_SAFE < lo and hi < _INT_SAFE
                and (csr.n_edges + 1) * (hi - lo + 2) < _INT_SAFE
            )
        if offsets:
            self.vmin, self.R = lo, hi - lo + 1
            key *= self.R
            key += y
            key -= lo
        else:
            self.u, rank = np.unique(y, return_inverse=True)
            self.R = len(self.u)
            key *= self.R
            key += rank
        if w.dtype == bool:
            self.keys, self.scum = np.sort(key), None
        else:
            order = np.argsort(key)
            self.keys = key[order]
            self.scum = np.concatenate(([0], np.cumsum(w[keep][order])))

    def sums(self, starts, ends, x: Block | None) -> np.ndarray:
        """Per list ``[starts_i, ends_i)``, the weights of its edges that
        pass the band against ``x_i`` (NULL passes nothing)."""
        if self.op is None:
            return self.cum[ends] - self.cum[starts]
        side, above = _BAND[self.op]
        ok = ends > starts
        if x.nulls is not None:
            ok &= ~x.nulls
        xv = x.data.astype(np.float64 if self.as_float else np.int64, copy=False)
        if self.u is None:
            lo, hi = (-1, self.R - 1) if side == "right" else (0, self.R)
            split = np.clip(xv, self.vmin + lo, self.vmin + hi) - self.vmin
        else:
            split = np.searchsorted(self.u, xv, side) - (side == "right")
        probe = starts * self.R + split
        # Sorted probes let each search start where the last one ended.
        order = np.argsort(probe)
        b = np.empty_like(order)
        b[order] = np.searchsorted(self.keys, probe[order], side)
        c = b if self.scum is None else self.scum[b]
        out = self.cum[ends] - c if above else c - self.cum[starts]
        return np.where(ok, out, 0)


class PhysChainCount(Operator):
    """count(*) of a chain of CSR extends whose consecutive edges are
    compared by a numeric inequality (``e_k.ts > e_{k-1}.ts``), on the
    factorized form (§6.2).

    Its input is the first extend's output. Until the positions the
    second hop would expand from it reach the chain's edges (``Σ_k E_k``
    over all hops), it hands each group unchanged to the chain's own
    extends and count tail, so a selective chain never pays for a
    whole-CSR pass. Then it builds per-edge suffix weights once per
    query, from the last hop back, as variable elimination counts an
    acyclic join (Abo Khamis, Ngo & Rudra, "FAQ", PODS 2016): ``W_k`` is
    hop ``k``'s literal mask times the sum of ``W_{k+1}`` over the next
    list's edges that pass the band against the edge (the last hop's is
    its mask). Each later row costs one ``ranges_of`` and one
    ``searchsorted``. ``hops`` are the chain's extends after the first,
    the pipeline itself: :class:`PhysBatchExtend` operators, then the
    :class:`PhysExtendFilterCount` tail. ``bands[k]`` is hop ``k``'s
    inequality against the hop before it, with the hop's edge on the
    left, or None.

    The build reads properties in ``block_size`` pieces through
    :func:`_eprop_block_multi`, as the tail's prefix sum does, so forward
    pages stay slices and backward reads gathers. Measured with
    ``tracemalloc`` on ``flickr_like(sf=1)``'s k-hop chains (E = 322,000),
    one hop's build peaks at 46–55 bytes per edge, and a built hop keeps
    11–23 while the one before it is built: 77–114 for three hops.
    Weights turn to Python ints before an int64 sum could overflow, and
    a count beyond int64 raises ``OverflowError``.
    """

    def __init__(
        self, first: "PhysBatchExtend", hops: list[Operator],
        bands: list[Predicate | None],
    ) -> None:
        super().__init__()
        # ``first`` hands its groups here: keeping it would make a cycle
        # that holds each query's weights until the cyclic collector runs.
        self.src_var, self.hops, self.bands = first.out_var, hops, bands
        labels = [first.estore.label] + [h.estore.label for h in hops]
        self.floats = [
            b is not None and "float64" in (
                labels[k + 1].prop(b.prop).dtype,
                labels[k].prop(b.rhs_prop).dtype,
            )
            for k, b in enumerate(self.bands)
        ]
        b = self.bands[0]
        self.probe = None if b is None else f"{first.edge_var}.{b.rhs_prop}"
        self.n_edges = first.csr.n_edges + sum(h.csr.n_edges for h in hops)
        self.expanded = 0  # positions the second hop would expand
        self.weights: _SuffixSums | None = None  # the second hop's
        self.counted = 0  # paths counted from the weights

    @property
    def count(self) -> int:
        return self.counted + self.hops[-1].count

    def consume(self, group: ListGroup) -> None:
        starts, ends = self.hops[0].csr.ranges_of(
            group.blocks[self.src_var].data
        )
        if self.weights is None:
            self.expanded += int((ends - starts).sum())
            if not self.expanded >= self.n_edges > 0:
                self.hops[0].consume(group)
                return
            self.weights = self._build()
        x = None if self.probe is None else group.blocks[self.probe]
        self.counted += int(_exact(self.weights.sums(starts, ends, x)).sum())
        if self.counted > np.iinfo(np.int64).max:
            raise OverflowError(f"{self.counted} paths exceed int64")

    def _build(self) -> _SuffixSums:
        sums = None
        for k in reversed(range(len(self.hops))):
            sums = self._hop_sums(k, sums)
        return sums

    def _hop_sums(self, k: int, nxt: _SuffixSums | None) -> _SuffixSums:
        """Hop ``k``'s suffix weights, given the next hop's sums."""
        h, band = self.hops[k], self.bands[k]
        probe = None if nxt is None or nxt.op is None else self.bands[k + 1]
        # Empty first parts keep the joins defined on a CSR with no edges.
        ws, ys, valid = ([np.zeros(0, t)] for t in (bool, np.int64, bool))
        for srcs, lens, idx, contig in _csr_pieces(h.csr, h.block_size):
            blocks: dict[str, Block] = {}
            w = _literal_mask(h, blocks, srcs, lens, idx, contig)
            if nxt is not None:
                s, e = nxt.csr.ranges_of(h.csr.nbr[contig[0]:contig[1]])
                x = None if probe is None else _read_once(
                    h, blocks, probe.rhs_prop, srcs, lens, idx, contig
                )
                w = w * nxt.sums(s, e, x)
            ws.append(w)
            if band is not None:
                y = _read_once(h, blocks, band.prop, srcs, lens, idx, contig)
                ys.append(y.data)
                valid.append(
                    np.ones(len(y), bool) if y.nulls is None else ~y.nulls
                )
        w = np.concatenate(ws)
        if band is None:
            return _SuffixSums(h.csr, w)
        return _SuffixSums(
            h.csr, w, band.op, np.concatenate(ys), np.concatenate(valid),
            self.floats[k],
        )


class PhysListExtend(Operator):
    """Join over a CSR, one adjacency list at a time: per input row, a
    group of that row's blocks repeated over its list, plus the list (a
    view over the CSR) and its edge properties.

    :func:`repro.proc.lbp.compile_lbp` never emits it; compiled plans
    extend with :class:`PhysBatchExtend`. It stays as the per-list
    reference reader that tests compare the batched reads against, and
    until the benchmark's tracer (``OPERATORS`` in
    ``perfbench/tracing.py``) stops looking it up by name.
    """

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

    def consume(self, group: ListGroup) -> None:
        srcs = group.blocks[self.src_var].data
        for i in range(group.size):
            start, end = self.csr.range_of(int(srcs[i]))
            if start == end:
                continue
            row, lens = slice(i, i + 1), np.array([end - start])
            blocks = {k: _expand(b, row, lens) for k, b in group.blocks.items()}
            blocks[self.out_var] = Block(self.csr.nbr[start:end])
            for prop in self.eprops:
                blocks[f"{self.edge_var}.{prop}"] = _eprop_block_multi(
                    self.estore, prop, self.direction, srcs[row], lens,
                    None, (start, end), self.csr,
                )
            self.next.consume(ListGroup(blocks, end - start))


class PhysColumnExtend(Operator):
    """Join over a vertex column (single-cardinality edge): add
    same-length blocks to the input group (paper §6.2 ColumnExtend)."""

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
        self.live: set[str] | None = None  # keys handed on; None: all

    def _new_blocks(self, src_data: np.ndarray):
        vals, nulls = self.vcol.get_many(src_data.astype(np.int64))
        blocks = {self.out_var: Block(vals.astype(np.int64))}
        keys = (
            src_data if self.estore.eprop_keyed_by_input(self.direction)
            else vals
        ).astype(np.int64)
        for prop in self.eprops:
            col = self.estore.eprops[prop]
            pv, pn = col.get_many(keys)
            pn = pn | nulls  # no edge -> property NULL
            blocks[f"{self.edge_var}.{prop}"] = _block(col, pv, pn)
        return blocks, nulls

    def consume(self, group: ListGroup) -> None:
        blocks, nulls = self._new_blocks(group.blocks[self.src_var].data)
        out = ListGroup({**group.blocks, **blocks}, group.size, group.mult)
        out = _live(out, self.live)
        if nulls.any():
            out = out.take(~nulls)  # drop the tuples with no edge
            if out.size == 0:
                return
        self.next.consume(out)


class _Step:
    """A fused predicate, its keys' sources and state, as planned."""

    def __init__(self, pred: Predicate, srcs: dict) -> None:
        self.pred, self.memo = pred, {}  # dictionary masks, this query
        self.lkey = f"{pred.var}.{pred.prop}"
        self.rkey = pred.rhs_var and f"{pred.rhs_var}.{pred.rhs_prop}"
        self.lsrc, self.rsrc = (
            k and srcs.get(k, ("in", k)) for k in (self.lkey, self.rkey)
        )
        # A literal on an out-vertex property: its column, for the mask.
        self.vcol = self.lsrc[0] == "v" and self.rkey is None and self.lsrc[1]
        self.lkeep = self.rkeep = False  # keep the block read, for later
        self.seen, self.mask = 0, None  # rows evaluated; the column mask


class PhysBatchExtend(Operator):
    """Block-at-a-time ListExtend with the out-vertex property reads
    (``vprop_reads``) and filters (``preds``) that the compiler adds.

    The paper's ListExtend flattens its input group (§8.7.2). Each piece
    of at most ``block_size`` adjacency positions (:func:`cut_ranges`) is
    filtered first, through a selection vector (Boncz, Zukowski & Nes,
    "MonetDB/X100", CIDR 2005; Abadi et al., "Materialization Strategies
    in a Column-Oriented DBMS", ICDE 2007): dictionary and numeric
    literals run first, and each predicate reads and tests only the
    positions still passing. A literal on an out-vertex property that
    has evaluated as many rows as its column has vertices evaluates the
    column once into a per-query mask (NULL false); later pieces gather
    ``mask[nbr]``. The piece handed on holds only the keep-set, each
    block gathered once at the survivors (input blocks and the rows'
    multiplicities through ``np.repeat(rows, lens)[sel]``).

    An extend with no predicate or property read whose out-vertex and
    edge no later operator reads is **multiplicity-only** (``mult_only``,
    set by :meth:`plan`): its lists stay unflat (Olteanu & Závodný, "Size
    Bounds for Factorised Representations of Query Results", TODS 2015).
    It looks up the input's list ranges once, drops the rows with empty
    lists and hands on each other row once, its multiplicity times its
    list's length, without cutting or expanding the lists.
    """

    def __init__(
        self,
        src_var: str,
        out_var: str,
        edge_var: str | None,
        estore: EdgeStore,
        direction: str,
        eprops: list[str],
        *,
        block_size: int = BLOCK_SIZE,
    ) -> None:
        super().__init__()
        self.src_var, self.out_var, self.edge_var = src_var, out_var, edge_var
        self.estore, self.direction, self.eprops = estore, direction, eprops
        self.vprop_reads: list[tuple[str, object]] = []  # (prop, vcol) of out_var
        self.preds: list[Predicate] = []
        self.block_size = block_size
        self.csr = estore.csr(direction)
        self.steps: list[_Step] | None = None  # set by :meth:`plan`
        self.mult_only = False  # set by :meth:`plan`

    def plan(self, live: set[str] | None, inputs=()) -> set[str]:
        """Fix the predicate order, each key's source and the blocks to
        hand on: ``live``, the keys later operators read (None: ``inputs``
        and every block made here). Returns the input keys it reads."""
        srcs = {self.out_var: ("nbr", None)}
        for prop in self.eprops:
            srcs[f"{self.edge_var}.{prop}"] = ("e", prop)
        for prop, vcol in self.vprop_reads:
            srcs[f"{self.out_var}.{prop}"] = ("v", vcol)
        live = srcs.keys() | inputs if live is None else live
        self.outputs = [(k, srcs.get(k) or ("in", k)) for k in live]
        self.mult_only = not self.preds and not live & srcs.keys()
        steps = [_Step(p, srcs) for p in self.preds]
        self.memos = [st.memo for st in steps]  # in ``preds`` order
        # Stable: cheap literals keep their query order.
        self.steps = sorted(steps, key=lambda st: not self._cheap(st))
        later = set(live)
        for st in reversed(self.steps):
            st.lkeep, st.rkeep = st.lkey in later, st.rkey in later
            later |= {st.lkey, st.rkey}
        return later - srcs.keys() - {None} | {self.src_var}

    def _cheap(self, st: _Step) -> bool:
        """A dictionary literal or numeric comparison: no call per value."""
        kind, arg = st.lsrc
        if st.rkey is not None or kind not in ("e", "v"):
            return False
        if kind == "v":
            dictionary, raw = arg.kind == "dict", arg.kind == "str"
        else:
            spec = self.estore.label.prop(arg)
            dictionary, raw = spec.categorical, spec.dtype == "str"
        return dictionary or (not raw and st.pred.op in _COMPARE)

    def consume(self, group: ListGroup) -> None:
        if self.steps is None:  # not compiled: hand on every block
            self.plan(None, group.blocks)
        starts, ends = self.csr.ranges_of(group.blocks[self.src_var].data)
        if self.mult_only:
            self._multiply(group, ends - starts)
            return
        for piece in cut_ranges(starts, ends, self.block_size):
            self._extend(group, *piece)

    def _multiply(self, group, lens: np.ndarray) -> None:
        """Hand on the rows with a non-empty list, each once, with its
        multiplicity times its list's length."""
        keep = lens > 0
        if not keep.any():
            return
        mult = lens if group.mult is None else lens * group.mult
        out = ListGroup(
            {k: group.blocks[k] for k, _ in self.outputs}, group.size, mult
        )
        self.next.consume(out if keep.all() else out.take(keep))

    def _extend(self, group, rows, idx, contig, lens) -> None:
        nbr = self.csr.nbr[slice(*contig) if contig else idx]
        piece = (group, rows, lens, idx, contig, nbr)
        sel = at = rep = None  # surviving positions; their input rows
        cache: dict[str, Block] = {}  # blocks read at ``sel``
        for st in self.steps:
            m = self._eval(st, piece, sel, at, cache)
            if m.all():
                continue
            if not m.any():
                return
            sel = np.flatnonzero(m) if sel is None else sel[m]
            for k, b in cache.items():
                cache[k] = b.take(m)
            if rep is None:
                rep = np.repeat(np.arange(rows.start, rows.stop), lens)
            at = rep[sel]
        blocks = {  # a cached block is never empty: it holds ``sel``
            k: cache.get(k) or self._read(src, piece, sel, at)
            for k, src in self.outputs
        }
        mult = group.mult
        if mult is not None:
            mult = np.repeat(mult[rows], lens) if sel is None else mult[at]
        size = len(nbr) if sel is None else len(sel)
        self.next.consume(ListGroup(blocks, size, mult))

    def _get(self, key, src, keep, piece, sel, at, cache) -> Block:
        """Block ``key`` from ``cache``, else read (and cached if ``keep``)."""
        blk = cache.get(key)
        if blk is None:
            blk = self._read(src, piece, sel, at)
            if keep:
                cache[key] = blk
        return blk

    def _read(self, src, piece, sel, at) -> Block:
        """The block of source ``src`` at the piece's positions ``sel``
        (None: all of them); ``at`` are their input rows."""
        group, rows, lens, idx, contig, nbr = piece
        kind, arg = src
        if kind == "in":
            b = group.blocks[arg]
            return _expand(b, rows, lens) if sel is None else b.take(at)
        if kind == "e":
            return _eprop_block_multi(
                self.estore, arg, self.direction,
                group.blocks[self.src_var].data[rows], lens, idx, contig,
                self.csr, sel,
            )
        ids = nbr if sel is None else nbr[sel]
        return Block(ids) if kind == "nbr" else _block(arg, *arg.get_many(ids))

    def _eval(self, st: _Step, piece, sel, at, cache) -> np.ndarray:
        """Step ``st``'s mask over the positions ``sel``."""
        p = st.pred
        if st.vcol:
            nbr = piece[5] if sel is None else piece[5][sel]
            if st.mask is None:
                st.seen += len(nbr)
                st.mask = self._column_mask(st) if st.seen >= st.vcol.n else None
            if st.mask is not None:
                return st.mask[nbr]
        lblk = self._get(st.lkey, st.lsrc, st.lkeep, piece, sel, at, cache)
        if st.rkey is None:
            return eval_block_vs_literal(p.op, lblk, p.value, st.memo)
        rblk = self._get(st.rkey, st.rsrc, st.rkeep, piece, sel, at, cache)
        return eval_block_vs_block(p.op, lblk, rblk)

    def _column_mask(self, st: _Step) -> np.ndarray:
        """``st``'s literal over every vertex of its column (NULL false)."""
        vcol = st.vcol
        blk = _block(vcol, *vcol.get_many(np.arange(vcol.n, dtype=np.int64)))
        return eval_block_vs_literal(st.pred.op, blk, st.pred.value, st.memo)


class PhysFilter(Operator):
    """Filter on list/literal or list/list operands (§6.2)."""

    def __init__(self, pred: Predicate) -> None:
        super().__init__()
        self.pred = pred
        self.lkey = f"{pred.var}.{pred.prop}"
        self.rkey = (
            f"{pred.rhs_var}.{pred.rhs_prop}" if pred.rhs_var else None
        )
        self.memo: dict = {}  # dictionary masks of the literal, this query
        self.live: set[str] | None = None  # keys handed on; None: all

    def consume(self, group: ListGroup) -> None:
        p, lblk = self.pred, group.blocks[self.lkey]
        if self.rkey is None:
            mask = eval_block_vs_literal(p.op, lblk, p.value, self.memo)
        else:
            mask = eval_block_vs_block(p.op, lblk, group.blocks[self.rkey])
        if not mask.any():
            return
        group = _live(group, self.live)
        self.next.consume(group if mask.all() else group.take(mask))


def _live(group: ListGroup, live: set[str] | None) -> ListGroup:
    """``group`` with only the blocks in ``live`` (None: every block)."""
    if live is None:
        return group
    return ListGroup(
        {k: b for k, b in group.blocks.items() if k in live},
        group.size, group.mult,
    )


class CountSink(Operator):
    """count(*): the sum of the tuples of the groups it receives."""

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def consume(self, group: ListGroup) -> None:
        self.count += group.tuples()


class PhysCountListExtend(Operator):
    """Terminal CSR extend + count(*): the last hop is counted from
    adjacency-list lengths without iterating it (aggregation on the
    compressed intermediate representation, §6.2 / Table 5 COUNT rows)."""

    def __init__(self, src_var: str, estore: EdgeStore, direction: str) -> None:
        super().__init__()
        self.src_var = src_var
        self.csr = estore.csr(direction)
        self.count = 0

    def consume(self, group: ListGroup) -> None:
        srcs = group.blocks[self.src_var].data.astype(np.int64)
        self.count += _weighted(self.csr.degrees_of(srcs), group.mult)


class PhysCountColumnExtend(Operator):
    """Terminal ColumnExtend + count(*)."""

    def __init__(self, src_var: str, estore: EdgeStore, direction: str) -> None:
        super().__init__()
        self.src_var = src_var
        self.vcol = estore.nbr_vcol(direction)
        self.count = 0

    def consume(self, group: ListGroup) -> None:
        srcs = group.blocks[self.src_var].data.astype(np.int64)
        _, nulls = self.vcol.get_many(srcs)
        self.count += _weighted(~nulls, group.mult)


class CollectSink(Operator):
    """Collect the RETURN columns of every group, decoded once.

    The blocks are kept as they arrive, encoded (codes, NULL mask,
    dictionary), with each group's multiplicities; :meth:`result`
    concatenates each key's blocks once, decodes them once through one
    dictionary-plus-NULL table (the blocks of a key come from one column,
    so they share its dictionary) and repeats each row by its
    multiplicity (Abadi et al., "Materialization Strategies in a
    Column-Oriented DBMS", ICDE 2007: materialize at the sink). The
    pandas frame is assembled once, at :meth:`result`, and wraps the
    arrays just made without copying them again: they alias no store
    array.
    """

    def __init__(self, keys: list[str], names: list[str]) -> None:
        super().__init__()
        self.keys, self.names = keys, names
        self.parts: dict[str, list[Block]] = {k: [] for k in keys}
        self.mults: list[np.ndarray | None] = []
        self.sizes: list[int] = []

    def consume(self, group: ListGroup) -> None:
        if group.size == 0:
            return
        for k in self.keys:
            self.parts[k].append(group.blocks[k])
        self.mults.append(group.mult)
        self.sizes.append(group.size)

    def result(self) -> pd.DataFrame:
        if not self.keys or not self.sizes:
            return pd.DataFrame({n: [] for n in self.names})
        mult = None
        if any(m is not None for m in self.mults):
            mult = np.concatenate([
                np.ones(n, np.int64) if m is None else m
                for m, n in zip(self.mults, self.sizes)
            ])
        data = {}
        for k, n in zip(self.keys, self.names):
            col = _concat(self.parts[k]).decoded()
            data[n] = col if mult is None else np.repeat(col, mult)
        return pd.DataFrame(data, copy=False)


def _concat(blocks: list[Block]) -> Block:
    """One key's blocks as one new block, over the first's dictionary."""
    nulls = None
    if any(b.nulls is not None for b in blocks):
        nulls = np.concatenate([
            np.zeros(len(b), bool) if b.nulls is None else b.nulls
            for b in blocks
        ])
    return Block(
        np.concatenate([b.data for b in blocks]), nulls, blocks[0].dictionary
    )
