"""LBP plan compilation and execution (paper §6).

``compile_lbp`` walks the logical plan of a :class:`QuerySpec` once and
emits the operators that run over a :class:`GraphStore`:

- ExtendStep → :class:`PhysBatchExtend` (CSR side) or
  :class:`PhysColumnExtend` (vertex-column side), per Table 1 storage;
  edge properties the query needs are read at the extend. The batch
  extend is the paper's ListExtend: it also takes the out-vertex
  property reads and the filters right after it, up to a read of
  another vertex's property.
- Other vertex properties referenced by a filter or RETURN are gathered
  by a :class:`PhysVertexPropRead`; a :class:`PhysFilter` evaluates each
  filter after one.
- ``block_size`` is the most tuples a list group may hold: the scan's
  vertices per block and the extends' adjacency positions per piece, so
  intermediates stay within it however many hops are expanded.
- Every count(*) plan ends in a :class:`CountSink`. A plan whose last
  extend is filtered only by literals on its edge, or a chain of CSR
  extends whose consecutive edges are compared by a numeric inequality
  (Table 3's ``e_k.ts > e_{k-1}.ts``), gets a
  :class:`PhysExtendFilterCount` before its last ``k`` extends
  (:func:`_fuse_count`); those extends and the sink stay as its
  pipeline until it switches to per-edge suffix weights.
- The scan covers only the offsets that the literal predicates right
  after it can match on a sorted numeric column (:func:`scan_bounds`),
  so ``p.id = X`` scans one vertex; those filters stay in the plan.

The pipeline passes one list group at a time, each row with a
multiplicity: each extend hands downstream a new group in place of its
input, holding only the blocks later operators read
(:func:`_plan_batches`). Factorization is kept where nothing needs the
tuples: the same liveness pass, and only it, turns an extend whose
out-vertex and edge nothing later reads into one that keeps its lists
unflat as the rows' multiplicities (:class:`PhysCountListExtend`,
:class:`PhysCountColumnExtend`); a terminal extend of a count(*) plan is
one, as :class:`CountSink` reads nothing. The counter's suffix weights
and :func:`_try_vectorized_count` never enumerate the hops they count.

``run_lbp`` executes the pipeline single-threaded and returns an int
(count) or a pandas DataFrame (projections). The Spark-parallel variant
lives in :mod:`repro.proc.distributed`.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.proc.operators import (
    BLOCK_SIZE,
    CollectSink,
    CountSink,
    Operator,
    PhysBatchExtend,
    PhysColumnExtend,
    PhysCountColumnExtend,
    PhysCountListExtend,
    PhysExtendFilterCount,
    PhysFilter,
    PhysScan,
    PhysVertexPropRead,
    _BAND,
)
from repro.proc.plan import (
    ExtendStep,
    FilterStep,
    Predicate,
    QuerySpec,
    ScanStep,
    compile_logical,
    needed_eprops,
)
from repro.storage.graph_store import GraphStore

#: ``a OP b`` ⇔ ``b _MIRROR[OP] a`` for the comparison operators.
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}

#: Per op, the ``searchsorted`` sides of the first and of one past the
#: last matching offset; None leaves that end of the range open.
_KEY_SIDES = {
    "=": ("left", "right"),
    "<": (None, "left"),
    "<=": (None, "right"),
    ">": ("right", None),
    ">=": ("left", None),
}


def scan_bounds(
    store: GraphStore,
    spec: QuerySpec,
    scan_range: tuple[int, int] | None = None,
    *,
    steps: list | None = None,
) -> tuple[int, int]:
    """The ``[lo, hi)`` of scan offsets that ``spec`` can match.

    Starts from ``scan_range`` (default: every vertex of the scanned
    label) and narrows it by each literal ``=``, ``<``, ``<=``, ``>`` or
    ``>=`` predicate that directly follows the scan, when its literal is
    an int or float (not a bool) and its column is flagged
    ``is_sorted``: offsets then order the values, so a binary search
    gives the exact bounds. Other predicates and columns leave the range
    as it is. The range only drops offsets the predicates reject, so the
    plan keeps every filter.
    """
    steps = steps or compile_logical(spec)
    scan = steps[0]
    lo, hi = scan_range if scan_range else (0, store.n_vertices[scan.label])
    for step in steps[1:]:
        if not isinstance(step, FilterStep):
            break
        p = step.pred
        if (
            p.rhs_var is not None
            or p.op not in _KEY_SIDES
            or isinstance(p.value, bool)
            or not isinstance(p.value, (int, float, np.integer, np.floating))
        ):
            continue
        vcol = store.vprop_column(scan.label, p.prop)
        if not vcol.is_sorted:
            continue
        first, last = _KEY_SIDES[p.op]
        keys = vcol.col.values
        if first is not None:
            lo = max(lo, int(np.searchsorted(keys, p.value, first)))
        if last is not None:
            hi = min(hi, int(np.searchsorted(keys, p.value, last)))
    return lo, max(lo, hi)


def compile_lbp(
    store: GraphStore,
    spec: QuerySpec,
    *,
    scan_range: tuple[int, int] | None = None,
    block_size: int = BLOCK_SIZE,
) -> tuple[PhysScan, Operator]:
    steps = compile_logical(spec)
    ops: list[Operator] = []
    produced: set[str] = set()

    def ensure_vprop(var: str, prop: str) -> None:
        key = f"{var}.{prop}"
        if key in produced or var not in spec.vertices:
            return  # edge props are produced by their extend
        vcol = store.vprop_column(spec.vertices[var], prop)
        last = ops[-1]
        if isinstance(last, PhysBatchExtend) and last.out_var == var:
            last.vprop_reads.append((prop, vcol))
        else:
            ops.append(PhysVertexPropRead(var, prop, vcol))
        produced.add(key)

    def bind_return_props(var: str) -> None:
        # RETURN properties are gathered as soon as the variable is
        # bound: one vectorized gather per group instead of one per
        # downstream emit (the blocks ride along through every extend).
        if spec.returns == "count":
            return
        for v, prop in spec.returns:
            if v == var and v in spec.vertices:
                ensure_vprop(v, prop)

    for step in steps:
        if isinstance(step, ScanStep):
            lo, hi = scan_bounds(store, spec, scan_range, steps=steps)
            ops.append(
                PhysScan(
                    step.var, store.n_vertices[step.label],
                    block_size=block_size, lo=lo, hi=hi,
                )
            )
            bind_return_props(step.var)
        elif isinstance(step, ExtendStep):
            estore = store.edge(step.edge.label)
            eprops = needed_eprops(spec, step.edge.var) if step.edge.var else []
            for p in eprops:
                produced.add(f"{step.edge.var}.{p}")
            args = (
                step.src_var, step.out_var, step.edge.var, estore,
                step.direction, eprops,
            )
            if estore.storage_kind(step.direction) == "vcol":
                ops.append(PhysColumnExtend(*args))
            else:
                ops.append(PhysBatchExtend(*args, block_size=block_size))
            bind_return_props(step.out_var)
        elif isinstance(step, FilterStep):
            ensure_vprop(step.pred.var, step.pred.prop)
            if step.pred.rhs_var:
                ensure_vprop(step.pred.rhs_var, step.pred.rhs_prop)
            if isinstance(ops[-1], PhysBatchExtend):
                ops[-1].preds.append(step.pred)
            else:
                ops.append(PhysFilter(step.pred))
        else:
            raise TypeError(step)

    if spec.returns == "count":
        ops.append(CountSink())
    else:
        keys, names = [], []
        for var, prop in spec.returns:
            ensure_vprop(var, prop)
            keys.append(f"{var}.{prop}")
            names.append(f"{var}_{prop}")
        ops.append(CollectSink(keys, names))
    _plan_batches(ops)
    sink = _fuse_count(ops) or ops[-1]
    for a, b in zip(ops, ops[1:]):
        a.next = b
    return ops[0], sink


def _plan_batches(ops: list[Operator]) -> None:
    """Backward liveness, in place: each :class:`PhysBatchExtend`,
    :class:`PhysColumnExtend` and :class:`PhysFilter` hands on only the
    keys later operators read. An extend with no predicate whose
    out-vertex and edge nothing later reads keeps its lists unflat: it
    becomes a :class:`PhysCountListExtend` or a
    :class:`PhysCountColumnExtend`. This is the one place that decides
    so."""
    live: set[str] = set()
    for i in reversed(range(len(ops))):
        op = ops[i]
        if (
            isinstance(op, (PhysBatchExtend, PhysColumnExtend))
            and not getattr(op, "preds", None) and not live & _made(op)
        ):
            unflat = (
                PhysCountListExtend if isinstance(op, PhysBatchExtend)
                else PhysCountColumnExtend
            )
            ops[i] = op = unflat(op.src_var, op.estore, op.direction)
        if isinstance(op, PhysBatchExtend):
            live = op.plan(live)
        elif isinstance(op, PhysVertexPropRead):
            live = live - {op.key} | {op.var}
        elif isinstance(op, PhysColumnExtend):  # with the unflat one
            op.live = live
            live = live - _made(op) | {op.src_var}
        elif isinstance(op, PhysCountListExtend):
            op.live = live
            live = live | {op.src_var}
        elif isinstance(op, PhysFilter):
            op.live = live
            live = live | {op.lkey, op.rkey} - {None}
        elif isinstance(op, CollectSink):
            live = live | set(op.keys)


def _made(op: PhysBatchExtend | PhysColumnExtend) -> set[str]:
    """The keys extend ``op`` adds to its groups."""
    made = {op.out_var} | {f"{op.edge_var}.{p}" for p in op.eprops}
    reads = getattr(op, "vprop_reads", ())
    return made | {f"{op.out_var}.{p}" for p, _ in reads}


def _edge_lhs(p: Predicate, evar: str | None) -> Predicate:
    """``a.x OP e.y`` as ``e.y mirror(OP) a.x``, so edge ``evar`` is the
    left-hand side; other predicates as they are."""
    if (
        evar is not None and p.rhs_var == evar and p.var != evar
        and p.op in _MIRROR
    ):
        return Predicate(
            p.rhs_var, p.rhs_prop, _MIRROR[p.op],
            rhs_var=p.var, rhs_prop=p.prop,
        )
    return p


def _fuse_count(ops: list[Operator]) -> PhysExtendFilterCount | None:
    """Put a :class:`PhysExtendFilterCount` before the last ``k`` extends
    of a count(*) plan, in place, and return it; None when the plan is
    neither a band chain (:func:`_band_chain`: ``k`` counts the extends
    after the first, and the budget the edges of every extend) nor ends
    in a CSR extend whose predicates all compare its edge to literals
    (``k`` is 1, the budget its edges). It runs after
    :func:`_plan_batches`, so an extend without a predicate is already a
    :class:`PhysCountListExtend`. The extends stay in place as the
    counter's pipeline.
    """
    exts, last, sink = ops[1:-1], ops[-2], ops[-1]
    if (
        not isinstance(sink, CountSink)
        or not isinstance(last, PhysBatchExtend) or last.vprop_reads
    ):
        return None
    chain = _band_chain(exts)
    if chain is not None:
        hops, bands, floats = chain
        n_edges = sum(op.csr.n_edges for op in exts)
    elif all(p.var == last.edge_var and p.rhs_var is None for p in last.preds):
        hops, bands, floats = [last], [None], [False]
        n_edges = last.csr.n_edges
    else:
        return None
    counter = PhysExtendFilterCount(hops, bands, floats, n_edges, sink)
    ops.insert(len(ops) - 1 - len(hops), counter)
    return counter


def _band_chain(exts: list[Operator]):
    """``(hops, bands, floats)`` of :class:`PhysExtendFilterCount` when
    ``exts``, a plan's operators between scan and sink, are a band chain,
    else None: CSR extends, each from the previous one's out-vertex. The
    first one's predicates compare its edge to literals; each later
    one's compare its edge to a literal or, at most once per hop, a
    numeric property of its edge to one of the edge before it with
    ``<``, ``<=``, ``>`` or ``>=`` (a band). At least one band exists."""
    if (
        len(exts) < 2
        or not all(
            isinstance(op, PhysBatchExtend) and not op.vprop_reads
            for op in exts
        )
        or any(p.rhs_var or p.var != exts[0].edge_var for p in exts[0].preds)
    ):
        return None
    bands, floats = [], []
    for prev, op in zip(exts, exts[1:]):
        preds = [_edge_lhs(p, op.edge_var) for p in op.preds]
        hop_bands = [p for p in preds if p.rhs_var is not None]
        if (
            op.src_var != prev.out_var
            or any(p.var != op.edge_var for p in preds)
            or len(hop_bands) > 1
            or any(
                b.rhs_var != prev.edge_var or b.op not in _BAND
                for b in hop_bands
            )
        ):
            return None
        dtypes = {op.estore.label.prop(b.prop).dtype for b in hop_bands}
        dtypes |= {prev.estore.label.prop(b.rhs_prop).dtype for b in hop_bands}
        if "str" in dtypes:
            return None
        bands += hop_bands or [None]
        floats.append("float64" in dtypes)
    if all(b is None for b in bands):
        return None
    return exts[1:], bands, floats


#: float64 sums of integers are exact while they stay below 2^53.
_FLOAT_EXACT = 2.0 ** 53


def _propagate(targets, weights: np.ndarray, n_out: int) -> np.ndarray:
    """``out[t]`` = the sum of ``weights`` over the edges into ``t``.

    A float64 ``bincount`` while the hop's weight total stays below 2^53,
    where every partial sum is an integer float64 holds exactly; Python
    ints beyond that. The weights' total is also the output's, so the
    dtype is picked before any sum could lose precision.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if weights.dtype == np.float64:
        if float(weights.sum()) < _FLOAT_EXACT:
            return np.bincount(targets, weights=weights, minlength=n_out)
        weights = weights.astype(np.int64)  # each weight is below 2^53
    out = np.zeros(n_out, dtype=object)
    np.add.at(out, targets, weights.astype(object))
    return out


def _try_vectorized_count(
    store: GraphStore,
    spec: QuerySpec,
    scan_range: tuple[int, int] | None,
):
    """Fully-factorized count(*) of a predicate-free path query.

    With no predicates and count(*) output, the factorized count never
    needs tuples at all: it is the repeated product-of-list-sizes of
    §6.2, computed level by level as a weighted degree propagation
    (``w_next[nbr] += w[v]`` over each adjacency list). This is why the
    paper's GF-CL COUNT(*) runtimes barely grow with the hop count
    (Table 5). The count is exact up to the int64 range (see
    :func:`_propagate`); a larger one raises ``OverflowError``. Returns
    None when the plan shape doesn't apply.
    """
    if spec.returns != "count" or spec.predicates:
        return None
    steps = compile_logical(spec)
    prev_out = None
    for s in steps:
        if isinstance(s, ScanStep):
            prev_out = s.var
        elif isinstance(s, ExtendStep):
            if s.src_var != prev_out:  # star shapes use the general engine
                return None
            prev_out = s.out_var
        else:
            return None
    scan = steps[0]
    n0 = store.n_vertices[scan.label]
    lo, hi = scan_range if scan_range else (0, n0)
    w = np.zeros(n0, dtype=np.float64)
    w[lo:hi] = 1.0
    for s in steps[1:]:
        es = store.edge(s.edge.label)
        n_out = store.n_vertices[spec.vertices[s.out_var]]
        if es.storage_kind(s.direction) == "csr":
            csr = es.csr(s.direction)
            if csr.null_compress:
                # Offsets exist only for non-empty lists; their weights
                # are w restricted to the set bits, in position order.
                present = csr.index.unpack_all()
                lens = np.diff(csr.offsets)
                per_edge = np.repeat(w[present], lens)
            else:
                per_edge = np.repeat(w, np.diff(csr.offsets))
            w = _propagate(csr.nbr, per_edge, n_out)
        else:
            # Vertex column: the whole-column scan reads values directly
            # (compacted values align with the set bits, in order).
            col = es.nbr_vcol(s.direction).col
            if col._all_set:
                targets, weights = col.values, w
            elif col.mode == "uncompressed":
                # NULL cells hold 0; zero their weights instead of
                # gathering — one pass, no indirection (the vertex-column
                # advantage over CSR offsets, §8.4).
                present = col.index.unpack_all()
                targets, weights = col.values, w * present
            else:
                present = col.index.unpack_all()
                targets, weights = col.values, w[present]
            w = _propagate(targets, weights, n_out)
    total = int(w.sum())
    if total > np.iinfo(np.int64).max:
        raise OverflowError(f"{spec.name}: {total} paths exceed int64")
    return total


def run_lbp(
    store: GraphStore,
    spec: QuerySpec,
    *,
    scan_range: tuple[int, int] | None = None,
    block_size: int = BLOCK_SIZE,
):
    """Execute a spec; returns an int for count(*), else a DataFrame."""
    fast = _try_vectorized_count(store, spec, scan_range)
    if fast is not None:
        return fast
    scan, sink = compile_lbp(
        store, spec, scan_range=scan_range, block_size=block_size
    )
    scan.run()
    if isinstance(sink, CollectSink):
        return sink.result()
    return sink.count


def run_lbp_df(store: GraphStore, spec: QuerySpec, **kw) -> pd.DataFrame:
    """Like :func:`run_lbp` but always a DataFrame (count → one row
    ``cnt``), matching the oracle's SQL output shape."""
    res = run_lbp(store, spec, **kw)
    if isinstance(res, pd.DataFrame):
        return res
    return pd.DataFrame({"cnt": [res]})
