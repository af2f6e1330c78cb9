"""Spans and counters around calls into ``repro.storage`` and ``repro.proc``.

The traced run replaces each measured function at the name its caller
looks up: module functions in the calling module (``operators`` imports
``concat_ranges`` and the expression kernels by name, ``lbp`` looks up
``compile_lbp`` in its own globals) and methods on their class.
Nothing under ``src/`` is edited; :func:`installed` restores every
original on exit.

Each call records a span (name, start, end, parent span, query id). Spans
stay in memory until :meth:`Tracer.save`. A span's self time is its
duration minus the time its child spans cover; calls are synchronous and
single-threaded, so children never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from pathlib import Path

import numpy as np

from repro.proc import lbp, operators
from repro.storage.csr import CSR
from repro.storage.null_compression import JacobsonIndex
from repro.storage.property_pages import PropertyPages
from repro.storage.vertex_column import VertexColumn

#: Operators whose ``consume`` is traced, as ``(class, method, span)``.
#: ``PhysScan`` has no ``consume``; its ``run`` drives the pipeline.
OPERATORS = [
    ("PhysScan", "run", "PhysScan"),
    ("PhysVertexPropRead", "consume", "PhysVertexPropRead"),
    ("PhysListExtend", "consume", "PhysListExtend"),
    ("PhysColumnExtend", "consume", "PhysColumnExtend"),
    ("PhysBatchExtend", "consume", "PhysBatchExtend"),
    ("PhysFilter", "consume", "PhysFilter"),
    ("PhysExtendFilterCount", "consume", "PhysExtendFilterCount"),
    ("PhysCountListExtend", "consume", "PhysCountListExtend"),
    ("PhysCountColumnExtend", "consume", "PhysCountColumnExtend"),
    ("CountSink", "consume", "CountSink"),
    ("CollectSink", "consume", "CollectSink.consume"),
    ("CollectSink", "result", "CollectSink.result"),
]

RUN_LBP = "proc.run_lbp"


def _n_values(counts, name, args, out):
    counts[name + ".values"] += len(out[0])


def _n_lists(counts, name, args, out):
    counts[name + ".lists"] += len(args[1])


def _n_positions(counts, name, args, out):
    counts[name + ".values"] += len(args[1])


def _one_list(counts, name, args, out):
    counts[name + ".lists"] += 1


def _one_position(counts, name, args, out):
    counts[name + ".values"] += 1


def _n_mask(counts, name, args, out):
    counts[name + ".values"] += len(out)


def _contig(counts, name, args, out):
    if out[2].sum() > 0:
        counts[name + ".nonempty"] += 1
        counts[name + ".contig"] += out[1] is not None


def _targets():
    """(owner, attribute, span name, counter) of every traced call.

    The scalar ``CSR.range_of`` (one list, used by ``PhysListExtend``) and
    ``JacobsonIndex.rank_one`` count into the same metrics as their
    vectorized forms.
    """
    pages = "storage.property_pages."
    out = [
        (CSR, "ranges_of", "storage.csr.ranges_of", _n_lists),
        (CSR, "range_of", "storage.csr.ranges_of", _one_list),
        (PropertyPages, "read_fwd_range", pages + "read_fwd_range", _n_values),
        (PropertyPages, "read_fwd_positions", pages + "read_fwd_positions", _n_values),
        (PropertyPages, "read_at", pages + "read_at", _n_values),
        (VertexColumn, "get_many", "storage.vertex_column.get_many", _n_values),
        (JacobsonIndex, "rank", "storage.null_compression.rank", _n_positions),
        (JacobsonIndex, "rank_one", "storage.null_compression.rank", _one_position),
        (lbp, "compile_lbp", "proc.lbp.compile_lbp", None),
        (operators, "concat_ranges", "proc.operators.concat_ranges", _contig),
        (operators, "eval_block_vs_literal", "proc.expressions.vs_literal", _n_mask),
        (operators, "eval_block_vs_block", "proc.expressions.vs_block", _n_mask),
    ]
    for cls_name, method, span in OPERATORS:
        out.append((getattr(operators, cls_name), method, "proc.operators." + span, None))
    return out


class Tracer:
    """In-memory span recorder with per-name self time, calls and counts."""

    def __init__(self) -> None:
        self.query = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, in start order.
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self.span_query: list[int] = []
        self._stack: list[list[int]] = []  # [span index, child-covered ns]
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call under ``name``."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter_ns
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_query = self.span_parent, self.span_query
        self_ns, calls, counts = self.self_ns, self.calls, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(s_name)
            frame = [idx, 0]
            s_name.append(nid)
            s_parent.append(parent[0] if parent else -1)
            s_query.append(self.query)
            s_end.append(0)
            stack.append(frame)
            start = clock()
            s_start.append(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                s_end[idx] = end
                self_ns[name] += end - start - frame[1]
                calls[name] += 1
                if parent is not None:
                    parent[1] += end - start
            if count is not None:
                count(counts, name, args, out)
            return out

        return traced

    def save(self, path: Path, meta: dict) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            start_ns=np.array(self.span_start, dtype=np.int64),
            end_ns=np.array(self.span_end, dtype=np.int64),
            parent=np.array(self.span_parent, dtype=np.int64),
            query=np.array(self.span_query, dtype=np.int64),
            meta=np.array(repr(meta)),
        )


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every traced callable by its wrapper; restore on exit.
    A callable the engine no longer has raises ``AttributeError``, so a
    renamed layer cannot silently read 0."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            original = vars(owner).get(attr)
            if original is None:
                raise AttributeError(
                    f"traced layer {name}: {owner.__name__}.{attr} not found"
                )
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    """``num / den``; 0.0 when the workload never reaches the layer."""
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, compiled_counts: int, counts: int) -> dict:
    """The traced run's per-layer metrics as ``{name: (value, unit)}``.

    ``compiled_counts`` of the ``counts`` count(*) queries went through
    ``compile_lbp``; the rest were answered by the vectorized count.
    """
    s = {n: v / 1e9 for n, v in tracer.self_ns.items()}
    c, k = tracer.calls, tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def timed(name, *, calls=False, values=None):
        out[name + ".self_s"] = (s.get(name, 0.0), "s")
        if calls:
            out[name + ".calls"] = (c[name], "count")
        if values:
            out[f"{name}.{values}"] = (k[f"{name}.{values}"], "count")

    pages = "storage.property_pages."
    timed("storage.csr.ranges_of", calls=True, values="lists")
    for read in ("read_fwd_range", "read_fwd_positions", "read_at"):
        timed(pages + read, values="values")
    seq = k[pages + "read_fwd_range.values"] + k[pages + "read_fwd_positions.values"]
    out[pages + "seq_share"] = (
        _ratio(seq, seq + k[pages + "read_at.values"]),
        "ratio",
    )
    timed("storage.vertex_column.get_many", values="values")
    timed("storage.null_compression.rank", calls=True, values="values")
    timed("proc.lbp.compile_lbp", calls=True)
    out["proc.lbp.vectorized_count_ratio"] = (
        _ratio(counts - compiled_counts, counts),
        "ratio",
    )
    cr = "proc.operators.concat_ranges"
    timed(cr)
    out[cr + ".contig_ratio"] = (_ratio(k[cr + ".contig"], k[cr + ".nonempty"]), "ratio")
    for _, _, span in OPERATORS:
        timed("proc.operators." + span, calls=True)
    timed("proc.expressions.vs_literal", values="values")
    timed("proc.expressions.vs_block", values="values")
    timed(RUN_LBP)
    return out
