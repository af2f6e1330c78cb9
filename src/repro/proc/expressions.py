"""Predicate evaluation, vectorized (LBP) and scalar (Volcano).

Operators: ``=``, ``<>``, ``<``, ``<=``, ``>``, ``>=``, ``contains``,
``startswith``, ``in``. NULL operands make a predicate false (SQL
semantics, matching the DuckDB oracle).

On dictionary-encoded blocks, value-level predicates against a literal
are evaluated **on the dictionary** (z values, plus a False NULL slot)
and broadcast through the codes with one gather — the paper's
operate-on-compressed-data path (§5.1). The dictionary mask is computed
once per operator per query: a compiled operator passes a memo dict to
:func:`eval_block_vs_literal`, which keeps the mask of each dictionary
it has met, so every later block costs only the gather. The memo lives
in the compiled plan and dies with the query.

Everything else is evaluated on the block's values with NULLs masked
out first: numpy ufuncs for comparisons, and one Python string or
membership test per non-NULL value for ``contains`` / ``startswith`` /
``in``, with the semantics of :func:`scalar_op`.
"""
from __future__ import annotations

import numpy as np

from repro.proc.chunk import Block

OPS = ("=", "<>", "<", "<=", ">", ">=", "contains", "startswith", "in")

_COMPARE = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def scalar_op(op: str, left, right) -> bool:
    """Tuple-at-a-time evaluation (the Volcano path)."""
    if left is None or right is None:
        return False
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "contains":
        return str(right) in str(left)
    if op == "startswith":
        return str(left).startswith(str(right))
    if op == "in":
        return left in right
    raise ValueError(f"unknown op {op!r}")


def _match(op: str, vals: np.ndarray, lit) -> np.ndarray:
    """``contains`` / ``startswith`` / ``in`` over non-NULL values, one
    Python test per value, exactly as :func:`scalar_op` decides it."""
    xs = vals.tolist()
    if op == "contains":
        s = str(lit)
        hits = [s in str(x) for x in xs]
    elif op == "startswith":
        s = str(lit)
        hits = [str(x).startswith(s) for x in xs]
    elif op == "in":
        hits = [x in lit for x in xs]
    else:
        raise ValueError(f"unknown op {op!r}")
    return np.array(hits, dtype=bool)


def _apply(op: str, vals: np.ndarray, lit) -> np.ndarray:
    """``vals OP lit`` over non-NULL values."""
    fn = _COMPARE.get(op)
    if fn is None:
        return _match(op, vals, lit)
    return fn(vals, lit)


def dictionary_mask(op: str, dictionary: np.ndarray, lit):
    """The predicate over the z dictionary values plus a False NULL slot
    at index z, ready to gather through a block's codes."""
    out = np.zeros(len(dictionary) + 1, dtype=bool)
    out[:-1] = _apply(op, dictionary, lit)
    return out


def eval_block_vs_literal(
    op: str,
    block: Block,
    lit,
    memo: dict | None = None,
) -> np.ndarray:
    """Boolean mask of ``block OP lit``; NULL rows are False.

    Dictionary-coded blocks gather a :func:`dictionary_mask` through
    their codes. ``memo`` — one dict per literal predicate, owned by the
    compiled operator — keeps that mask per dictionary, so it is
    computed on the first block only; pass it only when ``lit`` is the
    same on every call.
    """
    if lit is None:
        return np.zeros(len(block), dtype=bool)
    d = block.dictionary
    if d is not None:
        entry = None if memo is None else memo.get(id(d))
        if entry is None:
            # The entry holds ``d`` itself so that its id stays unique.
            entry = (d, dictionary_mask(op, d, lit))
            if memo is not None:
                memo[id(d)] = entry
        codes = block.data
        if block.nulls is not None:
            codes = np.where(block.nulls, len(d), codes)
        return entry[1][codes]
    if block.nulls is None:
        return _apply(op, block.data, lit)
    out = np.zeros(len(block), dtype=bool)
    nn = ~block.nulls
    if nn.any():
        out[nn] = _apply(op, block.data[nn], lit)
    return out


def eval_block_vs_block(op: str, left: Block, right: Block) -> np.ndarray:
    """Both operands in the same group (list/list case, §6.2)."""
    lv, rv = left.decoded(), right.decoded()
    n = len(lv)
    nn = np.ones(n, dtype=bool)
    if left.nulls is not None:
        nn &= ~left.nulls
    if right.nulls is not None:
        nn &= ~right.nulls
    out = np.zeros(n, dtype=bool)
    if nn.any():
        if lv.dtype != object and rv.dtype != object and op in _COMPARE:
            out[nn] = _COMPARE[op](lv[nn], rv[nn])
        else:
            out[nn] = np.array(
                [scalar_op(op, a, b) for a, b in zip(lv[nn], rv[nn])],
                dtype=bool,
            )
    return out
