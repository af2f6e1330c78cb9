"""Predicate evaluation — scalar and vectorized, NULL semantics."""
import numpy as np
import pytest

from repro.proc import expressions
from repro.proc.chunk import Block
from repro.proc.expressions import (
    eval_block_vs_block,
    eval_block_vs_literal,
    scalar_op,
)

OPS_TRUE = [
    ("=", 3, 3), ("<>", 3, 4), ("<", 1, 2), ("<=", 2, 2), (">", 5, 4),
    (">=", 4, 4), ("contains", "abcd", "bc"), ("startswith", "abcd", "ab"),
    ("in", "x", ["x", "y"]),
]
OPS_FALSE = [
    ("=", 3, 4), ("<>", 3, 3), ("<", 2, 1), ("<=", 3, 2), (">", 4, 5),
    (">=", 3, 4), ("contains", "abcd", "xz"), ("startswith", "abcd", "cd"),
    ("in", "z", ["x", "y"]),
]


@pytest.mark.parametrize("op,l,r", OPS_TRUE)
def test_scalar_true(op, l, r):
    assert scalar_op(op, l, r) is True


@pytest.mark.parametrize("op,l,r", OPS_FALSE)
def test_scalar_false(op, l, r):
    assert scalar_op(op, l, r) is False


@pytest.mark.parametrize("op", ["=", "<", "contains", "in"])
def test_scalar_null_is_false(op):
    assert scalar_op(op, None, "x") is False
    assert scalar_op(op, "x", None) is False


def test_scalar_unknown_op():
    with pytest.raises(ValueError):
        scalar_op("like", 1, 2)


class TestBlockVsLiteral:
    def test_numeric_comparison(self):
        b = Block(np.array([1, 5, 10]))
        assert list(eval_block_vs_literal(">", b, 4)) == [False, True, True]

    def test_null_rows_false(self):
        b = Block(np.array([5, 5]), np.array([False, True]))
        assert list(eval_block_vs_literal("=", b, 5)) == [True, False]

    def test_contains_on_strings(self):
        b = Block(np.array(["alpha", "beta", None], dtype=object),
                  np.array([False, False, True]))
        assert list(eval_block_vs_literal("contains", b, "a")) == [
            True, True, False,
        ]

    def test_startswith(self):
        b = Block(np.array(["abc", "xbc"], dtype=object))
        assert list(eval_block_vs_literal("startswith", b, "ab")) == [
            True, False,
        ]

    def test_in(self):
        b = Block(np.array(["a", "b", "c"], dtype=object))
        assert list(eval_block_vs_literal("in", b, ["a", "c"])) == [
            True, False, True,
        ]

    def test_dictionary_coded_evaluates_on_dictionary(self):
        # codes over dictionary ['ab', 'cd']; code 2 = NULL
        b = Block(
            np.array([0, 1, 0, 2]),
            np.array([False, False, False, True]),
            dictionary=np.array(["ab", "cd"], dtype=object),
        )
        assert list(eval_block_vs_literal("contains", b, "a")) == [
            True, False, True, False,
        ]
        assert list(eval_block_vs_literal("=", b, "cd")) == [
            False, True, False, False,
        ]


# A raw (non-dictionary) string column with NULLs, non-ASCII values, an
# empty string and values that contain or start with the literals.
RAW = [
    "Ångström", None, "naïve café", "", "東京タワー (Japan)", "(co-production)",
    "café", None, "CAFÉ", "tower", "東京",
]
RAW_CASES = [
    ("contains", "café"), ("contains", "(Japan)"), ("contains", ""),
    ("contains", "x"), ("startswith", "東京"), ("startswith", "Å"),
    ("startswith", ""), ("startswith", "café"), ("in", ["café", "東京"]),
    ("in", ["Ångström", "", "nope"]), ("in", []),
]


def _raw_block():
    return Block(np.array(RAW, dtype=object), np.array([v is None for v in RAW]))


@pytest.mark.parametrize("op,lit", RAW_CASES)
def test_raw_string_matches_scalar_op(op, lit):
    got = eval_block_vs_literal(op, _raw_block(), lit)
    assert got.dtype == bool
    assert list(got) == [scalar_op(op, v, lit) for v in RAW]


@pytest.mark.parametrize("op,lit", RAW_CASES[:8])
def test_raw_string_literal_on_the_left_matches_scalar_op(op, lit):
    # A one-valued left operand is a block of that value repeated over
    # the group, compared row by row with the list on the right.
    left = Block(np.array([lit] * len(RAW), dtype=object))
    got = eval_block_vs_block(op, left, _raw_block())
    assert list(got) == [scalar_op(op, lit, v) for v in RAW]


@pytest.mark.parametrize("op,lit", RAW_CASES)
def test_dictionary_block_matches_raw_block(op, lit):
    dictionary = np.array(sorted({v for v in RAW if v is not None}), dtype=object)
    codes = np.array([
        len(dictionary) if v is None else list(dictionary).index(v) for v in RAW
    ], dtype=np.uint8)
    blk = Block(codes, np.array([v is None for v in RAW]), dictionary)
    assert list(eval_block_vs_literal(op, blk, lit)) == [
        scalar_op(op, v, lit) for v in RAW
    ]


def test_raw_string_all_null_block():
    b = Block(np.array(["a", "b"], dtype=object), np.array([True, True]))
    assert not eval_block_vs_literal("contains", b, "a").any()


class TestDictionaryMemo:
    def _blocks(self):
        d = np.array(["apple", "apricot", "pear"], dtype=object)
        return [
            Block(np.array([0, 1, 2], dtype=np.uint8), None, d),
            Block(np.array([2, 3, 1], dtype=np.uint8),
                  np.array([False, True, False]), d),
        ]

    def test_mask_computed_once_per_memo(self, monkeypatch):
        calls = []
        real = expressions.dictionary_mask

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(expressions, "dictionary_mask", counting)
        memo: dict = {}
        first, second = self._blocks()
        assert list(
            eval_block_vs_literal("startswith", first, "ap", memo)
        ) == [True, True, False]
        assert list(
            eval_block_vs_literal("startswith", second, "ap", memo)
        ) == [False, False, True]
        assert len(calls) == 1
        # Without a memo every block evaluates the dictionary again.
        eval_block_vs_literal("startswith", first, "ap")
        eval_block_vs_literal("startswith", second, "ap")
        assert len(calls) == 3

    def test_null_literal_is_false(self):
        first, _ = self._blocks()
        assert not eval_block_vs_literal("=", first, None).any()


class TestBlockVsBlock:
    def test_numeric(self):
        l = Block(np.array([1, 5, 7]))
        r = Block(np.array([2, 5, 3]))
        assert list(eval_block_vs_block(">", l, r)) == [False, False, True]
        assert list(eval_block_vs_block("=", l, r)) == [False, True, False]

    def test_nulls_either_side_false(self):
        l = Block(np.array([1, 5]), np.array([True, False]))
        r = Block(np.array([0, 5]), np.array([False, True]))
        assert list(eval_block_vs_block("=", l, r)) == [False, False]

    def test_object_fallback(self):
        l = Block(np.array(["b", "a"], dtype=object))
        r = Block(np.array(["a", "b"], dtype=object))
        assert list(eval_block_vs_block(">", l, r)) == [True, False]
