"""Blocks and list groups (§6.1)."""
import numpy as np

from repro.proc.chunk import Block, ListGroup


class TestBlock:
    def test_take(self):
        b = Block(np.array([1, 2, 3]), np.array([False, True, False]))
        t = b.take(np.array([True, False, True]))
        assert list(t.data) == [1, 3]
        assert list(t.nulls) == [False, False]

    def test_decoded_plain(self):
        b = Block(np.array([1, 2]))
        assert list(b.decoded()) == [1, 2]

    def test_decoded_with_nulls(self):
        b = Block(np.array([1, 2]), np.array([False, True]))
        assert list(b.decoded()) == [1, None]

    def test_decoded_dictionary(self):
        b = Block(
            np.array([1, 0, 1]),
            np.array([False, False, True]),
            dictionary=np.array(["x", "y"], dtype=object),
        )
        assert list(b.decoded()) == ["y", "x", None]



class TestListGroup:
    def test_take_keeps_blocks_aligned(self):
        g = ListGroup(
            {"a": Block(np.array([10, 20, 30])),
             "a.x": Block(np.array([1, 2, 3]), np.array([False, True, False]))},
            3,
        )
        t = g.take(np.array([False, True, True]))
        assert t.size == 2
        assert list(t.blocks["a"].data) == [20, 30]
        assert list(t.blocks["a.x"].decoded()) == [None, 3]
        assert g.size == 3 and list(g.blocks["a"].data) == [10, 20, 30]
