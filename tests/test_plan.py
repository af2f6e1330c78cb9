"""Plan compilation and SQL generation."""
import duckdb
import pandas as pd
import pytest

from repro.proc.plan import (
    ExtendStep,
    FilterStep,
    Predicate,
    QueryEdge,
    QuerySpec,
    ScanStep,
    compile_logical,
    needed_eprops,
    to_sql,
)
from repro.proc.expressions import scalar_op


def _spec(**kw):
    base = dict(
        name="q",
        vertices={"a": "Person", "b": "Person", "c": "Comment"},
        edges=[QueryEdge("a", "b", "knows", "k"),
               QueryEdge("c", "b", "hasCreator")],
        predicates=[Predicate("a", "id", "=", 3),
                    Predicate("k", "date", ">", 5),
                    Predicate("c", "creationDate", "<", 9)],
        returns="count",
    )
    base.update(kw)
    return QuerySpec(**base)


class TestCompileLogical:
    def test_left_deep_structure(self):
        steps = compile_logical(_spec(join_order=["a", "b", "c"]))
        kinds = [type(s).__name__ for s in steps]
        assert kinds == [
            "ScanStep", "FilterStep", "ExtendStep", "FilterStep",
            "ExtendStep", "FilterStep",
        ]
        assert steps[0].var == "a"

    def test_directions(self):
        steps = compile_logical(_spec(join_order=["a", "b", "c"]))
        extends = [s for s in steps if isinstance(s, ExtendStep)]
        assert extends[0].direction == "fwd"  # a -knows-> b from a
        assert extends[1].direction == "bwd"  # c -hasCreator-> b from b
        assert extends[1].out_var == "c"

    def test_reverse_join_order(self):
        steps = compile_logical(_spec(join_order=["c", "b", "a"]))
        assert steps[0].var == "c"
        extends = [s for s in steps if isinstance(s, ExtendStep)]
        assert extends[0].direction == "fwd"  # c -hasCreator-> b
        assert extends[1].direction == "bwd"  # b <- knows - a

    def test_filters_apply_as_soon_as_bound(self):
        steps = compile_logical(_spec(join_order=["a", "b", "c"]))
        # a.id filter right after scan.
        assert isinstance(steps[1], FilterStep)
        assert steps[1].pred.var == "a"

    def test_edge_var_filter_waits_for_extend(self):
        steps = compile_logical(_spec(join_order=["c", "b", "a"]))
        # k.date filter must come after knows is extended (last).
        idx_f = [i for i, s in enumerate(steps)
                 if isinstance(s, FilterStep) and s.pred.var == "k"][0]
        idx_e = [i for i, s in enumerate(steps)
                 if isinstance(s, ExtendStep) and s.edge.label == "knows"][0]
        assert idx_f > idx_e

    def test_edgeless_pattern(self):
        spec = QuerySpec(
            "s", {"c": "Comment"}, [], [Predicate("c", "id", "=", 1)],
            [("c", "id")],
        )
        steps = compile_logical(spec)
        assert isinstance(steps[0], ScanStep) and len(steps) == 2

    def test_disconnected_pattern_asserts(self):
        spec = QuerySpec(
            "bad", {"a": "Person", "b": "Person", "x": "Post", "y": "Tag"},
            [QueryEdge("a", "b", "knows"), QueryEdge("x", "y", "hasTag")],
            [], "count",
        )
        with pytest.raises(AssertionError):
            compile_logical(spec)


class TestNeededEprops:
    def test_from_predicates_and_returns(self):
        spec = _spec(returns=[("k", "date"), ("b", "fName")])
        assert needed_eprops(spec, "k") == ["date"]

    def test_rhs_reference(self):
        spec = _spec(predicates=[
            Predicate("k", "date", ">", None, rhs_var="k", rhs_prop="date2"),
        ])
        assert needed_eprops(spec, "k") == ["date", "date2"]

    def test_none_for_unreferenced(self):
        spec = _spec(predicates=[], returns="count")
        assert needed_eprops(spec, "k") == []


class TestSQL:
    def test_count_query(self):
        sql = to_sql(_spec())
        assert sql.startswith("SELECT COUNT(*) AS cnt FROM v_Person AS a")
        assert "JOIN e_knows AS k ON k.src = a._id" in sql
        assert "k.date > 5" in sql
        assert "a.id = 3" in sql

    def test_projection_aliases(self):
        spec = _spec(returns=[("b", "fName"), ("k", "date")], predicates=[])
        sql = to_sql(spec)
        assert "b.fName AS b_fName" in sql
        assert "k.date AS k_date" in sql

    def test_contains_becomes_like(self):
        spec = _spec(predicates=[Predicate("b", "fName", "contains", "an")])
        sql = to_sql(spec)
        assert "b.fName LIKE '%an%'" in sql

    def test_startswith_like(self):
        spec = _spec(predicates=[Predicate("b", "fName", "startswith", "A")])
        assert "LIKE 'A%'" in to_sql(spec)

    def test_in_list(self):
        spec = _spec(predicates=[Predicate("b", "fName", "in", ["x", "y"])])
        assert "b.fName IN ('x', 'y')" in to_sql(spec)

    def test_quote_escaping(self):
        spec = _spec(predicates=[Predicate("b", "fName", "=", "O'Neil")])
        assert "'O''Neil'" in to_sql(spec)

    def test_like_metachar_rejected(self):
        spec = _spec(predicates=[Predicate("b", "fName", "contains", "5%")])
        with pytest.raises(AssertionError):
            to_sql(spec)

    def test_prop_vs_prop(self):
        spec = _spec(predicates=[
            Predicate("k", "date", ">", None, rhs_var="b", rhs_prop="id"),
        ])
        assert "k.date > b.id" in to_sql(spec)

    @pytest.mark.parametrize("op", ["contains", "startswith"])
    def test_string_op_between_props_runs_in_duckdb(self, op):
        """The rendered predicate keeps exactly the pairs scalar_op keeps,
        on empty, NULL, non-ASCII and longer-than-lhs operands."""
        pairs = [
            ("abc", "b"), ("abc", "a"), ("abc", "c"), ("abc", ""), ("", ""),
            ("", "a"), ("ab", "abc"), ("héllo", "hé"), ("héllo", "llo"),
            ("héllo", "é"), (None, "a"), ("a", None), (None, None),
        ]
        con = duckdb.connect()
        con.register("v_T", pd.DataFrame({
            "_id": range(2 * len(pairs)), "s": [x for p in pairs for x in p],
        }))
        con.register("e_r", pd.DataFrame({
            "src": range(0, 2 * len(pairs), 2),
            "dst": range(1, 2 * len(pairs), 2),
        }))
        spec = QuerySpec(
            "q", {"a": "T", "b": "T"}, [QueryEdge("a", "b", "r")],
            [Predicate("a", "s", op, rhs_var="b", rhs_prop="s")],
            [("a", "s"), ("b", "s")], ["a", "b"],
        )
        got = con.execute(to_sql(spec)).fetchall()
        con.close()
        assert sorted(got) == sorted(p for p in pairs if scalar_op(op, *p))

    def test_in_against_a_prop_rejected(self):
        spec = _spec(predicates=[
            Predicate("a", "fName", "in", rhs_var="b", rhs_prop="lName"),
        ])
        with pytest.raises(ValueError):
            to_sql(spec)
