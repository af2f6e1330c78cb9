"""Adapted JOB queries 1a–33a (Table 6c): oracle-checked on LBP; a
sample on the Volcano baselines."""
import dataclasses
from collections import Counter

import pytest

from repro.bench.queries_job import JOB_QUERIES
from repro.oracle import assert_equivalent
from repro.util import pandas_to_spark
from repro.proc import expressions, operators
from repro.proc.lbp import run_lbp, run_lbp_df
from repro.proc.plan import Predicate as Pr
from repro.proc.plan import to_sql
from repro.proc.volcano import ColumnarAdapter, run_volcano_df


@pytest.mark.parametrize("spec", JOB_QUERIES, ids=lambda s: s.name)
def test_job_lbp_vs_oracle(spark, imdb, imdb_store, spec):
    got = run_lbp_df(imdb_store, spec)
    sql = to_sql(spec, imdb.schema)
    assert_equivalent(pandas_to_spark(spark, got), sql, **imdb.sql_tables())


@pytest.mark.parametrize(
    "spec",
    [q for q in JOB_QUERIES if q.name in ("1a", "7a", "11a", "20a", "29a", "33a")],
    ids=lambda s: s.name,
)
def test_job_volcano_vs_oracle(spark, imdb, imdb_store, spec):
    got = run_volcano_df(ColumnarAdapter(imdb_store), spec)
    sql = to_sql(spec, imdb.schema)
    assert_equivalent(pandas_to_spark(spark, got), sql, **imdb.sql_tables())


def test_query_set_complete():
    assert len(JOB_QUERIES) == 33
    assert [q.name for q in JOB_QUERIES] == [f"{i}a" for i in range(1, 34)]


def test_all_job_queries_are_counts():
    assert all(q.returns == "count" for q in JOB_QUERIES)


def test_star_joins_share_center():
    # JOB queries are stars around `t` (except 33a, around t1/t2).
    for q in JOB_QUERIES:
        if q.name == "33a":
            continue
        assert all("t" in (e.src, e.dst) or e.src == "n" for e in q.edges), q.name


def _job(name):
    return next(q for q in JOB_QUERIES if q.name == name)


def test_dictionary_mask_once_per_predicate_per_query(imdb_store, monkeypatch):
    # 3a filters k.keyword CONTAINS and mi.info = on dictionary-coded
    # out-vertex columns. At block_size=64 each predicate evaluates its
    # dictionary once per query: the 800-row movie_info column is never
    # reached, so mi.info gathers that mask through the codes of several
    # blocks; the 12-row keyword column is passed on the first block,
    # so k.keyword is evaluated once over the whole column, and no block
    # is evaluated after that.
    spec = _job("3a")
    masks, blocks, columns = Counter(), Counter(), Counter()
    building = []
    real_mask = expressions.dictionary_mask
    real_eval = operators.eval_block_vs_literal
    real_column = operators.PhysBatchExtend._column_mask

    def counting_mask(op, dictionary, lit):
        masks[op, lit] += 1
        return real_mask(op, dictionary, lit)

    def counting_eval(op, block, lit, *args, **kwargs):
        if block.dictionary is not None:
            assert not columns[op, lit], "a block evaluated after its column"
            (columns if building else blocks)[op, lit] += 1
        return real_eval(op, block, lit, *args, **kwargs)

    def counting_column(self, st):
        building.append(st)
        try:
            return real_column(self, st)
        finally:
            building.pop()

    monkeypatch.setattr(expressions, "dictionary_mask", counting_mask)
    monkeypatch.setattr(operators, "eval_block_vs_literal", counting_eval)
    monkeypatch.setattr(operators.PhysBatchExtend, "_column_mask", counting_column)
    dict_preds = {("contains", "sequel"), ("=", "Sweden")}
    for runs in (1, 2):
        columns.clear()
        run_lbp(imdb_store, spec, block_size=64)
        assert set(blocks) | set(columns) == dict_preds
        assert blocks["=", "Sweden"] > 2 * runs
        assert columns == Counter({("contains", "sequel"): 1})
        assert masks == Counter({k: runs for k in dict_preds})


def test_same_template_different_literals_match_oracle(spark, imdb, imdb_store):
    # A dictionary mask must not outlive its query: the second run reuses
    # the columns of the first with other literals.
    spec = _job("3a")
    year = spec.predicates[0]
    counts = []
    for keyword, info in (("sequel", "Sweden"), ("e", "Germany")):
        s = dataclasses.replace(spec, predicates=[
            year,
            Pr("k", "keyword", "contains", keyword),
            Pr("mi", "info", "=", info),
        ])
        got = run_lbp_df(imdb_store, s, block_size=64)
        assert_equivalent(
            pandas_to_spark(spark, got), to_sql(s, imdb.schema),
            **imdb.sql_tables(),
        )
        counts.append(int(got["cnt"][0]))
    assert counts[0] != counts[1]
