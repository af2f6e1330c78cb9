"""Synthetic dataset generators: shape, determinism, sparsity knobs."""
import numpy as np
import pytest

from repro.graphs.datasets import flickr_like, imdb_lite, ldbc_lite, wiki_like


class TestLdbcLite:
    def test_label_counts_match_snb_shape(self, ldbc):
        assert len(ldbc.schema.vertices) == 8
        assert len(ldbc.schema.edges) == 17

    def test_single_cardinality_share(self, ldbc):
        single = [
            e for e in ldbc.schema.edges.values() if e.cardinality != "n-n"
        ]
        assert len(single) >= 8  # as in LDBC SNB (8 of 15)

    def test_validates(self, ldbc):
        ldbc.validate()

    def test_deterministic(self):
        a = ldbc_lite(sf=0.01, seed=9)
        b = ldbc_lite(sf=0.01, seed=9)
        assert a.etables["knows"].equals(b.etables["knows"])
        assert a.vtables["Person"].equals(b.vtables["Person"])

    def test_seed_changes_data(self):
        a = ldbc_lite(sf=0.01, seed=1)
        b = ldbc_lite(sf=0.01, seed=2)
        assert not a.etables["knows"].equals(b.etables["knows"])

    def test_scales_linearly(self):
        small = ldbc_lite(sf=0.01)
        big = ldbc_lite(sf=0.02)
        assert 1.5 < len(big.etables["knows"]) / len(small.etables["knows"]) < 2.5

    def test_replyof_half_empty(self):
        # ~50% of Comments have no replyOf edge (Table 4's 50.5%).
        data = ldbc_lite(sf=0.1)
        frac = len(data.etables["replyOf"]) / data.n_vertices("Comment")
        assert 0.4 < frac < 0.6

    def test_comment_date_null_knob(self):
        data = ldbc_lite(sf=0.05, comment_date_null_frac=0.3)
        frac = data.vtables["Comment"]["creationDate"].isna().mean()
        assert 0.2 < frac < 0.4

    def test_knows_power_law(self):
        data = ldbc_lite(sf=0.1)
        indeg = data.etables["knows"]["dst"].value_counts()
        assert indeg.iloc[0] > 5 * indeg.median()

    def test_ids_equal_offsets(self, ldbc):
        t = ldbc.vtables["Person"]
        assert (t["id"] == t["_id"]).all()


class TestImdbLite:
    def test_labels(self, imdb):
        assert len(imdb.schema.vertices) == 9
        assert len(imdb.schema.edges) == 9

    def test_validates(self, imdb):
        imdb.validate()

    def test_relationship_edges_are_nn(self, imdb):
        for name in ("movie_companies", "cast_info", "movie_keyword",
                     "movie_link"):
            assert imdb.schema.edges[name].cardinality == "n-n"

    def test_fk_edges_are_1n(self, imdb):
        for name in ("has_movie_info", "has_mov_info_2", "has_aka_name",
                     "has_person_info", "has_complete_cast"):
            assert imdb.schema.edges[name].cardinality == "1-n"

    def test_sparse_string_edge_props(self, imdb):
        # >50% NULLs on cast_info.note, like 7 of 12 IMDb edge props.
        frac = imdb.etables["cast_info"]["note"].isna().mean()
        assert frac > 0.5

    def test_query_literals_exist(self, imdb):
        kws = set(imdb.vtables["keyword"]["keyword"])
        assert {"character-name-in-title", "murder", "superhero"} <= kws
        assert "[de]" in set(imdb.vtables["company_name"]["country_code"])
        assert "Shrek 2" in set(imdb.vtables["title"]["title"])

    def test_info_coupled_to_info_type(self, imdb):
        mi = imdb.vtables["movie_info"]
        countries = mi[mi.info_type == "countries"]["info"]
        assert set(countries) <= {
            "USA", "Germany", "Sweden", "Japan", "France", "Poland",
        }


class TestKonectLike:
    def test_degree_targets(self):
        w = wiki_like(sf=0.2)
        f = flickr_like(sf=0.2)
        wd = len(w.etables["link"]) / w.n_vertices("node")
        fd = len(f.etables["link"]) / f.n_vertices("node")
        assert abs(wd - 41) < 2  # paper: 41
        assert abs(fd - 14) < 2  # paper: 14

    def test_validates(self, wiki, flickr):
        wiki.validate()
        flickr.validate()

    def test_edge_timestamp_prop(self, wiki):
        assert "timestamp" in wiki.etables["link"].columns


class TestGraphDataHelpers:
    def test_sql_tables_naming(self, ldbc):
        tables = ldbc.sql_tables()
        assert "v_Person" in tables and "e_knows" in tables

    def test_validate_catches_cardinality_violation(self, ldbc):
        import copy

        import pandas as pd

        broken = copy.copy(ldbc)
        broken.etables = dict(ldbc.etables)
        t = ldbc.etables["hasCreator"]
        broken.etables["hasCreator"] = pd.concat(
            [t, t.iloc[[0]]], ignore_index=True
        )
        with pytest.raises(AssertionError):
            broken.validate()
