"""Synthetic property graphs shaped like the paper's datasets (§8.1).

- :func:`ldbc_lite` — LDBC SNB-shaped: 8 vertex labels, 17 edge labels
  (8 of them single-cardinality, as in SNB), structured properties,
  sparse ``replyOf`` (≈50% of Comments have none — the Table 4 column),
  power-law ``knows``.
- :func:`imdb_lite` — IMDb/JOB-shaped after the paper's relational →
  property-graph conversion: entity vertices, n-n relationship edges
  with sparse string properties, 1-n foreign-key edges to denormalized
  info vertices. Value domains contain exactly the literals the adapted
  JOB queries use.
- :func:`flickr_like` / :func:`wiki_like` — single-label digraphs with
  Zipf-ish degree skew and an integer ``timestamp`` edge property.

All generators are deterministic in ``seed`` and scale linearly in
``sf``. Absolute sizes are far below the paper's (laptop-scale); the
experiments compare ratios/shape, not absolute numbers.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.graphs.data import GraphData
from repro.graphs.schema import GraphSchema, PropSpec

P = PropSpec


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _zipf_targets(g, n_edges: int, n_targets: int, alpha: float = 0.9):
    ranks = np.arange(1, n_targets + 1)
    w = 1.0 / ranks**alpha
    w /= w.sum()
    return g.choice(n_targets, size=n_edges, p=w)


def _names(g, n: int, pool: list[str]) -> np.ndarray:
    a = g.choice(pool, n)
    b = g.choice(pool, n)
    return np.array([f"{x} {y}" for x, y in zip(a, b)], dtype=object)


def _with_nulls(g, values: np.ndarray, frac: float) -> pd.Series:
    s = pd.Series(values, dtype=object if values.dtype == object else None)
    if frac > 0:
        s[g.random(len(s)) < frac] = None
    return s


# ---------------------------------------------------------------------------
# LDBC-lite
# ---------------------------------------------------------------------------

_FIRST = ["Jan", "Ana", "Wei", "Ali", "Ben", "Eva", "Kim", "Raj", "Zoe", "Max"]
_LAST = ["Smith", "Zhang", "Kumar", "Mueller", "Silva", "Ivanov", "Sato"]
_PLACES = [
    "India", "China", "Germany", "France", "Brazil", "Kenya", "Canada",
    "Japan", "Chile", "Norway", "Egypt", "Peru",
]
_TAGCLASSES = ["Person", "Place", "Thing", "Event", "Work"]
_TAGS = ["Rumi", "Goethe", "Tagore", "Basho", "Neruda", "Hafez", "Ovid"]
_BROWSERS = ["Firefox", "Chrome", "Safari", "Opera"]

DATE_LO, DATE_HI = 1_200_000_000, 1_550_000_000


def ldbc_lite(
    *, sf: float = 0.1, seed: int = 42, comment_date_null_frac: float = 0.0
) -> GraphData:
    """LDBC SNB-shaped graph. ``comment_date_null_frac`` controls the
    NULL density of Comment.creationDate (the §8.5 / Table 7 knob)."""
    g = _rng(seed)
    n_person = max(20, int(10_000 * sf))
    n_place = max(5, int(120 * sf))
    n_org = max(5, int(600 * sf))
    n_tag = max(len(_TAGS), int(250 * sf))
    n_tagclass = len(_TAGCLASSES)
    n_forum = max(5, int(2_000 * sf))
    n_post = max(20, int(20_000 * sf))
    n_comment = max(40, int(40_000 * sf))

    sch = GraphSchema()
    sch.add_vertex(
        "Person",
        P("id"), P("fName", "str", True), P("lName", "str", True),
        P("gender", "str", True), P("birthday"), P("creationDate"),
        P("locationIP", "str"), P("browserUsed", "str", True),
    )
    sch.add_vertex("Place", P("id"), P("name", "str", True))
    sch.add_vertex("Org", P("id"), P("name", "str"))
    sch.add_vertex("Tag", P("id"), P("name", "str", True))
    sch.add_vertex("TagClass", P("id"), P("name", "str", True))
    sch.add_vertex("Forum", P("id"), P("title", "str"))
    sch.add_vertex("Post", P("id"), P("creationDate"), P("content", "str"))
    sch.add_vertex("Comment", P("id"), P("creationDate"), P("content", "str"))

    dates = lambda n: g.integers(DATE_LO, DATE_HI, n)  # noqa: E731
    vt = {
        "Person": pd.DataFrame({
            "_id": np.arange(n_person), "id": np.arange(n_person),
            "fName": g.choice(_FIRST, n_person),
            "lName": g.choice(_LAST, n_person),
            "gender": g.choice(["m", "f"], n_person),
            "birthday": g.integers(0, 20_000, n_person),
            "creationDate": dates(n_person),
            "locationIP": np.array(
                [f"10.0.{i % 256}.{i % 97}" for i in range(n_person)],
                dtype=object,
            ),
            "browserUsed": g.choice(_BROWSERS, n_person),
        }),
        "Place": pd.DataFrame({
            "_id": np.arange(n_place), "id": np.arange(n_place),
            "name": [_PLACES[i % len(_PLACES)] for i in range(n_place)],
        }),
        "Org": pd.DataFrame({
            "_id": np.arange(n_org), "id": np.arange(n_org),
            "name": [f"Org-{i}" for i in range(n_org)],
        }),
        "Tag": pd.DataFrame({
            "_id": np.arange(n_tag), "id": np.arange(n_tag),
            "name": [_TAGS[i % len(_TAGS)] if i < len(_TAGS) else f"tag{i}"
                     for i in range(n_tag)],
        }),
        "TagClass": pd.DataFrame({
            "_id": np.arange(n_tagclass), "id": np.arange(n_tagclass),
            "name": _TAGCLASSES,
        }),
        "Forum": pd.DataFrame({
            "_id": np.arange(n_forum), "id": np.arange(n_forum),
            "title": [f"Forum {i}" for i in range(n_forum)],
        }),
        "Post": pd.DataFrame({
            "_id": np.arange(n_post), "id": np.arange(n_post),
            "creationDate": dates(n_post),
            "content": [f"post body {i}" for i in range(n_post)],
        }),
        "Comment": pd.DataFrame({
            "_id": np.arange(n_comment), "id": np.arange(n_comment),
            "creationDate": _with_nulls(
                g, dates(n_comment).astype(object), comment_date_null_frac
            ),
            "content": [f"comment body {i}" for i in range(n_comment)],
        }),
    }
    if comment_date_null_frac == 0.0:
        vt["Comment"]["creationDate"] = vt["Comment"]["creationDate"].astype(
            np.int64
        )

    def nn(n_e, n_s, n_d, **props):
        return pd.DataFrame({
            "src": g.integers(0, n_s, n_e),
            "dst": _zipf_targets(g, n_e, n_d),
            **props,
        })

    def single_fwd(srcs, n_d, **props):
        return pd.DataFrame({
            "src": srcs, "dst": g.integers(0, n_d, len(srcs)), **props,
        })

    sch.add_edge("knows", "Person", "Person", "n-n", P("date"))
    sch.add_edge("likes", "Person", "Comment", "n-n", P("date"))
    sch.add_edge("hasCreator", "Comment", "Person", "n-1")
    sch.add_edge("postHasCreator", "Post", "Person", "n-1")
    sch.add_edge("replyOf", "Comment", "Comment", "n-1")
    sch.add_edge("replyOfPost", "Comment", "Post", "n-1")
    sch.add_edge("containerOf", "Forum", "Post", "1-n")
    sch.add_edge("hasModerator", "Forum", "Person", "n-1")
    sch.add_edge("hasMember", "Forum", "Person", "n-n", P("date"))
    sch.add_edge("hasTag", "Post", "Tag", "n-n")
    sch.add_edge("hasType", "Tag", "TagClass", "n-1")
    sch.add_edge("isSubclassOf", "TagClass", "TagClass", "n-1")
    sch.add_edge("personIsLocatedIn", "Person", "Place", "n-1")
    sch.add_edge("commentIsLocatedIn", "Comment", "Place", "n-1")
    sch.add_edge("orgIsLocatedIn", "Org", "Place", "n-1")
    sch.add_edge("workAt", "Person", "Org", "n-n", P("year"))
    sch.add_edge("studyAt", "Person", "Org", "n-1", P("year"))

    # ~50% of comments reply to a comment, the rest to a post (the Table 4
    # replyOf column is therefore ~50% empty, like LDBC100's 50.5%).
    comment_ids = np.arange(n_comment)
    replies_to_comment = comment_ids[g.random(n_comment) < 0.5]
    replies_to_post = np.setdiff1d(comment_ids, replies_to_comment)
    reply_dst = (replies_to_comment + 1 + g.integers(0, n_comment - 1,
                 len(replies_to_comment))) % n_comment
    study_srcs = np.sort(
        g.choice(n_person, size=max(1, int(0.4 * n_person)), replace=False)
    )

    et = {
        "knows": nn(int(20 * n_person), n_person, n_person,
                    date=dates(int(20 * n_person))),
        "likes": nn(int(10 * n_person), n_person, n_comment,
                    date=dates(int(10 * n_person))),
        "hasCreator": single_fwd(np.arange(n_comment), n_person),
        "postHasCreator": single_fwd(np.arange(n_post), n_person),
        "replyOf": pd.DataFrame(
            {"src": replies_to_comment, "dst": reply_dst}
        ),
        "replyOfPost": single_fwd(replies_to_post, n_post),
        "containerOf": pd.DataFrame({
            "src": g.integers(0, n_forum, n_post), "dst": np.arange(n_post),
        }),
        "hasModerator": single_fwd(np.arange(n_forum), n_person),
        "hasMember": nn(int(5 * n_forum), n_forum, n_person,
                        date=dates(int(5 * n_forum))),
        "hasTag": nn(int(2 * n_post), n_post, n_tag),
        "hasType": single_fwd(np.arange(n_tag), n_tagclass),
        "isSubclassOf": pd.DataFrame({
            "src": np.arange(1, n_tagclass),
            "dst": np.arange(1, n_tagclass) // 2,
        }),
        "personIsLocatedIn": single_fwd(np.arange(n_person), n_place),
        "commentIsLocatedIn": single_fwd(np.arange(n_comment), n_place),
        "orgIsLocatedIn": single_fwd(np.arange(n_org), n_place),
        "workAt": nn(int(0.3 * n_person) or 1, n_person, n_org,
                     year=g.integers(1990, 2020, int(0.3 * n_person) or 1)),
        "studyAt": pd.DataFrame({
            "src": study_srcs,
            "dst": g.integers(0, n_org, len(study_srcs)),
            "year": g.integers(1990, 2020, len(study_srcs)),
        }),
    }
    data = GraphData(sch, vt, et)
    data.validate()
    return data


# ---------------------------------------------------------------------------
# IMDb-lite (JOB)
# ---------------------------------------------------------------------------

_KEYWORDS = [
    "character-name-in-title", "sequel", "the-sequel", "marvel-cinematic-universe",
    "superhero", "murder", "computer-animation", "hero", "romance", "noir",
    "based-on-novel", "independent-film",
]
_COUNTRY_CODES = ["[us]", "[de]", "[jp]", "[ru]", "[pl]", "[fr]", "[gb]", "[se]"]
_MI_COUNTRIES = ["USA", "Germany", "Sweden", "Japan", "France", "Poland"]
_MI_GENRES = ["Drama", "Horror", "Comedy", "Action", "Thriller"]
_ROLES = ["actor", "actress", "producer", "writer", "director"]
_LINK_TYPES = ["follows", "followedBy", "features", "remake of"]
_COMPANY_TYPES = ["production company", "distributors"]
_CAST_NOTE_FRAGMENTS = [
    "(voice)", "(voice: English version)", "(uncredited)", "(as himself)",
    "(archive footage)", "(voice: Japanese version)",
]
_MC_NOTE_FRAGMENTS = [
    "(co-production)", "(theatrical)", "(France)", "(USA)", "(Japan)",
    "(worldwide)", "(2006)", "(2007)", "(2008)", "(VHS)", "(TV)",
]
_PERSON_POOL = [
    "Tony", "Tim", "Angela", "Yoko", "Downey", "Queen", "Stark", "Ang",
    "Boehm", "Maria", "Ivan", "Chen", "Ana",
]
_COMPANY_POOL = ["Film", "Studios", "Pictures", "Media", "Works", "Cinema"]
_TITLE_POOL = ["Shrek 2", "Dark City", "Blue River", "Iron Will", "Lost Days"]


def imdb_lite(*, sf: float = 0.1, seed: int = 7) -> GraphData:
    g = _rng(seed)
    n_title = max(50, int(20_000 * sf))
    n_name = max(60, int(30_000 * sf))
    n_comp = max(10, int(2_000 * sf))
    n_kw = max(len(_KEYWORDS), int(500 * sf))
    n_mi = max(80, int(40_000 * sf))
    n_mii = max(60, int(30_000 * sf))
    n_aka = max(20, int(12_000 * sf))
    n_pi = max(20, int(10_000 * sf))
    n_cc = max(20, int(8_000 * sf))

    sch = GraphSchema()
    sch.add_vertex(
        "title",
        P("id"), P("title", "str"), P("kind", "str", True),
        P("production_year"), P("episode_nr"),
    )
    sch.add_vertex(
        "name",
        P("id"), P("name", "str"), P("gender", "str", True),
        P("name_pcode_cf", "str", True),
    )
    sch.add_vertex(
        "company_name", P("id"), P("name", "str"), P("country_code", "str", True)
    )
    sch.add_vertex("keyword", P("id"), P("keyword", "str", True))
    sch.add_vertex(
        "movie_info",
        P("id"), P("info_type", "str", True), P("info", "str", True),
        P("note", "str"),
    )
    sch.add_vertex(
        "mov_info_2", P("id"), P("info_type", "str", True), P("info", "str", True)
    )
    sch.add_vertex("aka_name", P("id"), P("name", "str"))
    sch.add_vertex(
        "person_info", P("id"), P("info_type", "str", True), P("note", "str")
    )
    sch.add_vertex(
        "complete_cast", P("id"), P("subject", "str", True), P("status", "str", True)
    )

    mi_type = g.choice(
        ["countries", "genres", "release dates", "budget"], n_mi,
        p=[0.3, 0.3, 0.3, 0.1],
    )
    mi_info = np.empty(n_mi, dtype=object)
    for i, t in enumerate(mi_type):
        if t == "countries":
            mi_info[i] = g.choice(_MI_COUNTRIES)
        elif t == "genres":
            mi_info[i] = g.choice(_MI_GENRES)
        elif t == "release dates":
            mi_info[i] = (
                f"{g.choice(['USA', 'Japan', 'Germany'])}: "
                f"{g.integers(1990, 2015)}-0{g.integers(1, 9)}-10"
            )
        else:
            mi_info[i] = f"${g.integers(1, 200)}M"
    mii_type = g.choice(["rating", "votes", "top 250 rank"], n_mii,
                        p=[0.45, 0.45, 0.1])
    mii_info = np.array(
        [
            f"{g.integers(1, 10)}.{g.integers(0, 10)}"
            if t == "rating"
            else str(g.integers(1, 250) if t == "top 250 rank"
                     else g.integers(100, 100_000))
            for t in mii_type
        ],
        dtype=object,
    )

    vt = {
        "title": pd.DataFrame({
            "_id": np.arange(n_title), "id": np.arange(n_title),
            "title": [
                _TITLE_POOL[i % len(_TITLE_POOL)] if i < len(_TITLE_POOL)
                else f"Movie {i}" for i in range(n_title)
            ],
            "kind": g.choice(["movie", "tv series", "episode"], n_title,
                             p=[0.6, 0.2, 0.2]),
            "production_year": _with_nulls(
                g, g.integers(1940, 2016, n_title).astype(object), 0.1
            ),
            "episode_nr": _with_nulls(
                g, g.integers(0, 200, n_title).astype(object), 0.7
            ),
        }),
        "name": pd.DataFrame({
            "_id": np.arange(n_name), "id": np.arange(n_name),
            "name": _names(g, n_name, _PERSON_POOL),
            "gender": _with_nulls(g, g.choice(["m", "f"], n_name), 0.2),
            "name_pcode_cf": _with_nulls(
                g,
                np.array(
                    [f"{chr(65 + int(x))}{g.integers(1, 6)}"
                     for x in g.integers(0, 26, n_name)],
                    dtype=object,
                ),
                0.3,
            ),
        }),
        "company_name": pd.DataFrame({
            "_id": np.arange(n_comp), "id": np.arange(n_comp),
            "name": _names(g, n_comp, _COMPANY_POOL),
            "country_code": g.choice(_COUNTRY_CODES, n_comp),
        }),
        "keyword": pd.DataFrame({
            "_id": np.arange(n_kw), "id": np.arange(n_kw),
            "keyword": [
                _KEYWORDS[i % len(_KEYWORDS)] if i < len(_KEYWORDS)
                else f"kw-{i}" for i in range(n_kw)
            ],
        }),
        "movie_info": pd.DataFrame({
            "_id": np.arange(n_mi), "id": np.arange(n_mi),
            "info_type": mi_type, "info": mi_info,
            "note": _with_nulls(
                g,
                g.choice(
                    ["internet release", "festival", "limited", "wide"], n_mi
                ).astype(object),
                0.6,
            ),
        }),
        "mov_info_2": pd.DataFrame({
            "_id": np.arange(n_mii), "id": np.arange(n_mii),
            "info_type": mii_type, "info": mii_info,
        }),
        "aka_name": pd.DataFrame({
            "_id": np.arange(n_aka), "id": np.arange(n_aka),
            "name": _names(g, n_aka, _PERSON_POOL),
        }),
        "person_info": pd.DataFrame({
            "_id": np.arange(n_pi), "id": np.arange(n_pi),
            "info_type": g.choice(["mini biography", "trivia"], n_pi),
            "note": _with_nulls(
                g,
                g.choice(
                    ["Volker Boehm", "self-written", "fan wiki", "studio bio"],
                    n_pi,
                ).astype(object),
                0.4,
            ),
        }),
        "complete_cast": pd.DataFrame({
            "_id": np.arange(n_cc), "id": np.arange(n_cc),
            "subject": g.choice(["cast", "crew"], n_cc),
            "status": g.choice(
                ["complete", "complete+verified", "incomplete"], n_cc
            ),
        }),
    }

    sch.add_edge(
        "movie_companies", "title", "company_name", "n-n",
        P("note", "str"), P("company_type", "str", True),
    )
    sch.add_edge(
        "cast_info", "title", "name", "n-n",
        P("note", "str"), P("role", "str", True), P("name", "str"),
    )
    sch.add_edge("movie_keyword", "title", "keyword", "n-n")
    sch.add_edge("has_movie_info", "title", "movie_info", "1-n")
    sch.add_edge("has_mov_info_2", "title", "mov_info_2", "1-n")
    sch.add_edge("movie_link", "title", "title", "n-n", P("link_type", "str", True))
    sch.add_edge("has_aka_name", "name", "aka_name", "1-n")
    sch.add_edge("has_person_info", "name", "person_info", "1-n")
    sch.add_edge("has_complete_cast", "title", "complete_cast", "1-n")

    def mc_note(i):
        k = int(g.integers(1, 4))
        return " ".join(g.choice(_MC_NOTE_FRAGMENTS, k, replace=False))

    n_mc = int(2.5 * n_title)
    n_ci = int(5 * n_title)
    n_mk = int(3 * n_title)
    n_ml = max(5, int(0.3 * n_title))
    et = {
        "movie_companies": pd.DataFrame({
            "src": g.integers(0, n_title, n_mc),
            "dst": _zipf_targets(g, n_mc, n_comp),
            "note": _with_nulls(
                g, np.array([mc_note(i) for i in range(n_mc)], dtype=object),
                0.4,
            ),
            "company_type": g.choice(_COMPANY_TYPES, n_mc),
        }),
        "cast_info": pd.DataFrame({
            "src": g.integers(0, n_title, n_ci),
            "dst": _zipf_targets(g, n_ci, n_name),
            "note": _with_nulls(
                g, g.choice(_CAST_NOTE_FRAGMENTS, n_ci).astype(object), 0.6
            ),
            "role": g.choice(_ROLES, n_ci),
            "name": _with_nulls(g, _names(g, n_ci, _PERSON_POOL), 0.3),
        }),
        "movie_keyword": pd.DataFrame({
            "src": g.integers(0, n_title, n_mk),
            "dst": _zipf_targets(g, n_mk, n_kw, alpha=0.5),
        }),
        "has_movie_info": pd.DataFrame({
            "src": g.integers(0, n_title, n_mi), "dst": np.arange(n_mi),
        }),
        "has_mov_info_2": pd.DataFrame({
            "src": g.integers(0, n_title, n_mii), "dst": np.arange(n_mii),
        }),
        "movie_link": pd.DataFrame({
            "src": g.integers(0, n_title, n_ml),
            "dst": g.integers(0, n_title, n_ml),
            "link_type": g.choice(_LINK_TYPES, n_ml),
        }),
        "has_aka_name": pd.DataFrame({
            "src": g.integers(0, n_name, n_aka), "dst": np.arange(n_aka),
        }),
        "has_person_info": pd.DataFrame({
            "src": g.integers(0, n_name, n_pi), "dst": np.arange(n_pi),
        }),
        "has_complete_cast": pd.DataFrame({
            "src": g.integers(0, n_title, n_cc), "dst": np.arange(n_cc),
        }),
    }
    data = GraphData(sch, vt, et)
    data.validate()
    return data


# ---------------------------------------------------------------------------
# KONECT-like single-label graphs
# ---------------------------------------------------------------------------


def _konect_like(
    name: str, *, n_nodes: int, avg_degree: float, seed: int, alpha: float
) -> GraphData:
    g = _rng(seed)
    n_e = int(n_nodes * avg_degree)
    sch = GraphSchema()
    sch.add_vertex("node", P("id"), P("x"))
    sch.add_edge("link", "node", "node", "n-n", P("timestamp"))
    vt = {
        "node": pd.DataFrame({
            "_id": np.arange(n_nodes), "id": np.arange(n_nodes),
            "x": g.integers(0, 1000, n_nodes),
        })
    }
    et = {
        "link": pd.DataFrame({
            "src": g.integers(0, n_nodes, n_e),
            "dst": _zipf_targets(g, n_e, n_nodes, alpha=alpha),
            "timestamp": g.integers(DATE_LO, DATE_HI, n_e),
        })
    }
    data = GraphData(sch, vt, et)
    data.validate()
    return data


def flickr_like(*, sf: float = 0.1, seed: int = 11) -> GraphData:
    """FLICKR-shaped: lower average degree (paper: 14)."""
    return _konect_like(
        "flickr", n_nodes=max(50, int(23_000 * sf)), avg_degree=14,
        seed=seed, alpha=0.8,
    )


def wiki_like(*, sf: float = 0.1, seed: int = 13) -> GraphData:
    """WIKI-shaped: higher average degree (paper: 41)."""
    return _konect_like(
        "wiki", n_nodes=max(10, int(10_000 * sf)), avg_degree=41,
        seed=seed, alpha=0.8,
    )
