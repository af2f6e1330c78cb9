"""Shared test fixtures: tiny deterministic datasets and stores.

The ``spark`` fixture comes from the repo-root conftest. Dataset/store
fixtures are session-scoped — they are deterministic in their seeds and
read-only for every test that uses them.
"""
import pytest

from repro.graphs.datasets import (
    _konect_like,
    flickr_like,
    imdb_lite,
    ldbc_lite,
    wiki_like,
)
from repro.storage.graph_store import GraphStore, StorageConfig

TEST_SF = 0.01


@pytest.fixture(scope="session")
def ldbc():
    return ldbc_lite(sf=TEST_SF)


@pytest.fixture(scope="session")
def ldbc_mid():
    return ldbc_lite(sf=0.05)


@pytest.fixture(scope="session")
def imdb():
    return imdb_lite(sf=0.02)


@pytest.fixture(scope="session")
def wiki():
    return wiki_like(sf=0.05)


@pytest.fixture(scope="session")
def flickr():
    return flickr_like(sf=0.05)


@pytest.fixture(scope="session")
def tiny():
    """A 40-node Zipf graph of average degree 3: 3-hop paths stay in the
    thousands, so a budget of 1 runs in seconds."""
    return _konect_like("tiny", n_nodes=40, avg_degree=3, seed=5, alpha=0.8)


@pytest.fixture(scope="session")
def tiny_store(tiny):
    return GraphStore.build(tiny, StorageConfig.gf_cl())


@pytest.fixture(scope="session")
def ldbc_store(ldbc):
    return GraphStore.build(ldbc, StorageConfig.gf_cl())


@pytest.fixture(scope="session")
def ldbc_store_uncompressed(ldbc):
    return GraphStore.build(ldbc, StorageConfig())


@pytest.fixture(scope="session")
def imdb_store(imdb):
    return GraphStore.build(imdb, StorageConfig.gf_cl())


@pytest.fixture(scope="session")
def wiki_store(wiki):
    return GraphStore.build(wiki, StorageConfig())
