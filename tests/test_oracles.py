"""Property tests of clique listing, signatures and the clustering report
against the oracles in util.py and against networkx, on random small
hypergraphs."""

from importlib import import_module
from unittest import mock

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from hnp import (
    Hypergraph,
    clustering_report,
    from_edge_counts,
    list_k_cliques,
    observed_signature,
    sample,
    two_section,
)
from util import (
    brute_clustering_report,
    brute_degeneracy_order,
    brute_observed_signature,
)

census_mod = import_module("hnp.census")  # the package's `census` is the function
KS = (3, 4, 5)


@st.composite
def hypergraphs(draw, max_n=9):
    """Random hypergraphs with size-1 edges, edges nested in other edges,
    and edges A + {x}, A + {y} that meet any set containing A but not x, y
    in the same intersection A."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.sets(vertex, min_size=1, max_size=6), max_size=12))
    edges += [{v} for v in draw(st.lists(vertex, max_size=3))]
    for e in draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []:
        edges.append(draw(st.sets(st.sampled_from(sorted(e)), min_size=1)))
    for a in draw(st.lists(st.sets(vertex, min_size=1, max_size=4), max_size=2)):
        for x in draw(st.sets(vertex, max_size=3)) - a:
            edges.append(a | {x})
    return Hypergraph(n, edges)


@settings(deadline=None)
@given(hypergraphs())
def test_degeneracy_order_matches_oracle(h):
    adj = [h.neighbors(v) for v in range(h.n)]
    assert census_mod._degeneracy_order(adj) == brute_degeneracy_order(adj)


@settings(deadline=None)
@given(hypergraphs())
def test_clique_sequence_matches_oracle_order(h):
    for k in KS:
        with mock.patch.object(census_mod, "_degeneracy_order", brute_degeneracy_order):
            want = list(list_k_cliques(h, k))
        assert list(list_k_cliques(h, k)) == want


@settings(deadline=None)
@given(hypergraphs(), st.data())
def test_signatures_match_oracle(h, data):
    for k in KS:
        for s in list_k_cliques(h, k):
            assert observed_signature(h, s) == brute_observed_signature(h, s)
    s = data.draw(st.lists(st.integers(0, h.n - 1), max_size=h.n, unique=True))
    assert observed_signature(h, s) == brute_observed_signature(h, s)


@settings(deadline=None)
@given(hypergraphs(), st.integers(1, 12))
def test_clustering_report_matches_oracle(h, bins):
    assert clustering_report(h) == brute_clustering_report(h)
    assert clustering_report(h, bins) == brute_clustering_report(h, bins)


def _networkx_cliques(h, k):
    g = nx.Graph()
    g.add_nodes_from(range(h.n))
    g.add_edges_from(two_section(h).edges)
    return sorted(tuple(sorted(c)) for c in nx.enumerate_all_cliques(g) if len(c) == k)


@settings(deadline=None)
@given(hypergraphs())
def test_cliques_match_networkx(h):
    for k in KS:
        assert sorted(list_k_cliques(h, k)) == _networkx_cliques(h, k)


def test_cliques_match_networkx_on_sampled_host():
    n = 300
    h = sample(n, from_edge_counts(n, {2: 360, 3: 130, 4: 63, 5: 34}), seed=3)
    for k in KS:
        got = sorted(list_k_cliques(h, k))
        assert got and got == _networkx_cliques(h, k)
