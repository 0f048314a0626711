import json
import math
import pickle
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnp import (
    Graph,
    Hypergraph,
    InputError,
    census,
    clustering_report,
    find_strong_copies,
    find_weak_copies,
    from_edge_counts,
    induced_strong,
    induced_weak,
    profiles,
    read_edge_list,
    sample,
    two_section,
    write_edge_list,
)
from hnp.core import _left_sum
from util import _adjacency, brute_incidence, brute_induced, random_hypergraph


class TestHypergraph:
    def test_normalizes_sorts_and_dedups(self):
        h = Hypergraph(3, [(2, 1), (1, 2), (0,)])
        assert h.edges == ((0,), (1, 2))

    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError):
            Hypergraph(2, [()])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(1, 1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(2, [(0, 2)])
        with pytest.raises(ValueError):
            Hypergraph(2, [(-1, 0)])

    def test_numpy_ids_stored_as_int(self):
        h = Hypergraph(3, np.array([[0, 1]]))
        assert h.edges == ((0, 1),)
        assert all(type(v) is int for v in h.edges[0])
        assert json.dumps(h.edges) == "[[0, 1]]"

    def test_numpy_vertex_count_stored_as_int(self):
        h = Hypergraph(np.int64(3), [(0, 1)])
        assert type(h.n) is int
        assert json.dumps({"n": h.n}) == '{"n": 3}'

    @pytest.mark.parametrize("n", [3.0, "3", None, True])
    def test_rejects_non_integer_vertex_count_naming_it(self, n):
        with pytest.raises(ValueError, match="vertex count must be an integer") as info:
            Hypergraph(n, [(0, 1)])
        assert repr(n) in str(info.value)

    @pytest.mark.parametrize("edge", [(0, 1.5), (0, "1"), (0, None), 3])
    def test_rejects_non_integer_ids_naming_the_edge(self, edge):
        with pytest.raises(ValueError, match="is not a collection of integer vertex ids") as info:
            Hypergraph(3, [(0, 1), edge])
        assert repr(edge) in str(info.value)

    @pytest.mark.parametrize("edge", [(True, 2), (0, False), (np.True_, 2)])
    def test_rejects_boolean_ids(self, edge):
        for build in (Hypergraph, Graph):
            with pytest.raises(ValueError, match="is not a collection of integer vertex ids") as info:
                build(3, [(0, 1), edge])
            assert repr(edge) in str(info.value)

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="vertex count must be >= 0, got -1"):
            Hypergraph(-1)

    def test_equality_with_other_types_and_repr(self):
        h = Hypergraph(3, [(0, 1)])
        assert h.__eq__((3, ((0, 1),))) is NotImplemented and h != (3, ((0, 1),))
        assert repr(h) == "Hypergraph(n=3, m=1)" and repr(Graph(4)) == "Graph(n=4, m=0)"

    @pytest.mark.parametrize("r", [2.0, True, "2", None])
    def test_is_uniform_reads_the_size_as_an_integer(self, r):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        assert h.is_uniform(np.int64(2)) and not h.is_uniform(3)
        with pytest.raises(InputError, match=f"edge size must be an integer, got {r!r}"):
            h.is_uniform(r)

    def test_incidence_consistent(self):
        rng = random.Random(7)
        for _ in range(30):
            h = random_hypergraph(rng, rng.randint(1, 8), rng.randint(0, 10))
            for v in range(h.n):
                for ei in h.incidence[v]:
                    assert v in h.edges[ei]
            for ei, e in enumerate(h.edges):
                for v in e:
                    assert ei in h.incidence[v]

    def test_value_equality(self):
        a = Hypergraph(3, [(0, 1), (1, 2)])
        b = Hypergraph(3, [(1, 2), (1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Hypergraph(4, [(0, 1), (1, 2)])

    def test_graph_requires_pairs(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1, 2)])

    @pytest.mark.parametrize("v", [-1, -3, 3, 10])
    def test_neighbors_and_degree_reject_ids_outside_the_range(self, v):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        assert [h.neighbors(u) for u in range(3)] == [{1}, {0, 2}, {1}]
        assert [h.degree(u) for u in range(3)] == [1, 2, 1]
        assert h.neighbors(np.int64(1)) == {0, 2} and h.degree(np.int64(1)) == 2
        for ask in (h.neighbors, h.degree):
            with pytest.raises(ValueError, match=rf"vertex {v} outside 0\.\.2"):
                ask(v)
        assert h._tables["_adjacency"] == ({1}, {0, 2}, {1})

    @pytest.mark.parametrize("v", [True, False, 1.0, "1", None])
    def test_neighbors_and_degree_reject_non_integer_ids(self, v):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        h.neighbors(0), h.degree(0)  # a boolean must not be answered from the built tables
        for ask in (h.neighbors, h.degree):
            with pytest.raises(InputError, match=f"vertex must be an integer, got {v!r}"):
                ask(v)
        assert h._tables["_adjacency"] == ({1}, {0, 2}, {1})


@st.composite
def sparse_hosts(draw):
    """Hosts with size-1 edges and isolated vertices: the edges use the
    first n vertices, and up to 3 more are left bare."""
    n = draw(st.integers(0, 8))
    edges = []
    if n:
        vertex = st.integers(0, n - 1)
        edges = draw(st.lists(st.sets(vertex, min_size=1, max_size=5), max_size=12))
        edges += [{v} for v in draw(st.lists(vertex, max_size=3))]
    return Hypergraph(n + draw(st.integers(0, 3)), edges)


@st.composite
def large_edge_hosts(draw):
    """Hosts with one edge of 8 to 12 vertices among a few small ones."""
    n = draw(st.integers(12, 16))
    vertex = st.integers(0, n - 1)
    edges = [draw(st.sets(vertex, min_size=8, max_size=12))]
    edges += draw(st.lists(st.sets(vertex, min_size=1, max_size=3), max_size=6))
    return Hypergraph(n, edges)


class TestLazyIncidence:
    @settings(deadline=None)
    @given(st.one_of(sparse_hosts(), large_edge_hosts()))
    def test_neighbour_table_and_degree_array_match_oracles(self, h):
        adj, want = _adjacency(h), brute_incidence(h)
        deg = h._degrees()
        assert [h.degree(v) for v in range(h.n)] == [len(ids) for ids in want]
        assert "incidence" not in h._tables  # a degree query lists no edge ids
        table = h._adjacency()
        got = [h.neighbors(v) for v in range(h.n)]
        assert got == [adj[v] for v in range(h.n)] and len(table) == h.n
        assert all(type(s) is frozenset and s is t for s, t in zip(got, table))
        assert h._degrees() is deg and h._adjacency() is table  # each built once
        assert not deg.flags.writeable

    @settings(deadline=None)
    @given(sparse_hosts())
    def test_incidence_and_degrees_match_oracle(self, h):
        want = brute_incidence(h)
        degrees = [len(ids) for ids in want]
        assert h._degrees().dtype == np.int64
        assert h._degrees().tolist() == degrees
        assert profiles(h)[0] == Counter(degrees)
        assert "incidence" not in h._tables  # the degree count does not build it
        assert [h.degree(v) for v in range(h.n)] == degrees
        assert h.incidence == want
        assert h.incidence is h._tables["incidence"]  # built once, then cached
        assert all(type(i) is int for ids in h.incidence for i in ids)

    def test_incidence_is_read_only(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        with pytest.raises(AttributeError):
            h.incidence = ((), (), ())
        assert h.incidence == ((0,), (0, 1), (1,))

    @pytest.mark.parametrize("source", ["sample", "file"])
    def test_census_clustering_and_profiles_never_build_incidence(self, source, tmp_path):
        n = 200
        p = from_edge_counts(n, {2: 300, 3: 120, 4: 40, 5: 20})
        h = sample(n, p, seed=29)
        if source == "file":
            path = str(tmp_path / "host.edges")
            write_edge_list(h, path)
            h = read_edge_list(path).hypergraph
        assert "incidence" not in h._tables
        for k in (3, 4, 5):
            assert census(h, k, p).total_cliques > 0
        assert clustering_report(h)["n_intersecting_pairs"] > 0
        g = two_section(h)
        assert profiles(h)[1] == h.size_counts() and profiles(g)[0]
        assert "incidence" not in h._tables and "incidence" not in g._tables

    def test_pickle_round_trip_before_and_after_incidence_is_read(self):
        h = Hypergraph(6, [(0,), (0, 1), (1, 2, 3), (3, 4)])  # vertex 5 isolated
        for read in (False, True):
            if read:
                h.incidence
            back = pickle.loads(pickle.dumps(h))
            assert back == h and type(back) is Hypergraph
            assert back._tables == {}  # a pickle carries no table
            assert back.incidence == h.incidence == brute_incidence(h)
            assert [back.degree(v) for v in range(6)] == [2, 2, 1, 2, 1, 0]


def _arrays(tables):
    """Every numpy array in a host's kept tables."""
    items = (a for t in tables.values() for a in (t if isinstance(t, tuple) else (t,)))
    return [a for a in items if isinstance(a, np.ndarray)]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _ask(h):
    """A census at k=3, the clustering report and a strong and a weak search."""
    census(h, 3, from_edge_counts(200, {2: 300, 3: 120}), n=200)
    clustering_report(h)
    path = Hypergraph(3, [(0, 1), (1, 2)])
    find_strong_copies(path, h, mode="exists"), find_weak_copies(path, h, mode="exists")


@settings(deadline=None, max_examples=60)
@given(st.one_of(sparse_hosts(), large_edge_hosts()))
def test_tables_are_built_once_read_only_and_never_pickled(h):
    _ask(h)
    tables = dict(h._tables)
    assert {"_pair_table", "_orientation", "_clustering", "_degrees"} <= tables.keys()
    _ask(h)
    assert h._tables.keys() == tables.keys()
    assert all(h._tables[name] is t for name, t in tables.items())  # each built once
    back = pickle.loads(pickle.dumps(h))
    assert back == h and type(back) is type(h) and back._tables == {}
    _ask(back)
    assert back._tables.keys() == tables.keys()
    assert all(_same(back._tables[name], t) for name, t in tables.items())
    for a in _arrays(tables) + _arrays(back._tables):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_left_sum_adds_left_to_right():
    # 1e-16 is below half an ulp of 1.0, so each addition rounds back to 1.0;
    # a compensated sum (sum() from Python 3.12, math.fsum) keeps them
    xs = [1.0, 1e-16, 1e-16]
    assert math.fsum(xs) == 1.0000000000000002
    assert _left_sum(xs) == 1.0
    assert _left_sum(iter(xs)) == 1.0
    assert _left_sum([]) == 0.0


class TestTwoSection:
    def test_single_triple_becomes_triangle(self):
        g = two_section(Hypergraph(3, [(0, 1, 2)]))
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_three_hypergraphs_same_two_section(self):
        # 4 vertices; edges {1,2},{2,3} and the 3-edge {0,1,3} give the
        # 5-edge graph: 4-cycle plus the {1,3} chord
        h2 = Hypergraph(4, [(1, 2), (2, 3), (0, 1, 3)])
        want = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        assert two_section(h2) == want

    def test_empty(self):
        assert two_section(Hypergraph(5)).edges == ()

    def test_singletons_contribute_nothing(self):
        assert two_section(Hypergraph(3, [(0,), (1,)])).edges == ()


class TestInducedStrong:
    def test_triangle_two_vertices(self):
        tri = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        sub, mapping = induced_strong(tri, [0, 1])
        assert sub == Hypergraph(2, [(0, 1)])
        assert mapping == {0: 0, 1: 1}

    def test_oversize_edge_not_contained(self):
        h = Hypergraph(3, [(0, 1, 2), (0, 1)])
        sub, _ = induced_strong(h, [0, 1])
        assert sub == Hypergraph(2, [(0, 1)])

    def test_full_set_identity(self):
        rng = random.Random(3)
        for _ in range(20):
            h = random_hypergraph(rng, rng.randint(1, 7), rng.randint(0, 8))
            sub, mapping = induced_strong(h, range(h.n))
            assert sub == h
            assert all(mapping[v] == v for v in range(h.n))


class TestInducedWeak:
    def test_figure_weak_subhypergraph(self):
        # host: 7 vertices, edges {1,2}, {0,1,4}, {0,2,3,5,6}; the induced
        # weak subhypergraph on {0,1,2,3} is the 4-vertex pattern with
        # edges {0,1}, {1,2}, {0,2,3}
        h2 = Hypergraph(7, [(1, 2), (0, 1, 4), (0, 2, 3, 5, 6)])
        sub, _ = induced_weak(h2, [0, 1, 2, 3])
        assert sub == Hypergraph(4, [(0, 1), (1, 2), (0, 2, 3)])
        sub, mapping = induced_weak(h2, np.arange(4))
        assert sub == Hypergraph(4, [(0, 1), (1, 2), (0, 2, 3)])
        assert all(type(v) is int for v in mapping)

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_vertex_must_be_an_integer(self, bad):
        h = Hypergraph(3, [(0, 1, 2)])
        for induce in (induced_weak, induced_strong):
            with pytest.raises(InputError, match=f"vertex must be an integer, got {bad!r}"):
                induce(h, [0, bad])

    @settings(deadline=None)
    @given(st.one_of(sparse_hosts(), large_edge_hosts()), st.data())
    def test_strong_and_weak_match_their_definitions(self, h, data):
        s = data.draw(st.lists(st.integers(0, h.n - 1), max_size=h.n + 2) if h.n else st.just([]))
        for strong, induce in ((True, induced_strong), (False, induced_weak)):
            sub, mapping = induce(h, s)
            assert sub == brute_induced(h, s, strong) and type(sub) is Hypergraph
            assert mapping == {v: i for i, v in enumerate(sorted(set(s)))}

    def test_coinciding_intersections_dedup(self):
        h = Hypergraph(3, [(0, 1, 2), (0, 1)])
        sub, _ = induced_weak(h, [0, 1])
        assert sub == Hypergraph(2, [(0, 1)])

    def test_full_set_identity(self):
        rng = random.Random(4)
        for _ in range(20):
            h = random_hypergraph(rng, rng.randint(1, 7), rng.randint(0, 8))
            sub, _ = induced_weak(h, range(h.n))
            assert sub == h

    def test_strong_edges_subset_of_weak(self):
        rng = random.Random(5)
        for _ in range(50):
            h = random_hypergraph(rng, rng.randint(2, 8), rng.randint(0, 10))
            s = rng.sample(range(h.n), rng.randint(1, h.n))
            strong, _ = induced_strong(h, s)
            weak, _ = induced_weak(h, s)
            assert set(strong.edges) <= set(weak.edges)

    def test_two_section_of_induction_is_subgraph(self):
        rng = random.Random(6)
        for _ in range(50):
            h = random_hypergraph(rng, rng.randint(2, 8), rng.randint(0, 10))
            s = rng.sample(range(h.n), rng.randint(1, h.n))
            lhs = two_section(induced_strong(h, s)[0])
            rhs = induced_strong(two_section(h), s)[0]
            assert set(lhs.edges) <= set(rhs.edges)


class TestProfiles:
    def test_single_triple(self):
        deg, size = profiles(Hypergraph(3, [(0, 1, 2)]))
        assert deg == Counter({1: 3})
        assert size == Counter({3: 1})

    def test_triangle(self):
        deg, size = profiles(Hypergraph(3, [(0, 1), (1, 2), (0, 2)]))
        assert deg == Counter({2: 3})
        assert size == Counter({2: 3})

    def test_mixed(self):
        h = Hypergraph(4, [(0, 1), (2, 3), (0, 1, 2, 3)])
        deg, size = profiles(h)
        assert deg == Counter({2: 4})
        assert size == Counter({2: 2, 4: 1})

    def test_degree_sum_equals_size_sum(self):
        rng = random.Random(9)
        for _ in range(30):
            h = random_hypergraph(rng, rng.randint(1, 9), rng.randint(0, 12))
            deg, size = profiles(h)
            assert sum(d * c for d, c in deg.items()) == sum(
                r * c for r, c in size.items()
            )
