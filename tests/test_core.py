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
from util import brute_incidence, random_hypergraph


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
        h._neighbors.clear()
        for ask in (h.neighbors, h.degree):
            with pytest.raises(ValueError, match=rf"vertex {v} outside 0\.\.2"):
                ask(v)
        assert h._neighbors == {}

    @pytest.mark.parametrize("v", [True, False, 1.0, "1", None])
    def test_neighbors_and_degree_reject_non_integer_ids(self, v):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        h.neighbors(0), h.neighbors(1)  # a boolean must not be answered from the cache
        for ask in (h.neighbors, h.degree):
            with pytest.raises(InputError, match=f"vertex must be an integer, got {v!r}"):
                ask(v)
        assert set(h._neighbors) == {0, 1}


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


class TestLazyIncidence:
    @settings(deadline=None)
    @given(sparse_hosts())
    def test_incidence_and_degrees_match_oracle(self, h):
        want = brute_incidence(h)
        degrees = [len(ids) for ids in want]
        assert h._degrees().dtype == np.int64
        assert h._degrees().tolist() == degrees
        assert profiles(h)[0] == Counter(degrees)
        assert h._incidence is None  # the degree count does not build it
        assert [h.degree(v) for v in range(h.n)] == degrees
        assert h.incidence == want
        assert h.incidence is h._incidence  # built once, then cached
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
        assert h._incidence is None
        for k in (3, 4, 5):
            assert census(h, k, p).total_cliques > 0
        assert clustering_report(h)["n_intersecting_pairs"] > 0
        g = two_section(h)
        assert profiles(h)[1] == h.size_counts() and profiles(g)[0]
        assert h._incidence is None and g._incidence is None

    def test_pickle_round_trip_before_and_after_incidence_is_read(self):
        h = Hypergraph(6, [(0,), (0, 1), (1, 2, 3), (3, 4)])  # vertex 5 isolated
        for read in (False, True):
            if read:
                h.incidence
            back = pickle.loads(pickle.dumps(h))
            assert back == h and type(back) is Hypergraph
            assert (back._incidence is None) is not read
            assert back.incidence == h.incidence == brute_incidence(h)
            assert [back.degree(v) for v in range(6)] == [2, 2, 1, 2, 1, 0]


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
