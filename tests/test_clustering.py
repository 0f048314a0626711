import json
import random
import tracemalloc
from importlib import import_module
from itertools import combinations

import numpy as np
import pytest

from hnp import (
    Hypergraph,
    InputError,
    clustering_report,
    extra_overlap,
    graph_cc,
    hc_global,
    hc_local,
    intersecting_pairs,
)
from util import brute_hc_local, oracle_graph_cc, random_hypergraph

clustering_mod = import_module("hnp.clustering")
TRIANGLE = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])


def _eo(h, e1, e2):
    return extra_overlap(h, h.edges.index(e1), h.edges.index(e2))


class TestExtraOverlap:
    def test_two_uniform_closes_triangle(self):
        h = Hypergraph(3, [(0, 1), (0, 2), (1, 2)])
        assert _eo(h, (0, 1), (0, 2)) == 1.0
        path = Hypergraph(3, [(0, 1), (0, 2)])
        assert _eo(path, (0, 1), (0, 2)) == 0.0

    def test_nested_edges_score_zero(self):
        h = Hypergraph(3, [(0, 1), (0, 1, 2)])
        assert _eo(h, (0, 1), (0, 1, 2)) == 0.0

    def test_worked_example(self):
        h = Hypergraph(5, [(0, 1, 2), (2, 3, 4), (0, 3)])
        assert _eo(h, (0, 1, 2), (2, 3, 4)) == 0.5
        ei, ej = h.edges.index((0, 1, 2)), h.edges.index((2, 3, 4))
        assert extra_overlap(h, np.int64(ei), np.int32(ej)) == 0.5

    def test_symmetry_and_bounds(self):
        rng = random.Random(51)
        for _ in range(40):
            h = random_hypergraph(rng, rng.randint(2, 8), rng.randint(2, 8), 2, 5)
            for i, j in intersecting_pairs(h):
                a = extra_overlap(h, i, j)
                assert a == extra_overlap(h, j, i)
                assert 0.0 <= a <= 1.0

    def test_no_pair_in_the_two_section(self):
        # only size-1 edges: the pair table is empty, so every lookup misses
        h = Hypergraph(2, [(0,), (1,)])
        assert extra_overlap(h, 0, 1) == 0.0

    def test_identical_edges_rejected(self):
        with pytest.raises(ValueError):
            extra_overlap(TRIANGLE, 0, 0)

    @pytest.mark.parametrize("ei, ej", [(-1, 3), (-1, 0), (0, -4), (4, 0), (1, 7)])
    def test_edge_ids_outside_range_rejected(self, ei, ej):
        # -1 would otherwise wrap to the last edge: (-1, 3) names one edge
        # twice and (-1, 0) silently scores edge 3
        h = Hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError, match="outside 0..3"):
            extra_overlap(h, ei, ej)

    @pytest.mark.parametrize("bad", [1.0, True])
    def test_edge_ids_must_be_integers(self, bad):
        # True is not read as edge 1
        for ei, ej in ((0, bad), (bad, 0)):
            with pytest.raises(InputError, match=f"edge id must be an integer, got {bad!r}"):
                extra_overlap(TRIANGLE, ei, ej)


class TestIntersectingPairs:
    def test_each_pair_once(self):
        # edges share two vertices; the pair must appear exactly once
        h = Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
        assert list(intersecting_pairs(h)) == [(0, 1)]

    def test_matches_brute_force(self):
        rng = random.Random(52)
        for _ in range(30):
            h = random_hypergraph(rng, rng.randint(2, 8), rng.randint(0, 8), 1, 5)
            want = sorted(
                (i, j)
                for i, j in combinations(range(len(h.edges)), 2)
                if set(h.edges[i]) & set(h.edges[j])
            )
            assert sorted(intersecting_pairs(h)) == want


class TestHcLocal:
    def test_low_degree_zero(self):
        h = Hypergraph(3, [(0, 1)])
        assert hc_local(h, 0) == 0.0
        assert hc_local(h, 2) == 0.0

    def test_triangle_center(self):
        assert hc_local(TRIANGLE, 0) == 1.0
        assert hc_local(TRIANGLE, np.int64(0)) == 1.0

    def test_path_center(self):
        path = Hypergraph(3, [(0, 1), (1, 2)])
        assert hc_local(path, 1) == 0.0

    def test_one_pass_per_host(self, monkeypatch):
        # two 12-vertex edges among 150 edges of 2 to 4 vertices: every
        # hc_local call and the report read the host's one pass
        rng = random.Random(26)
        n = 60
        edges = [rng.sample(range(n), 12) for _ in range(2)]
        edges += [rng.sample(range(n), rng.randint(2, 4)) for _ in range(150)]
        h = Hypergraph(n, edges)
        calls, scores = [], clustering_mod._scores
        monkeypatch.setattr(clustering_mod, "_scores", lambda *args: calls.append(args) or scores(*args))
        local = [hc_local(h, v) for v in range(h.n)]
        assert len(calls) == 1
        clustering_report(h)
        assert len(calls) == 1
        assert local == [brute_hc_local(h, v) for v in range(h.n)]
        assert all(type(x) is float for x in local)

    @pytest.mark.parametrize("v", [-1, -3, 3, 10])
    def test_vertex_outside_range_rejected(self, v):
        with pytest.raises(ValueError, match="outside 0..2"):
            hc_local(TRIANGLE, v)

    def test_vertex_checked_before_the_pass(self):
        h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="vertex 3 outside 0..2"):
            hc_local(h, 3)
        assert h._clustered is None

    @pytest.mark.parametrize("v", [1.5, True])
    def test_vertex_must_be_an_integer(self, v):
        # True is not read as vertex 1
        with pytest.raises(InputError, match=f"vertex must be an integer, got {v!r}"):
            hc_local(TRIANGLE, v)


class TestHcGlobal:
    def test_disjoint_complete_graphs(self):
        edges = list(combinations((0, 1, 2), 2)) + list(combinations((3, 4, 5, 6), 2))
        h = Hypergraph(7, edges)
        assert hc_global(h) == 1.0

    def test_bipartite_zero(self):
        k23 = Hypergraph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
        assert hc_global(k23) == 0.0

    def test_no_intersecting_pairs(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        assert hc_global(h) == 0.0


class TestGraphCC:
    def test_triangle(self):
        assert graph_cc(TRIANGLE) == (1.0, 1.0)

    def test_path(self):
        assert graph_cc(Hypergraph(3, [(0, 1), (1, 2)])) == (0.0, 0.0)

    def test_k4_minus_edge(self):
        g = Hypergraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        _, cp = graph_cc(g)
        assert cp == 0.75

    def test_no_eligible_vertex(self):
        assert graph_cc(Hypergraph(2, [(0, 1)])) == (None, None)

    def test_rejects_non_uniform(self):
        with pytest.raises(ValueError):
            graph_cc(Hypergraph(3, [(0, 1, 2)]))

    def test_matches_triangle_counting_oracle(self):
        rng = random.Random(53)
        for _ in range(30):
            n = rng.randint(3, 20)
            g = random_hypergraph(rng, n, rng.randint(1, 3 * n), 2, 2)
            got = graph_cc(g)
            want = oracle_graph_cc(g)
            if want == (None, None):
                assert got == (None, None)
                continue
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)


class TestGraphEquivalence:
    def test_hc_equals_classical_on_graphs(self):
        rng = random.Random(54)
        for _ in range(50):
            n = rng.randint(3, 50)
            g = random_hypergraph(rng, n, rng.randint(1, 2 * n), 2, 2)
            c_avg, c_glob = graph_cc(g)
            if c_glob is None:
                continue
            assert hc_global(g) == pytest.approx(c_glob, abs=1e-12)
            eligible = [v for v in range(g.n) if g.degree(v) >= 2]
            locals_ = [hc_local(g, v) for v in eligible]
            assert sum(locals_) / len(eligible) == pytest.approx(c_avg, abs=1e-12)


class TestClusteringReport:
    def test_shape_and_consistency(self):
        h = Hypergraph(5, [(0, 1, 2), (2, 3, 4), (0, 3)])
        rep = clustering_report(h)
        assert set(rep) == {
            "hc_global",
            "n_intersecting_pairs",
            "hc_local_histogram",
            "n_nonzero_local",
        }
        assert len(rep["hc_local_histogram"]) == 100
        assert sum(rep["hc_local_histogram"]) == h.n
        assert rep["hc_global"] == pytest.approx(hc_global(h), abs=1e-12)
        assert rep["n_intersecting_pairs"] == len(list(intersecting_pairs(h)))

    def test_nonzero_local_count(self):
        rep = clustering_report(TRIANGLE)
        assert rep["n_nonzero_local"] == 3
        assert rep["hc_local_histogram"][99] == 3

    @pytest.mark.parametrize("bins", [0, -3])
    def test_bins_below_one_rejected(self, bins):
        with pytest.raises(ValueError, match="bins must be >= 1"):
            clustering_report(TRIANGLE, bins)

    @pytest.mark.parametrize("bins", [2.0, "2", None, True])
    def test_bins_must_be_an_integer(self, bins):
        with pytest.raises(ValueError, match="bins must be an integer"):
            clustering_report(TRIANGLE, bins)

    def test_bins_read_as_an_integer(self):
        rep = clustering_report(TRIANGLE, np.int64(2))
        assert rep == clustering_report(TRIANGLE, 2)
        assert json.dumps(rep) == json.dumps(clustering_report(TRIANGLE, 2))


def _histogram(counts):
    """The 100-bin histogram with counts[idx] in bin idx, 0 elsewhere."""
    return [counts.get(idx, 0) for idx in range(100)]


class TestCandidatePairs:
    """The pairs clustering_report scores are those with some x in
    e_i \\ e_j and y in e_j \\ e_i adjacent in the 2-section; each case pins
    the whole report."""

    def test_third_edge_through_v(self):
        # v=0, x=1, y=2: {v,x} and {v,y} close through {v,x,y}, which holds
        # x and y and also lies at v; x has no neighbour outside every edge
        # at v that contains it, and the pair still scores 1.0
        h = Hypergraph(3, [(0, 1), (0, 2), (0, 1, 2)])
        assert _eo(h, (0, 1), (0, 2)) == 1.0
        assert _eo(h, (0, 1), (0, 1, 2)) == 0.0
        assert _eo(h, (0, 2), (0, 1, 2)) == 0.0
        assert hc_local(h, 0) == 1 / 3
        assert clustering_report(h) == {
            "hc_global": 1 / 3,
            "n_intersecting_pairs": 3,
            "hc_local_histogram": _histogram({0: 2, 33: 1}),
            "n_nonzero_local": 1,
        }

    def test_third_edge_misses_v(self):
        # v=0, x=1, y=2: {x,y} does not contain v
        h = Hypergraph(3, [(0, 1), (0, 2), (1, 2)])
        assert _eo(h, (0, 1), (0, 2)) == 1.0
        assert clustering_report(h) == {
            "hc_global": 1.0,
            "n_intersecting_pairs": 3,
            "hc_local_histogram": _histogram({99: 3}),
            "n_nonzero_local": 3,
        }

    def test_nonzero_pair_sharing_two_vertices(self):
        # {0,1,2} and {0,1,3} share 0 and 1 and close through {2,3,4}
        h = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
        assert _eo(h, (0, 1, 2), (0, 1, 3)) == 1.0
        assert _eo(h, (0, 1, 2), (2, 3, 4)) == 0.75
        assert _eo(h, (0, 1, 3), (2, 3, 4)) == 0.75
        assert [hc_local(h, v) for v in range(5)] == [1.0, 1.0, 0.75, 0.75, 0.0]
        assert clustering_report(h) == {
            "hc_global": 2.5 / 3,
            "n_intersecting_pairs": 3,
            "hc_local_histogram": _histogram({0: 1, 75: 2, 99: 2}),
            "n_nonzero_local": 4,
        }

    def test_nonzero_pair_sharing_three_vertices(self):
        # {0,1,2,4} and {0,1,2,3,5} share 0, 1 and 2 and close through {3,4};
        # at the middle common vertex 1 the pair is seen both before and
        # after, and its score 2/3 must enter the global sum once
        h = Hypergraph(6, [(0, 1, 2, 3, 5), (0, 1, 2, 4), (3, 4)])
        assert _eo(h, (0, 1, 2, 4), (0, 1, 2, 3, 5)) == 2 / 3
        assert _eo(h, (3, 4), (0, 1, 2, 4)) == 1.0
        assert _eo(h, (3, 4), (0, 1, 2, 3, 5)) == 0.8
        assert [hc_local(h, v) for v in range(6)] == [2 / 3, 2 / 3, 2 / 3, 0.8, 1.0, 0.0]
        assert clustering_report(h) == {
            "hc_global": (2 / 3 + 0.8 + 1.0) / 3,
            "n_intersecting_pairs": 3,
            "hc_local_histogram": _histogram({0: 1, 66: 3, 80: 1, 99: 1}),
            "n_nonzero_local": 5,
        }


def test_working_set_bounded():
    # one 150-vertex edge, with C(150, 3) triangles inside it, and 2000 edges
    # of 2 to 5 vertices; with the pair table and the orientation built, the
    # report's tracemalloc peak was 1.9 MiB (numpy 2.4), and 4.5 MiB with the
    # clustering blocks unchunked
    rng = random.Random(24)
    n = 1500
    edges = [rng.sample(range(n), 150)]
    edges += [rng.sample(range(n), rng.randint(2, 5)) for _ in range(2000)]
    h = Hypergraph(n, edges)
    h._pair_table()
    h._orientation()
    tracemalloc.start()
    try:
        clustering_report(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    assert h._neighbors == {}  # no neighbour set is built


def test_working_set_bounded_on_a_hub_host():
    # three hubs, each in 150 edges, among 600 edges of 2 to 4 vertices;
    # with the pair table and the orientation built, the report peaked at
    # 1.44 MiB (numpy 2.4) when each pair was scored again from its edges
    # after the triangle pass, and the bound keeps the headroom of
    # test_working_set_bounded over that
    rng = random.Random(25)
    n = 400
    edges = [rng.sample(range(n), rng.randint(2, 4)) for _ in range(600)]
    for hub in rng.sample(range(n), 3):
        others = [u for u in range(n) if u != hub]
        edges += [[hub] + rng.sample(others, rng.randint(1, 3)) for _ in range(150)]
    h = Hypergraph(n, edges)
    h._pair_table()
    h._orientation()
    tracemalloc.start()
    try:
        clustering_report(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.44 * 3 / 1.9 * 2**20
    assert h._neighbors == {}  # no neighbour set is built
