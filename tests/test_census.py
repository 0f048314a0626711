import hashlib
import random
from importlib import import_module
from itertools import combinations

import pytest

from hnp import (
    CliqueCapError,
    Hypergraph,
    InputError,
    census,
    from_edge_counts,
    list_k_cliques,
    observed_signature,
    sample,
    two_section,
)
from hnp.census import spearman_rank_correlation, write_census_json
from util import random_hypergraph

census_mod = import_module("hnp.census")  # the package's `census` is the function


def brute_cliques(h, k):
    g = two_section(h)
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    out = []
    for sub in combinations(range(g.n), k):
        if all(b in adj[a] for a, b in combinations(sub, 2)):
            out.append(sub)
    return sorted(out)


class TestListKCliques:
    def test_single_4_edge(self):
        h = Hypergraph(4, [(0, 1, 2, 3)])
        assert sorted(list_k_cliques(h, 4)) == [(0, 1, 2, 3)]

    def test_5_edge_gives_five_4_sets(self):
        h = Hypergraph(5, [(0, 1, 2, 3, 4)])
        got = sorted(list_k_cliques(h, 4))
        assert got == sorted(combinations(range(5), 4))

    def test_triangle_with_pendant(self):
        h = Hypergraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert sorted(list_k_cliques(h, 3)) == [(0, 1, 2)]

    def test_each_exactly_once_matches_brute(self):
        rng = random.Random(41)
        for _ in range(40):
            h = random_hypergraph(rng, rng.randint(3, 9), rng.randint(1, 10), 2, 5)
            for k in (3, 4, 5):
                got = sorted(list_k_cliques(h, k))
                assert got == brute_cliques(h, k)
                assert len(set(got)) == len(got)

    def test_deterministic_order(self):
        h = Hypergraph(6, [(0, 1, 2, 3), (2, 3, 4, 5)])
        assert list(list_k_cliques(h, 3)) == list(list_k_cliques(h, 3))

    def test_cap_exceeded(self):
        h = Hypergraph(5, [(0, 1, 2, 3, 4)])
        with pytest.raises(CliqueCapError, match="3"):
            list(list_k_cliques(h, 4, cap=3))

    def test_k_guard(self):
        with pytest.raises(InputError):
            list(list_k_cliques(Hypergraph(3, [(0, 1, 2)]), 6))

    def test_emission_order_pinned(self):
        # the unsorted sequence, hashed; a change in the degeneracy order or
        # in the expansion order changes it
        def digest(rows):
            text = "\n".join(",".join(map(str, r)) for r in rows)
            return hashlib.sha256(text.encode()).hexdigest()

        n = 3000
        h = sample(n, from_edge_counts(n, {2: 3600, 3: 1300, 4: 630, 5: 340}), seed=2024)
        assert (len(h.edges), digest(h.edges)) == (
            6005, "83fc102d4e3abe024f69466345874cf6e7be96bd40c6410ac075a867baf2c860"
        ), "the sampled host changed, not the clique order"
        cliques = list(list_k_cliques(h, 4))
        assert (len(cliques), digest(cliques)) == (
            2418, "1f35a6f6af53e774c0233daa3f22e9beaf4f4c12e5c5e41b92ad1bf4b0f1ec46"
        )


class TestObservedSignature:
    def test_single_4_edge(self):
        h = Hypergraph(4, [(0, 1, 2, 3)])
        assert observed_signature(h, (0, 1, 2, 3)) == (0, 0, 1)

    def test_triple_plus_star(self):
        h = Hypergraph(4, [(0, 1, 2), (0, 3), (1, 3), (2, 3)])
        assert observed_signature(h, (0, 1, 2, 3)) == (3, 1, 0)

    def test_two_triples_plus_pair(self):
        h = Hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3)])
        assert observed_signature(h, (0, 1, 2, 3)) == (1, 2, 0)

    def test_singletons_ignored(self):
        h = Hypergraph(4, [(0,), (1,), (0, 1, 2, 3)])
        assert observed_signature(h, (0, 1, 2, 3)) == (0, 0, 1)

    def test_oversize_edges_intersect(self):
        h = Hypergraph(6, [(0, 1, 2, 3, 4, 5)])
        assert observed_signature(h, (0, 1, 2, 3)) == (0, 0, 1)

    def test_equal_intersections_count_once(self):
        h = Hypergraph(6, [(0, 1, 4), (0, 1, 5), (0, 1, 2, 3)])
        assert observed_signature(h, (0, 1, 2, 3)) == (1, 0, 1)

    @pytest.mark.parametrize("bad", [(0, 1, 2, 4), (-1, 0, 1, 2)])
    def test_vertex_out_of_range(self, bad):
        h = Hypergraph(4, [(0, 1, 2, 3)])
        with pytest.raises(ValueError):
            observed_signature(h, bad)


class TestSpearman:
    def test_perfect(self):
        assert spearman_rank_correlation([1, 2, 3], [1, 2, 3]) == 1.0

    def test_reversed(self):
        assert spearman_rank_correlation([1, 2, 3], [3, 2, 1]) == -1.0

    def test_single_point_convention(self):
        assert spearman_rank_correlation([1], [1]) == 1.0


class TestCensus:
    @pytest.mark.parametrize("k", [2, 6])
    def test_k_checked_first(self, k, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("origination table built before the k check")

        monkeypatch.setattr(census_mod, "origination_distribution", no_table)
        h = Hypergraph(5, [(0, 1, 2, 3, 4)])
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        with pytest.raises(InputError, match=f"k must be 3, 4 or 5, got {k}"):
            census(h, k, p, n=100)

    def test_single_5_edge(self):
        h = Hypergraph(5, [(0, 1, 2, 3, 4)])
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        rep = census(h, 5, p, n=100)
        assert rep.total_cliques == 1
        assert len(rep.rows) == 1
        row = rep.rows[0]
        assert row.signature == (0, 0, 0, 1)
        assert row.r_observed == 1 and row.r_theory_observed == 1 and row.r_theory == 1
        assert rep.spearman == 1.0

    def test_ranks_are_permutations(self):
        p = from_edge_counts(200, {2: 80, 3: 30, 4: 15, 5: 8})
        h = sample(200, p, seed=77)
        rep = census(h, 4, p, n=200)
        m = len(rep.rows)
        assert sorted(r.r_observed for r in rep.rows) == list(range(1, m + 1))
        assert sorted(r.r_theory_observed for r in rep.rows) == list(range(1, m + 1))
        assert sum(r.observed_count for r in rep.rows) == rep.total_cliques
        assert sum(r.observed_prob for r in rep.rows) == pytest.approx(1.0, abs=1e-12)

    def test_unobserved_listed_with_theory_rank(self):
        h = Hypergraph(5, [(0, 1, 2, 3, 4)])
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        rep = census(h, 5, p, n=100)
        assert len(rep.unobserved) == 1422 - 1
        ranks = [rt for _, rt in rep.unobserved]
        assert ranks == sorted(ranks)

    def test_ties_flagged(self):
        # two disjoint 4-edges plus one 5-edge: signatures (0,0,1) twice
        # and (0,0,1) from the 5-edge's subsets... build distinct sigs
        h = Hypergraph(8, [(0, 1, 2, 3), (4, 5, 6, 7)])
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        rep = census(h, 4, p, n=100)
        assert len(rep.rows) == 1  # both cliques share (0,0,1)
        assert rep.rows[0].observed_count == 2
        assert rep.ties == ()  # a single signature cannot tie

    def test_byte_identical_reports(self, tmp_path):
        p = from_edge_counts(150, {2: 60, 3: 25, 4: 10, 5: 5})
        h = sample(150, p, seed=13)
        rep1 = census(h, 4, p, n=150)
        rep2 = census(h, 4, p, n=150)
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        write_census_json(rep1, str(f1))
        write_census_json(rep2, str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_sampled_model_runs_clean(self):
        p = from_edge_counts(120, {2: 40, 3: 15, 4: 8, 5: 4})
        h = sample(120, p, seed=5)
        rep = census(h, 4, p)
        assert rep.n == 120
        for row in rep.rows:
            assert row.theory_prob > 0.0

    def test_pooled_frequencies_match_theory_chi_square(self):
        # chi-square over the top-5 theory signatures plus a rest bucket,
        # 50 pooled samples at n=400; stat below the df=5 critical value
        # for p = 0.001 (20.515)
        from collections import Counter

        from hnp import origination_distribution
        from hnp.signatures import rank_signatures

        n = 400
        p = from_edge_counts(n, {2: 474, 3: 169, 4: 82, 5: 44})
        table = origination_distribution(4, p, n)
        top5 = [sig for sig, _ in rank_signatures(table)[:5]]
        tallies = Counter()
        total = 0
        for i in range(50):
            h = sample(n, p, seed=9000 + i)
            for s in list_k_cliques(h, 4):
                tallies[observed_signature(h, s)] += 1
                total += 1
        observed = [tallies[s] for s in top5]
        observed.append(total - sum(observed))
        probs = [table.probability(s) for s in top5]
        probs.append(1.0 - sum(probs))
        stat = sum(
            (o - total * q) ** 2 / (total * q)
            for o, q in zip(observed, probs)
            if q > 0
        )
        assert stat < 20.515
