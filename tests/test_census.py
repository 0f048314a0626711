import hashlib
import json
import random
import re
import tracemalloc
from dataclasses import replace
from importlib import import_module
from itertools import combinations, islice
from math import comb

import numpy as np
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
from hnp.census import spearman_rank_correlation
from util import brute_clique_sequence, random_hypergraph

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

    def test_bad_arguments_rejected_at_the_call(self):
        h = Hypergraph(5, [(0, 1, 2, 3, 4)])
        with pytest.raises(InputError, match="got 4.0"):
            list_k_cliques(h, 4.0)
        with pytest.raises(InputError, match="cap must be >= 0, got -1"):
            list_k_cliques(h, 4, cap=-1)

    @pytest.mark.parametrize("cap", [1.5, "5", None, True])
    def test_cap_must_be_an_integer(self, cap):
        h = Hypergraph(5, [(0, 1, 2, 3, 4)])
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        with pytest.raises(InputError, match="clique cap must be an integer"):
            list_k_cliques(h, 3, cap=cap)
        with pytest.raises(InputError, match="clique cap must be an integer"):
            census(h, 3, p, n=100, cap=cap)

    def test_cap_read_as_an_integer(self):
        h = Hypergraph(5, [(0, 1, 2, 3, 4)])
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        assert len(list(list_k_cliques(h, 3, cap=np.int64(10)))) == 10
        assert census(h, 3, p, n=100, cap=np.int64(10)).total_cliques == 10
        with pytest.raises(CliqueCapError, match="cap of 9 cliques"):
            list(list_k_cliques(h, 3, cap=np.int64(9)))

    def test_working_set_bounded(self):
        # one 45-vertex edge holds C(45, 5) = 1221759 5-cliques; the walk
        # expands consecutive groups of nodes, never a whole depth at once
        h = Hypergraph(45, [tuple(range(45))])
        tracemalloc.start()
        try:
            blocks = census_mod._clique_blocks(h, 5, census_mod.DEFAULT_CLIQUE_CAP)
            total = sum(len(cliques) for cliques, _ in blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == 1221759
        assert peak < 16 << 20

    def test_emission_order_pinned(self):
        # the unsorted sequence, hashed; a change in the degree order or in
        # the expansion order changes it
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
            2418, "5f98bf9720433d1af2e72f01b20571e3c91efa559bdeec9f56777472f52bf632"
        )
        assert cliques == list(brute_clique_sequence(h, 4))

    @pytest.mark.parametrize(
        "k, cap, yielded, digest",
        [
            (3, 4440, 4439, "4f6a4bf00e424a0bdbd7733767366242456f1bf200629cfba54a72e129179f3a"),
            (4, 2740, 2739, "c53aa853c9174d985da0a58c110d9d408c3083d5af24672794c9637d007764c7"),
            (5, 1254, 1253, "9f6e96bec72432875b1f4078a4323a41f68ed2a4c4b3797de45d4aef64e7b7a0"),
        ],
    )
    def test_capped_listing_pinned(self, k, cap, yielded, digest):
        # each cap falls inside a run of cliques that close one walk node, in
        # the second block of cliques the walk hands over: every clique before
        # that node is yielded, then the error is raised
        n = 300
        h = sample(n, from_edge_counts(n, {2: 600, 3: 300, 4: 300, 5: 800}), seed=1)
        got = []
        with pytest.raises(CliqueCapError, match=f"cap of {cap} cliques"):
            for clique in list_k_cliques(h, k, cap=cap):
                got.append(clique)
        assert (len(got), hashlib.sha256(repr(got).encode()).hexdigest()) == (yielded, digest)
        assert got == list(islice(brute_clique_sequence(h, k), yielded))


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
        assert observed_signature(h, np.arange(4)) == (1, 0, 1)

    @pytest.mark.parametrize("bad", [(0, 1, 2, 4), (-1, 0, 1, 2)])
    def test_vertex_out_of_range(self, bad):
        h = Hypergraph(4, [(0, 1, 2, 3)])
        with pytest.raises(ValueError):
            observed_signature(h, bad)

    def test_repeated_vertex(self):
        h = Hypergraph(4, [(0, 1, 2, 3)])
        with pytest.raises(ValueError, match="repeated vertex"):
            observed_signature(h, (0, 0, 1, 2))

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_vertex_must_be_an_integer(self, bad):
        # True is not read as vertex 1
        h = Hypergraph(4, [(0, 1, 2, 3)])
        with pytest.raises(InputError, match=f"vertex must be an integer, got {bad!r}"):
            observed_signature(h, (0, bad, 2, 3))


class TestSpearman:
    def test_perfect(self):
        assert spearman_rank_correlation([1, 2, 3], [1, 2, 3]) == 1.0

    def test_reversed(self):
        assert spearman_rank_correlation([1, 2, 3], [3, 2, 1]) == -1.0

    def test_single_point_convention(self):
        assert spearman_rank_correlation([1], [1]) == 1.0


class TestCensus:
    @pytest.mark.parametrize("k", [2, 6, 4.0])
    def test_k_checked_first(self, k, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("origination table built before the k check")

        monkeypatch.setattr(census_mod, "origination_distribution", no_table)
        h = Hypergraph(5, [(0, 1, 2, 3, 4)])
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        rule = "an integer" if isinstance(k, float) else "3, 4 or 5"
        with pytest.raises(InputError, match=f"k must be {rule}, got {k}"):
            census(h, k, p, n=100)

    def test_infeasible_signature_names_the_sorted_clique(self, monkeypatch):
        # the walk meets the first clique as (2, 5, 7, 0), then the five K4s of
        # the 5-edge, all with the same signature
        h = Hypergraph(8, [(0, 2, 5, 7), (0, 1, 3, 4, 6)])
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        real = census_mod.origination_distribution

        def without_0_0_1(k, p, n):
            table = real(k, p, n)
            entries = {sig: v for sig, v in table.entries.items() if sig != (0, 0, 1)}
            return replace(table, entries=entries)

        rows = census(h, 4, p, n=100).rows
        assert [(r.signature, r.observed_count) for r in rows] == [((0, 0, 1), 6)]
        monkeypatch.setattr(census_mod, "origination_distribution", without_0_0_1)
        with pytest.raises(AssertionError, match=re.escape("(0, 0, 1) on clique (0, 2, 5, 7) ")):
            census(h, 4, p, n=100)

    @pytest.mark.parametrize("h", [Hypergraph(0), Hypergraph(3, [(0,), (2,)])])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_host_without_pairs_has_no_cliques(self, h, k):
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        report = census(h, k, p, n=100)
        assert report.total_cliques == 0 and report.rows == ()

    def test_negative_cap_is_an_input_error(self):
        h = Hypergraph(5, [(0, 1, 2, 3, 4)])
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        with pytest.raises(InputError, match="cap must be >= 0, got -1"):
            census(h, 4, p, n=100, cap=-1)

    def test_cap_below_one_edge_raises_before_the_walk(self, monkeypatch):
        # every 3-subset of the 30-vertex edge is a clique
        def no_walk(*args):
            raise AssertionError("the clique walk started")

        monkeypatch.setattr(census_mod, "_walk", no_walk)
        h = Hypergraph(30, [range(30)])
        p = from_edge_counts(100, {2: 10, 3: 5})
        with pytest.raises(CliqueCapError, match="cap of 4059 cliques"):
            census(h, 3, p, n=100, cap=comb(30, 3) - 1)

    def test_cap_at_one_edge_lists_it(self):
        h = Hypergraph(30, [range(30)])
        p = from_edge_counts(100, {2: 10, 3: 5})
        assert census(h, 3, p, n=100, cap=comb(30, 3)).total_cliques == 4060

    def test_k_read_as_an_integer(self):
        h = Hypergraph(5, [(0, 1, 2, 3, 4)])
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        rep = census(h, np.int64(4), p, n=100)
        assert json.dumps(rep.to_dict()) == json.dumps(census(h, 4, p, n=100).to_dict())

    def test_n_read_as_an_integer(self):
        h = Hypergraph(5, [(0, 1, 2, 3, 4)])
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        rep = census(h, 4, p, n=np.int64(100))
        assert type(rep.n) is int
        assert json.dumps(rep.to_dict()) == json.dumps(census(h, 4, p, n=100).to_dict())
        with pytest.raises(InputError, match="n must be an integer, got 100.0"):
            census(h, 4, p, n=100.0)

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

    def test_byte_identical_reports(self):
        # census.json is json.dump(report.to_dict(), indent=1) (hnp.cli)
        p = from_edge_counts(150, {2: 60, 3: 25, 4: 10, 5: 5})
        h = sample(150, p, seed=13)
        rep1 = census(h, 4, p, n=150)
        rep2 = census(h, 4, p, n=150)
        assert json.dumps(rep1.to_dict(), indent=1) == json.dumps(rep2.to_dict(), indent=1)

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
