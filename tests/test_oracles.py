"""Property tests of clique listing, signatures, census tallies, the
clustering report, graph clustering coefficients and pattern search against
the oracles in util.py and against networkx, on random small hypergraphs."""

from bisect import bisect_left
from collections import Counter
from importlib import import_module
from itertools import combinations, product
from math import comb

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnp import (
    CliqueCapError,
    Hypergraph,
    automorphism_count,
    canonical_form,
    census,
    clustering_report,
    extra_overlap,
    find_strong_copies,
    find_weak_copies,
    from_edge_counts,
    graph_cc,
    hc_local,
    intersecting_pairs,
    is_subedge_system,
    list_k_cliques,
    observed_signature,
    sample,
    two_section,
)
from hnp.isomorphism import _embeddings, _pattern_order
from util import (
    brute_aut,
    brute_canonical_form,
    brute_clustering_report,
    brute_extra_overlap,
    brute_graph_cc,
    brute_clique_sequence,
    brute_hc_local,
    brute_is_subedge,
    brute_observed_signature,
    brute_orientation,
    brute_overcount,
    brute_pair_table,
    brute_pairs,
    brute_strong_maps,
    brute_two_section,
    brute_weak_maps,
)

census_mod = import_module("hnp.census")  # the package's `census` is the function
clustering_mod = import_module("hnp.clustering")
KS = (3, 4, 5)


@st.composite
def hypergraphs(draw, min_n=1, max_n=9):
    """Random hypergraphs with size-1 edges, edges nested in other edges,
    and edges A + {x}, A + {y} that meet any set containing A but not x, y
    in the same intersection A."""
    n = draw(st.integers(min_n, max_n))
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
def test_clique_sequence_matches_oracle_order(h):
    for k in KS:
        assert list(list_k_cliques(h, k)) == list(brute_clique_sequence(h, k))


@settings(deadline=None)
@given(hypergraphs(), st.data())
def test_signatures_match_oracle(h, data):
    for k in KS:
        for s in list_k_cliques(h, k):
            assert observed_signature(h, s) == brute_observed_signature(h, s)
    s = data.draw(st.lists(st.integers(0, h.n - 1), max_size=h.n, unique=True))
    assert observed_signature(h, s) == brute_observed_signature(h, s)


HUB_CUT = 16  # a hub has a degree above this


@st.composite
def hub_hypergraphs(draw):
    """hypergraphs() on 7 to 9 vertices plus edges through one or two hubs,
    vertices of degree above HUB_CUT: each added edge is the hubs plus a
    set of at most three other vertices."""
    base = draw(hypergraphs(min_n=7))
    hubs = set(range(draw(st.integers(1, 2))))
    rest = range(len(hubs), base.n)
    tails = [set(c) for r in range(4) for c in combinations(rest, r)]
    m = draw(st.integers(HUB_CUT + 1, len(tails)))
    added = [hubs | t for t in draw(st.permutations(tails))[:m]]
    h = Hypergraph(base.n, list(base.edges) + added)
    assert min(h.degree(v) for v in hubs) > HUB_CUT
    return h


CENSUS_P = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})


@settings(deadline=None)
@given(st.one_of(hypergraphs(), hub_hypergraphs()))
def test_census_tallies_match_oracle(h):
    for k in KS:
        want = Counter(brute_observed_signature(h, s) for s in list_k_cliques(h, k))
        report = census(h, k, CENSUS_P, n=100)
        assert {row.signature: row.observed_count for row in report.rows} == want
        assert report.total_cliques == sum(want.values())


@settings(deadline=None)
@given(st.one_of(hypergraphs(), hub_hypergraphs()), st.data())
def test_census_ignores_the_vertex_labels(h, data):
    # relabelling moves vertices in the degree order and breaks its ties
    # differently, so the walk lists the cliques in another order
    perm = data.draw(st.permutations(range(h.n)))
    g = Hypergraph(h.n, [[perm[v] for v in e] for e in h.edges])
    for k in KS:
        assert census(g, k, CENSUS_P, n=100).to_dict() == census(h, k, CENSUS_P, n=100).to_dict()
        back = {tuple(sorted(perm.index(v) for v in c)) for c in list_k_cliques(g, k)}
        assert back == set(list_k_cliques(h, k))


@settings(deadline=None)
@given(st.one_of(hypergraphs(), hub_hypergraphs()), st.data())
def test_census_cap_raises_exactly_past_the_clique_count(h, data):
    for k in KS:
        count = sum(1 for _ in list_k_cliques(h, k))
        cap = data.draw(st.integers(max(0, count - 2), count + 1))
        if count > cap:
            with pytest.raises(CliqueCapError, match=str(cap)):
                census(h, k, CENSUS_P, n=100, cap=cap)
            with pytest.raises(CliqueCapError, match=str(cap)):
                list(list_k_cliques(h, k, cap=cap))
        else:
            assert census(h, k, CENSUS_P, n=100, cap=cap).total_cliques == count
            assert len(list(list_k_cliques(h, k, cap=cap))) == count


@settings(deadline=None)
@given(st.one_of(hypergraphs(), hub_hypergraphs()), st.data())
def test_clique_blocks_carry_their_pair_places(h, data):
    """Each listed clique comes with the places in the pair keys of its
    C(k, 2) pairs, in whole listings and in listings a cap stops partway."""
    keys = h._pair_table()[0].tolist()
    for k in KS:
        count = sum(1 for _ in list_k_cliques(h, k))
        for cap in (census_mod.DEFAULT_CLIQUE_CAP, data.draw(st.integers(0, max(count - 1, 0)))):
            listed = 0
            try:
                for cliques, places in census_mod._clique_blocks(h, k, cap):
                    assert places.shape == (len(cliques), comb(k, 2))
                    for row, at in zip(cliques.tolist(), places.tolist()):
                        assert {keys[p] for p in at} == {a * h.n + b for a, b in combinations(row, 2)}
                    listed += len(cliques)
            except CliqueCapError:
                assert listed <= cap < count
            else:
                assert listed == count


@settings(deadline=None)
@given(
    st.one_of(hypergraphs(), hub_hypergraphs()),
    st.lists(
        st.tuples(st.sampled_from((list_k_cliques, census)), st.sampled_from(KS), st.booleans()),
        min_size=1,
        max_size=6,
    ),
    st.data(),
)
def test_orientation_cache_is_invisible(h, calls, data):
    """Listings and censuses in any order on one host, capped ones that
    raise among them, give what each gives on a fresh host."""

    def outcome(host, call, k, cap):
        got = []
        try:
            if call is census:
                return census(host, k, CENSUS_P, n=100, cap=cap).to_dict()
            for clique in list_k_cliques(host, k, cap=cap):
                got.append(clique)
        except CliqueCapError as exc:
            got.append(str(exc))
        return got

    for call, k, capped in calls:
        cap = data.draw(st.integers(0, 3)) if capped else census_mod.DEFAULT_CLIQUE_CAP
        assert outcome(h, call, k, cap) == outcome(Hypergraph(h.n, h.edges), call, k, cap)


# edgeless hosts (n = 0 among them), hosts with only size-1 edges, and
# hosts with size-1 and nested edges
PAIR_HOSTS = st.one_of(
    st.builds(Hypergraph, st.integers(0, 3)),
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=1).map(lambda vs: Hypergraph(n, [(v,) for v in vs]))
    ),
    hypergraphs(),
    hub_hypergraphs(),
)


@settings(deadline=None)
@given(PAIR_HOSTS)
def test_degree_order_matches_oracle(h):
    oriented = h._orientation()
    assert h._neighbors == {}  # read off the pair table, not the neighbour sets
    assert [a.dtype for a in oriented] == [np.int64] * 4
    assert tuple(tuple(a.tolist()) for a in oriented[:3]) == brute_orientation(h)
    assert_places(h, oriented)
    assert h._orientation() is oriented
    # Chiba & Nishizeki: a vertex's later neighbours all have at least its
    # degree, so their degrees sum to at least the square of its out-degree
    _, starts, forward, _ = oriented
    assert int(np.diff(starts).max(initial=0)) ** 2 <= 2 * len(forward)


def test_degree_order_matches_oracle_on_a_tied_host():
    # the host of test_emission_order_pinned: 3000 vertices, most of them
    # tied in degree with many others
    n = 3000
    h = sample(n, from_edge_counts(n, {2: 3600, 3: 1300, 4: 630, 5: 340}), seed=2024)
    oriented = h._orientation()
    assert h._neighbors == {}
    assert tuple(tuple(a.tolist()) for a in oriented[:3]) == brute_orientation(h)
    assert_places(h, oriented)


def assert_places(h, oriented):
    """keys[place[j]] is the key of forward pair j, the pair of forward[j]
    and the vertex whose run holds it."""
    order, starts, forward, place = oriented
    tail = np.repeat(order, np.diff(starts))
    keys = h._pair_table()[0]
    assert keys[place].tolist() == (np.minimum(tail, forward) * h.n + np.maximum(tail, forward)).tolist()


@settings(deadline=None)
@given(PAIR_HOSTS)
def test_pair_table_matches_oracle(h):
    table = h._pair_table()
    assert [a.dtype for a in table] == [np.int64, np.int32, np.int32]
    assert tuple(a.tolist() for a in table) == brute_pair_table(h)
    assert h._pair_table() is table


@settings(deadline=None)
@given(PAIR_HOSTS, st.data())
def test_pair_lookup_matches_oracle(h, data):
    """_pair_at on a column of vertices against a row: a pair of the
    2-section is a hit, any other pair (a vertex with itself among them) a
    miss, and at counts the 2-section's pairs before it."""
    pairs = sorted(brute_pairs(h))
    vertices = st.lists(st.integers(0, h.n - 1), max_size=5) if h.n else st.just([])
    a, b = data.draw(vertices), data.draw(vertices)
    for x, y in data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []:
        a.append(x)
        b.append(y)
    at, hit = h._pair_at(np.array(a, np.int64)[:, None], np.array(b, np.int64))
    assert at.shape == hit.shape == (len(a), len(b)) and hit.dtype == bool
    for s, x in enumerate(a):
        for t, y in enumerate(b):
            pair = (min(x, y), max(x, y))
            assert hit[s, t] == (pair in pairs)
            assert at[s, t] == bisect_left(pairs, pair)


@settings(deadline=None)
@given(PAIR_HOSTS)
def test_two_section_matches_oracle(h):
    g, want = two_section(h), brute_two_section(h)
    assert type(g) is type(want)
    assert (g.n, g.edges, g.incidence) == (want.n, want.edges, want.incidence)
    assert all(type(v) is int for e in g.edges for v in e)


@settings(deadline=None)
@given(
    PAIR_HOSTS,
    st.lists(st.tuples(st.sampled_from((two_section, census)), st.sampled_from(KS)), max_size=6),
)
def test_pair_table_cache_is_invisible(h, calls):
    """two_section and censuses in any order on one host give what each
    gives on a fresh host."""

    def outcome(host, call, k):
        if call is census:
            return census(host, k, CENSUS_P, n=100).to_dict()
        g = two_section(host)
        return g.edges, g.incidence

    for call, k in calls:
        assert outcome(h, call, k) == outcome(Hypergraph(h.n, h.edges), call, k)


@settings(deadline=None)
@given(PAIR_HOSTS, st.integers(1, 12))
def test_clustering_report_matches_oracle(h, bins):
    assert clustering_report(h) == brute_clustering_report(h)
    assert clustering_report(h, bins) == brute_clustering_report(h, bins)
    assert [hc_local(h, v) for v in range(h.n)] == [brute_hc_local(h, v) for v in range(h.n)]


@st.composite
def sparse_hub_hosts(draw):
    """Hosts on up to 60 vertices with edges of size 2 to 5 and one or two
    hubs, each in many edges: most pairs of edges at a hub score 0."""
    n = draw(st.integers(6, 60))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.sets(vertex, min_size=2, max_size=5), max_size=40))
    for hub in draw(st.lists(vertex, min_size=1, max_size=2, unique=True)):
        rest = st.sets(vertex.filter(lambda u: u != hub), min_size=1, max_size=4)
        edges += [e | {hub} for e in draw(st.lists(rest, min_size=4, max_size=20))]
    return Hypergraph(n, edges)


@settings(deadline=None)
@given(sparse_hub_hosts())
def test_clustering_report_matches_oracle_on_sparse_hub_hosts(h):
    report = clustering_report(h)
    assert report == brute_clustering_report(h)
    assert report["n_intersecting_pairs"] == len(list(intersecting_pairs(h)))
    assert [hc_local(h, v) for v in range(h.n)] == [brute_hc_local(h, v) for v in range(h.n)]


@st.composite
def big_edge_hosts(draw):
    """Hosts on up to 40 vertices with one edge of 8 to 25 vertices, edges of
    2 to 4 vertices (some inside the large one, some nested in others) and
    size-1 edges: most triangles lie inside the large edge, and most of
    those score nothing."""
    n = draw(st.integers(8, 40))
    vertex = st.integers(0, n - 1)
    big = draw(st.sets(vertex, min_size=8, max_size=min(25, n)))
    edges = [big] + draw(st.lists(st.sets(vertex, min_size=2, max_size=4), max_size=15))
    inside = st.sets(st.sampled_from(sorted(big)), min_size=2, max_size=4)
    edges += draw(st.lists(inside, max_size=5))
    for e in draw(st.lists(st.sampled_from(edges[1:]), max_size=3)) if len(edges) > 1 else []:
        edges.append(draw(st.sets(st.sampled_from(sorted(e)), min_size=1)))
    edges += [{v} for v in draw(st.lists(vertex, max_size=3))]
    return Hypergraph(n, edges)


@settings(deadline=None)
@given(big_edge_hosts(), st.data())
def test_clustering_matches_oracle_on_big_edge_hosts(h, data):
    assert clustering_report(h) == brute_clustering_report(h)
    assert [hc_local(h, v) for v in range(h.n)] == [brute_hc_local(h, v) for v in range(h.n)]
    if len(h.edges) > 1:
        ids = st.integers(0, len(h.edges) - 1)
        i, j = data.draw(st.lists(ids, min_size=2, max_size=2, unique=True))
        assert extra_overlap(h, i, j) == brute_extra_overlap(h, i, j)
    g = two_section(h)
    assert graph_cc(g) == brute_graph_cc(g)


@st.composite
def nested_hosts(draw):
    """Hosts on up to 10 vertices with edges of up to 6 vertices and edges
    made of most of another's vertices plus a few more, so that two edges
    share up to 5 vertices."""
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.sets(vertex, min_size=1, max_size=6), min_size=1, max_size=8))
    for e in draw(st.lists(st.sampled_from(edges), max_size=6)):
        inner = draw(st.sets(st.sampled_from(sorted(e)), min_size=1))
        edges.append(inner | set(draw(st.lists(vertex, max_size=6 - len(inner)))))
    return Hypergraph(n, edges)


@settings(deadline=None)
@given(st.one_of(nested_hosts(), PAIR_HOSTS))
def test_overcount_matches_oracle(h):
    assert clustering_mod._overcount(h) == brute_overcount(h)


@settings(deadline=None)
@given(st.one_of(PAIR_HOSTS, big_edge_hosts()))
def test_extra_overlap_matches_oracle_on_every_pair(h):
    """Every ordered pair of distinct edges: disjoint, nested and size-1
    edges among them."""
    for i in range(len(h.edges)):
        for j in range(len(h.edges)):
            if i != j:
                eo = extra_overlap(h, i, j)
                assert eo == brute_extra_overlap(h, i, j)
                assert eo == extra_overlap(h, j, i)


@settings(deadline=None)
@given(st.one_of(hub_hypergraphs(), sparse_hub_hosts(), big_edge_hosts()), st.integers(1, 12))
def test_clustering_matches_oracle_in_narrow_key_windows(h, span):
    """Pair keys spread over windows of span keys each, as they would be on
    a host whose m^2 * n passed 2^63."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering_mod, "_KEY_LIMIT", span * max(h.n, 1))
        assert clustering_report(h) == brute_clustering_report(h)
        assert [hc_local(h, v) for v in range(h.n)] == [brute_hc_local(h, v) for v in range(h.n)]


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


@st.composite
def graphs(draw, max_n=12):
    """Random simple graphs as 2-uniform hypergraphs, isolated vertices
    allowed."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Hypergraph(n, edges)


@settings(deadline=None)
@given(graphs())
def test_graph_cc_matches_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    eligible = [v for v in range(g.n) if nxg.degree(v) >= 2]
    if not eligible:
        assert graph_cc(g) == (None, None)
        return
    local = nx.clustering(nxg)
    c, c_prime = graph_cc(g)
    # the mean's summation order is not part of the definition
    assert c == pytest.approx(sum(local[v] for v in eligible) / len(eligible), rel=1e-12)
    assert c_prime == nx.transitivity(nxg)


@settings(deadline=None)
@given(graphs(max_n=20))
def test_graph_cc_matches_triangle_loop_bit_for_bit(g):
    assert graph_cc(g) == brute_graph_cc(g)


@st.composite
def patterns(draw):
    """Small patterns that exercise every search step without a placed
    neighbour: up to two components, each with size-1 edges allowed, plus
    isolated vertices."""
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(1, 3))
        vertex = st.integers(0, size - 1)
        part = draw(st.lists(st.sets(vertex, min_size=1, max_size=3), max_size=3))
        edges += [{v + n for v in e} for e in part]
        n += size
    n += draw(st.integers(0, 1))
    return Hypergraph(n, edges)


def _check_list(find, brute, pattern, host):
    found = find(pattern, host, mode="list")
    maps = [e.mapping for e in found]
    assert set(maps) == brute(pattern, host)
    # every step visits host ids in ascending order
    order = _pattern_order(pattern)
    keys = [tuple(m[v] for v in order) for m in maps]
    assert keys == sorted(set(keys))
    return found


@settings(deadline=None)
@given(patterns(), hypergraphs(max_n=6))
def test_strong_list_matches_oracle(pattern, host):
    found = _check_list(find_strong_copies, brute_strong_maps, pattern, host)
    assert all(e.witnesses is None for e in found)


@settings(deadline=None)
@given(patterns(), hypergraphs(max_n=6))
def test_weak_list_matches_oracle(pattern, host):
    for e in _check_list(find_weak_copies, brute_weak_maps, pattern, host):
        image = set(e.mapping)
        for f, wid in zip(pattern.edges, e.witnesses):
            assert image.intersection(host.edges[wid]) == {e.mapping[v] for v in f}


@settings(deadline=None)
@given(patterns(), hypergraphs(max_n=6))
def test_weak_witnesses_are_smallest_ids(pattern, host):
    for e in find_weak_copies(pattern, host, mode="list"):
        image = set(e.mapping)
        want = tuple(
            min(i for i, he in enumerate(host.edges)
                if image.intersection(he) == {e.mapping[v] for v in f})
            for f in pattern.edges
        )
        assert e.witnesses == want


@settings(deadline=None)
@given(patterns(), hypergraphs(max_n=6))
def test_weak_containing_lists_every_host_edge_holding_the_image(pattern, host):
    maps = set()
    for mapping, containing in _embeddings(pattern, host, weak=True):
        maps.add(mapping)
        for f, hits in zip(pattern.edges, containing):
            image = {mapping[v] for v in f}
            assert hits == [i for i, e in enumerate(host.edges) if image.issubset(e)]
    # the search prunes no weak copy
    assert brute_weak_maps(pattern, host) <= maps


@settings(deadline=None)
@given(patterns(), hypergraphs(max_n=6), st.booleans(), st.data())
def test_pinned_search_keeps_exactly_the_agreeing_maps(pattern, host, weak, data):
    pins = data.draw(
        st.dictionaries(st.integers(0, pattern.n - 1), st.integers(0, host.n - 1), max_size=3)
    )
    full = [m for m, _ in _embeddings(pattern, host, weak)]
    got = [m for m, _ in _embeddings(pattern, host, weak, pins)]
    assert sorted(got) == [m for m in sorted(full) if all(m[v] == u for v, u in pins.items())]


@settings(deadline=None)
@given(st.one_of(patterns(), hypergraphs(max_n=5)), hypergraphs(max_n=5))
def test_is_subedge_system_matches_oracle(h1, h2):
    assert is_subedge_system(h1, h2) == brute_is_subedge(h1, h2)


@settings(deadline=None)
@given(st.one_of(patterns(), hypergraphs(max_n=7)))
def test_automorphism_count_matches_oracle(h):
    assert automorphism_count(h) == brute_aut(h)


@st.composite
def twin_blowups(draw):
    """Hypergraphs on at most 7 vertices with twins: each vertex of a base
    hypergraph is blown up into a group of 1 to 3 vertices, and each base
    edge becomes either one edge holding every group it meets or every edge
    holding one vertex of each of them. Either way, the transposition of two
    vertices of one group maps the edges onto themselves. The ids are then
    shuffled, so a group is not a run of ids."""
    groups = []
    n = 0
    for _ in range(draw(st.integers(1, 4))):
        if n == 7:
            break
        size = draw(st.integers(1, min(3, 7 - n)))
        groups.append(range(n, n + size))
        n += size
    edges = []
    for base in draw(st.lists(st.sets(st.sampled_from(groups), min_size=1), min_size=1, max_size=5)):
        if draw(st.booleans()):
            edges.append([v for g in base for v in g])
        else:
            edges.extend(product(*base))
    perm = draw(st.permutations(range(n)))
    return Hypergraph(n, [[perm[v] for v in e] for e in edges])


def _canonical_form_agrees(h, data):
    key = canonical_form(h)
    assert key == brute_canonical_form(h)
    perm = data.draw(st.permutations(range(h.n)))
    relabelled = Hypergraph(h.n, [[perm[v] for v in e] for e in h.edges])
    assert canonical_form(relabelled) == key


@settings(deadline=None)
@given(hypergraphs(max_n=7), st.data())
def test_canonical_form_matches_oracle_and_ignores_labels(h, data):
    _canonical_form_agrees(h, data)


@settings(deadline=None)
@given(twin_blowups(), st.data())
def test_canonical_form_with_twins_matches_oracle_and_ignores_labels(h, data):
    _canonical_form_agrees(h, data)
