"""Brute-force oracles, independent of the library's search code."""

from collections import Counter, defaultdict
from itertools import combinations, permutations
from math import comb

from hnp import Hypergraph, extra_overlap, intersecting_pairs
from hnp.core import induced_weak


def brute_aut(h: Hypergraph) -> int:
    edge_sets = set(frozenset(e) for e in h.edges)
    count = 0
    for perm in permutations(range(h.n)):
        if all(frozenset(perm[v] for v in e) in edge_sets for e in h.edges):
            count += 1
    return count


def brute_strong_labelled(pattern: Hypergraph, host: Hypergraph) -> int:
    edge_sets = set(frozenset(e) for e in host.edges)
    count = 0
    for img in permutations(range(host.n), pattern.n):
        if all(frozenset(img[v] for v in e) in edge_sets for e in pattern.edges):
            count += 1
    return count


def brute_weak_labelled(pattern: Hypergraph, host: Hypergraph) -> int:
    count = 0
    for img in permutations(range(host.n), pattern.n):
        s = set(img)
        weak_edges = set()
        for e in host.edges:
            inter = frozenset(v for v in e if v in s)
            if inter:
                weak_edges.add(inter)
        if all(frozenset(img[v] for v in f) in weak_edges for f in pattern.edges):
            count += 1
    return count


def brute_strong_count(pattern: Hypergraph, host: Hypergraph) -> int:
    return brute_strong_labelled(pattern, host) // brute_aut(pattern)


def brute_weak_count(pattern: Hypergraph, host: Hypergraph) -> int:
    return brute_weak_labelled(pattern, host) // brute_aut(pattern)


def brute_is_subedge(h1: Hypergraph, h2: Hypergraph) -> bool:
    """h1 embeds with each edge a subset of a distinct h2 edge."""
    if h1.n > h2.n or len(h1.edges) > len(h2.edges):
        return False
    h2_sets = [frozenset(e) for e in h2.edges]
    for vmap in permutations(range(h2.n), h1.n):
        imgs = [frozenset(vmap[v] for v in e) for e in h1.edges]
        for assign in permutations(range(len(h2_sets)), len(imgs)):
            if all(imgs[i] <= h2_sets[assign[i]] for i in range(len(imgs))):
                return True
    return False


def brute_subgraph_classes(h: Hypergraph):
    """Isomorphism classes of (vertex subset, edge subset) substructures."""

    def iso(a, b):
        (na, ea), (nb, eb) = a, b
        if na != nb or len(ea) != len(eb):
            return False
        target = set(frozenset(e) for e in eb)
        for perm in permutations(range(na)):
            if set(frozenset(perm[v] for v in e) for e in ea) == target:
                return True
        return False

    reps = []
    for size in range(1, h.n + 1):
        for vs in combinations(range(h.n), size):
            vset = set(vs)
            inside = [e for e in h.edges if set(e) <= vset]
            remap = {v: i for i, v in enumerate(vs)}
            for mask in range(1 << len(inside)):
                chosen = [inside[i] for i in range(len(inside)) if mask >> i & 1]
                cand = (size, [tuple(sorted(remap[v] for v in e)) for e in chosen])
                if not any(iso(cand, r) for r in reps):
                    reps.append(cand)
    return reps


def complete_hypergraph(n: int) -> Hypergraph:
    edges = []
    for r in range(1, n + 1):
        edges.extend(combinations(range(n), r))
    return Hypergraph(n, edges)


def random_hypergraph(rng, n, n_edges, min_size=1, max_size=4) -> Hypergraph:
    edges = set()
    for _ in range(n_edges):
        size = rng.randint(min_size, min(max_size, n))
        edges.add(tuple(sorted(rng.sample(range(n), size))))
    return Hypergraph(n, edges)


def oracle_graph_cc(g: Hypergraph):
    """Classical clustering coefficients by direct triangle counting."""
    adj = defaultdict(set)
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    tri_at = defaultdict(int)
    for a, b, c in combinations(range(g.n), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            tri_at[a] += 1
            tri_at[b] += 1
            tri_at[c] += 1
    eligible = [v for v in range(g.n) if len(adj[v]) >= 2]
    if not eligible:
        return None, None
    local = [tri_at[v] / comb(len(adj[v]), 2) for v in eligible]
    c_avg = sum(local) / len(eligible)
    wedges = sum(comb(len(adj[v]), 2) for v in eligible)
    c_glob = sum(tri_at[v] for v in eligible) / wedges
    return c_avg, c_glob


def brute_degeneracy_order(adj):
    """Repeated minimum-degree removal by scanning every bucket; ties go to
    the smallest id."""
    n = len(adj)
    deg = [len(a) for a in adj]
    removed = [False] * n
    buckets = {}
    for v in range(n):
        buckets.setdefault(deg[v], set()).add(v)
    order = []
    for _ in range(n):
        d = min(b for b in buckets if buckets[b])
        v = min(buckets[d])
        buckets[d].discard(v)
        removed[v] = True
        order.append(v)
        for u in adj[v]:
            if not removed[u]:
                buckets[deg[u]].discard(u)
                deg[u] -= 1
                buckets.setdefault(deg[u], set()).add(u)
    return order


def brute_observed_signature(h: Hypergraph, s):
    """Signature (e_2 ... e_k) read off the weak substructure induced on s."""
    k = len(s)
    sub, _ = induced_weak(h, s)
    counts = Counter(len(e) for e in sub.edges)
    return tuple(counts.get(r, 0) for r in range(2, k + 1))


def brute_clustering_report(h: Hypergraph, bins: int = 100):
    """clustering_report in two passes: the extra overlap of every
    intersecting pair into a dict, then each vertex's local mean from it."""
    eo = {}
    for i, j in intersecting_pairs(h):
        eo[(i, j)] = extra_overlap(h, i, j)
    hist = [0] * bins
    nonzero = 0
    for v in range(h.n):
        ids = h.incidence[v]
        if len(ids) <= 1:
            c = 0.0
        else:
            total = sum(
                eo[(i, j) if i < j else (j, i)] for i, j in combinations(ids, 2)
            )
            c = total / comb(len(ids), 2)
        if c > 0.0:
            nonzero += 1
        idx = min(int(c * bins), bins - 1)
        hist[idx] += 1
    return {
        "hc_global": (sum(eo.values()) / len(eo)) if eo else 0.0,
        "n_intersecting_pairs": len(eo),
        "hc_local_histogram": hist,
        "n_nonzero_local": nonzero,
    }
