"""Brute-force oracles, independent of the library's search code."""

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

from hnp import (
    Graph,
    Hypergraph,
    canonical_form,
    extra_overlap,
    intersecting_pairs,
    is_subedge_system,
)
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


def brute_strong_maps(pattern: Hypergraph, host: Hypergraph) -> set:
    """The labelled maps brute_strong_labelled counts, as image tuples
    (img[i] = host vertex of pattern vertex i)."""
    edge_sets = set(frozenset(e) for e in host.edges)
    return {
        img
        for img in permutations(range(host.n), pattern.n)
        if all(frozenset(img[v] for v in e) in edge_sets for e in pattern.edges)
    }


def brute_weak_maps(pattern: Hypergraph, host: Hypergraph) -> set:
    """The labelled maps brute_weak_labelled counts, as image tuples."""
    out = set()
    for img in permutations(range(host.n), pattern.n):
        s = set(img)
        weak_edges = {frozenset(v for v in e if v in s) for e in host.edges}
        if all(frozenset(img[v] for v in f) in weak_edges for f in pattern.edges):
            out.add(img)
    return out


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


def brute_hc_local(h: Hypergraph, v: int) -> float:
    """hc_local by scoring every one of the C(d, 2) pairs of edges at v."""
    ids = h.incidence[v]
    if len(ids) <= 1:
        return 0.0
    total = sum(extra_overlap(h, i, j) for i, j in combinations(ids, 2))
    return total / comb(len(ids), 2)


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


def _levels(p, r):
    """(i, i - alpha_{r+i}) for every nonzero level r+i <= M."""
    return [(i, i - p.alpha(r + i)) for i in range(p.M - r + 1) if p.alpha(r + i) is not None]


def brute_covering_weight(p, r):
    """max_i (i - alpha_{r+i}); None when every level from r up is zero."""
    return max((val for _, val in _levels(p, r)), default=None)


def brute_pad_amount(p, r):
    """The smallest i attaining brute_covering_weight; None when there is none."""
    best = brute_covering_weight(p, r)
    return min((i for i, val in _levels(p, r) if val == best), default=None)


def brute_family_minimum(h: Hypergraph, p, weak: bool):
    """(minimum exponent, witness) over every nonempty edge subset in mask
    order, the single-vertex class capping it at 1; the witness is the
    first strict minimum, on its own support relabelled in sorted order."""
    per_size = {}
    for r in set(len(e) for e in h.edges):
        if r > p.M:
            per_size[r] = None
        elif weak:
            per_size[r] = brute_covering_weight(p, r)
        else:
            a = p.alpha(r)
            per_size[r] = None if a is None else -a
    minus_inf = float("-inf")
    best, best_wit = Fraction(1), Hypergraph(1)
    m = len(h.edges)
    for mask in range(1, 1 << m):
        chosen = [h.edges[i] for i in range(m) if mask >> i & 1]
        support = set().union(*chosen)
        sizes = [per_size[len(e)] for e in chosen]
        val = minus_inf if None in sizes else len(support) + sum(sizes)
        if val < best:
            best = val
            remap = {v: i for i, v in enumerate(sorted(support))}
            best_wit = Hypergraph(len(support), [tuple(remap[v] for v in e) for e in chosen])
    return (None if best == minus_inf else best), best_wit


def brute_two_section_covers(g: Hypergraph):
    """Minimal 2-section covers by the unpruned search: every cover of the
    g-edges by closed vertex subsets, in branching order (first uncovered
    g-edge, candidates by size then lexicographic), then redundant covers
    dropped, one cover per isomorphism class kept (the first reached), and
    classes dominated in the strict subedge order dropped."""
    pairs = [set(e) for e in g.edges]
    candidates = []
    for size in range(2, g.n + 1):
        for sub in combinations(range(g.n), size):
            covered = frozenset(i for i, pr in enumerate(pairs) if pr <= set(sub))
            if covered and set().union(*(pairs[i] for i in covered)) == set(sub):
                candidates.append((sub, covered))
    all_edges = frozenset(range(len(pairs)))
    covers = {}

    def rec(chosen, covered):
        if covered == all_edges:
            covers[frozenset(chosen)] = None
            return
        target = min(all_edges - covered)
        for ci, (_, cov) in enumerate(candidates):
            if target in cov and ci not in chosen:
                rec(chosen + (ci,), covered | cov)

    rec((), frozenset())
    reps = {}
    for cover in covers:
        cov_sets = [candidates[ci][1] for ci in cover]
        if any(
            cs <= set().union(*(c for j, c in enumerate(cov_sets) if j != i))
            for i, cs in enumerate(cov_sets)
        ):
            continue
        hyp = Hypergraph(g.n, [candidates[ci][0] for ci in cover])
        reps.setdefault(canonical_form(hyp), hyp)
    keep = [
        key
        for key, hyp in reps.items()
        if not any(
            is_subedge_system(h2, hyp) and not is_subedge_system(hyp, h2)
            for h2 in reps.values()
        )
    ]
    return [reps[key] for key in sorted(keep)]


def graph_classes():
    """One labelled graph per isomorphism class without isolated vertices
    on 2..5 vertices (33 classes), the first in edge-mask order."""
    reps = {}
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            if all(g.incidence):
                reps.setdefault(canonical_form(g), g)
    assert len(reps) == 33
    return list(reps.values())
