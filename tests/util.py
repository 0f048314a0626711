"""Brute-force oracles, independent of the library's search code."""

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, lcm

from hnp import (
    Graph,
    Hypergraph,
    canonical_form,
    is_subedge_system,
)


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

    def distinct(imgs, taken) -> bool:
        # every assignment of distinct h2-edges, cut where an image does not fit
        return not imgs or any(
            j not in taken and imgs[0] <= s and distinct(imgs[1:], taken | {j})
            for j, s in enumerate(h2_sets)
        )

    return any(
        distinct([frozenset(vmap[v] for v in e) for e in h1.edges], frozenset())
        for vmap in permutations(range(h2.n), h1.n)
    )


def brute_canonical_form(h: Hypergraph):
    """canonical_form by its first implementation: the minimum, over every
    labelling that permutes each refined colour class within its block of
    labels, of the sorted relabelled edge list."""
    active = [v for v in range(h.n) if h.incidence[v]]
    if not active:
        return (h.n, ())
    colors = {
        v: (
            len(h.incidence[v]),
            tuple(sorted((len(h.edges[i]) for i in h.incidence[v]))),
        )
        for v in active
    }
    for _ in range(2):
        ranks = {c: i for i, c in enumerate(sorted(set(colors.values())))}
        refined = {
            v: (
                ranks[colors[v]],
                tuple(sorted(ranks[colors[u]] for u in h.neighbors(v))),
            )
            for v in active
        }
        if len(set(refined.values())) == len(set(colors.values())):
            colors = refined
            break
        colors = refined

    groups = {}
    for v in active:
        groups.setdefault(colors[v], []).append(v)
    ordered_groups = [groups[c] for c in sorted(groups)]

    best = None
    offsets = []
    pos = 0
    for g in ordered_groups:
        offsets.append(pos)
        pos += len(g)

    def assignments(gi, label):
        if gi == len(ordered_groups):
            yield label
            return
        base = offsets[gi]
        for perm in permutations(ordered_groups[gi]):
            for i, v in enumerate(perm):
                label[v] = base + i
            yield from assignments(gi + 1, label)

    for label in assignments(0, {}):
        relabelled = tuple(
            sorted(
                (tuple(sorted(label[v] for v in e)) for e in h.edges),
                key=lambda t: (len(t), t),
            )
        )
        if best is None or relabelled < best:
            best = relabelled
    return (h.n, best)


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


def brute_graph_cc(g: Hypergraph):
    """Classical clustering coefficients by one triangle and wedge count per
    vertex of degree >= 2, each local coefficient added to a running float
    sum in vertex order."""
    eligible = [v for v in range(g.n) if len(g.neighbors(v)) >= 2]
    if not eligible:
        return None, None
    tri_sum = 0
    wedge_sum = 0
    local_sum = 0.0
    for v in eligible:
        nb = sorted(g.neighbors(v))
        tri = sum(1 for x, y in combinations(nb, 2) if y in g.neighbors(x))
        wedges = comb(len(nb), 2)
        tri_sum += tri
        wedge_sum += wedges
        local_sum += tri / wedges
    return local_sum / len(eligible), tri_sum / wedge_sum


def brute_degree_order(adj):
    """Vertices by ascending degree, ties to the smallest id."""
    return sorted(range(len(adj)), key=lambda v: (len(adj[v]), v))


def brute_orientation(h: Hypergraph):
    """(order, starts, forward) as Hypergraph._orientation defines them:
    brute_degree_order, and each vertex's later neighbours sorted by
    position, concatenated in order with starts marking where each run
    begins."""
    adj = [h.neighbors(v) for v in range(h.n)]
    order = brute_degree_order(adj)
    pos = {v: i for i, v in enumerate(order)}
    starts, forward = [0], []
    for v in order:
        forward += sorted((u for u in adj[v] if pos[u] > pos[v]), key=pos.get)
        starts.append(len(forward))
    return tuple(order), tuple(starts), tuple(forward)


def brute_clique_sequence(h: Hypergraph, k: int):
    """K_k copies of the 2-section as sorted tuples, in the order the census
    walk lists them: vertices in brute_orientation's order, each extended
    recursively by the common forward neighbours of the clique so far, in
    that order."""
    adj = [h.neighbors(v) for v in range(h.n)]
    order, starts, forward = brute_orientation(h)

    def extend(clique, cands):
        if len(clique) == k:
            yield tuple(sorted(clique))
            return
        for i, u in enumerate(cands):
            yield from extend(clique + [u], [w for w in cands[i + 1 :] if w in adj[u]])

    for v, a, b in zip(order, starts, starts[1:]):
        yield from extend([v], forward[a:b])


def brute_pair_table(h: Hypergraph):
    """(keys, offsets, ids) as Hypergraph._pair_table defines them, as
    lists: every pair a < b of each edge, in a dict to the ids of the edges
    holding it, read out in pair order."""
    holding = defaultdict(list)
    for i, e in enumerate(h.edges):
        for pair in combinations(e, 2):
            holding[pair].append(i)
    keys, offsets, ids = [], [0], []
    for a, b in sorted(holding):
        keys.append(a * h.n + b)
        ids += holding[(a, b)]
        offsets.append(len(ids))
    return keys, offsets, ids


def brute_pairs(h: Hypergraph) -> set:
    """The pairs (a, b), a < b, of vertices sharing an edge."""
    return {pair for e in h.edges for pair in combinations(e, 2)}


def brute_overcount(h: Hypergraph) -> int:
    """The sum of s - 1 over the pairs of edges sharing s >= 2 vertices,
    from the intersection of every pair of edges."""
    shared = (len(set(a) & set(b)) for a, b in combinations(h.edges, 2))
    return sum(s - 1 for s in shared if s >= 2)


def brute_two_section(h: Hypergraph) -> Graph:
    """The 2-section from the pairs of every edge, through the public
    constructor."""
    pairs = set()
    for e in h.edges:
        pairs.update(combinations(e, 2))
    return Graph(h.n, pairs)


def brute_induced(h: Hypergraph, s, strong: bool) -> Hypergraph:
    """induced_strong (strong) or induced_weak from the definition: e ∩ s
    for every edge e of h, relabelled in sorted order of s, kept when
    nonempty (weak) or when it is all of e (strong), through the public
    constructor."""
    kept = sorted(set(s))
    label = {v: i for i, v in enumerate(kept)}
    traces = [(set(e) & set(kept), e) for e in h.edges]
    return Hypergraph(len(kept), [[label[v] for v in t] for t, e in traces if (len(t) == len(e) if strong else t)])


def brute_observed_signature(h: Hypergraph, s):
    """Signature (e_2 ... e_k) read off the weak substructure induced on s."""
    k = len(s)
    counts = Counter(len(e) for e in brute_induced(h, s, strong=False).edges)
    return tuple(counts.get(r, 0) for r in range(2, k + 1))


def _adjacency(h: Hypergraph):
    """2-section neighbour sets from every pair of every edge."""
    adj = defaultdict(set)
    for e in h.edges:
        for x, y in combinations(e, 2):
            adj[x].add(y)
            adj[y].add(x)
    return adj


def _overlap(adj, a, b) -> float:
    """The extra overlap of the vertex sets a, b from its definition."""
    dij, dji = a - b, b - a
    num = sum(1 for y in dji if adj[y] & dij) + sum(1 for x in dij if adj[x] & dji)
    return num / (len(dij) + len(dji))


def brute_extra_overlap(h: Hypergraph, i: int, j: int) -> float:
    """extra_overlap from its definition."""
    return _overlap(_adjacency(h), set(h.edges[i]), set(h.edges[j]))


def _left_to_right(values) -> float:
    total = 0.0
    for x in values:
        total += x
    return total


def _edges_at(h: Hypergraph, v: int):
    return [i for i, e in enumerate(h.edges) if v in e]


def brute_incidence(h: Hypergraph):
    """incidence one vertex at a time: the ids of the edges holding v,
    ascending, found by scanning every edge."""
    return tuple(tuple(_edges_at(h, v)) for v in range(h.n))


def brute_hc_local(h: Hypergraph, v: int) -> float:
    """hc_local by scoring every one of the C(d, 2) pairs of edges at v from
    the definition, added left to right."""
    ids = _edges_at(h, v)
    if len(ids) <= 1:
        return 0.0
    adj = _adjacency(h)
    overlaps = (_overlap(adj, set(h.edges[i]), set(h.edges[j])) for i, j in combinations(ids, 2))
    return _left_to_right(overlaps) / comb(len(ids), 2)


def brute_clustering_report(h: Hypergraph, bins: int = 100):
    """clustering_report in two passes: the extra overlap of every pair of
    edges sharing a vertex, from the definition, into a dict in (smallest
    common vertex, i, j) order, then each vertex's local mean from it; every
    sum is added left to right."""
    adj = _adjacency(h)
    sets = [set(e) for e in h.edges]
    meeting = sorted(
        (min(sets[i] & sets[j]), i, j)
        for i, j in combinations(range(len(sets)), 2)
        if sets[i] & sets[j]
    )
    eo = {(i, j): _overlap(adj, sets[i], sets[j]) for _, i, j in meeting}
    hist = [0] * bins
    nonzero = 0
    for v in range(h.n):
        ids = _edges_at(h, v)
        if len(ids) <= 1:
            c = 0.0
        else:
            c = _left_to_right(eo[pair] for pair in combinations(ids, 2)) / comb(len(ids), 2)
        if c > 0.0:
            nonzero += 1
        idx = min(int(c * bins), bins - 1)
        hist[idx] += 1
    return {
        "hc_global": (_left_to_right(eo.values()) / len(eo)) if eo else 0.0,
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
    first strict minimum, on its own support relabelled in sorted order.

    Each subset is valued in integers: its terms scaled by the least common
    multiple of their denominators, its support an OR of vertex bitmasks,
    both built from the subset without its lowest edge."""
    per_size = {}
    for r in set(len(e) for e in h.edges):
        if r > p.M:
            per_size[r] = None
        elif weak:
            per_size[r] = brute_covering_weight(p, r)
        else:
            a = p.alpha(r)
            per_size[r] = None if a is None else -a
    scale = lcm(*(t.denominator for t in per_size.values() if t is not None))
    m = len(h.edges)
    verts = [sum(1 << v for v in e) for e in h.edges]
    terms = [per_size[len(e)] for e in h.edges]
    scaled = [0 if t is None else int(t * scale) for t in terms]
    minus_inf_edges = sum(1 << i for i, t in enumerate(terms) if t is None)
    minus_inf = float("-inf")
    support, total = [0] * (1 << m), [0] * (1 << m)
    best, best_mask = scale, 0
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        support[mask] = support[rest] | verts[low]
        total[mask] = total[rest] + scaled[low]
        if mask & minus_inf_edges:
            val = minus_inf
        else:
            val = scale * support[mask].bit_count() + total[mask]
        if val < best:
            best, best_mask = val, mask
    best = None if best == minus_inf else Fraction(best, scale)
    if not best_mask:
        return best, Hypergraph(1)
    chosen = [h.edges[i] for i in range(m) if best_mask >> i & 1]
    remap = {v: i for i, v in enumerate(sorted(set().union(*chosen)))}
    return best, Hypergraph(len(remap), [tuple(remap[v] for v in e) for e in chosen])


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
