"""Extra-overlap clustering coefficients for hypergraphs, plus the classical
graph clustering coefficients they reduce to on 2-uniform inputs.

For intersecting edges e_i, e_j with differences D_ij = e_i \\ e_j and
D_ji = e_j \\ e_i, the extra overlap is

    EO = (|N(D_ij) ∩ D_ji| + |N(D_ji) ∩ D_ij|) / (|D_ij| + |D_ji|),

where N(S) is the union of open neighbourhoods of S's members. HC_local(v)
averages EO over pairs of edges containing v; HC_global averages over all
intersecting pairs. On a graph both coincide exactly with the classical
coefficients.
"""

from __future__ import annotations

from array import array
from itertools import combinations
from math import comb
from typing import Dict, Iterator, Optional, Tuple

from .core import Hypergraph, _left_sum
from .errors import _integer

__all__ = [
    "extra_overlap",
    "intersecting_pairs",
    "hc_local",
    "hc_global",
    "graph_cc",
    "clustering_report",
]


def _extra_overlap(nb, a: frozenset, b: frozenset) -> float:
    """Extra overlap of the edges a, b; nb[v] is v's 2-section neighbour set."""
    dij = a - b
    dji = b - a
    num = len([y for y in dji if not nb[y].isdisjoint(dij)])
    num += len([x for x in dij if not nb[x].isdisjoint(dji)])
    return num / (len(dij) + len(dji))


def extra_overlap(h: Hypergraph, ei: int, ej: int) -> float:
    """Extra overlap of the edges with ids ei, ej (must differ).

    Nested edges score 0 (one difference is empty, so the numerator is 0);
    both differences empty is impossible since edges are deduplicated.
    """
    m = len(h.edges)
    ei, ej = _integer(ei, "edge id"), _integer(ej, "edge id")
    for e in (ei, ej):
        if not 0 <= e < m:
            raise ValueError(f"edge id {e} outside 0..{m - 1}")
    if ei == ej:
        raise ValueError("extra overlap needs two distinct edges")
    a = frozenset(h.edges[ei])
    b = frozenset(h.edges[ej])
    return _extra_overlap({v: h.neighbors(v) for v in a ^ b}, a, b)


def intersecting_pairs(h: Hypergraph) -> Iterator[Tuple[int, int]]:
    """All unordered pairs of distinct edges sharing a vertex, each exactly
    once: a pair is emitted at its smallest common vertex."""
    edge_sets = [set(e) for e in h.edges]
    for v in range(h.n):
        ids = h.incidence[v]
        for i, j in combinations(ids, 2):
            common = edge_sets[i] & edge_sets[j]
            if min(common) == v:
                yield (i, j) if i < j else (j, i)


def hc_local(h: Hypergraph, v: int) -> float:
    """Mean extra overlap over pairs of edges containing v; 0 when v lies
    in at most one edge. Sums only the pairs _pairs_at scores."""
    v = h._vertex(v)
    ids = h.incidence[v]
    if len(ids) <= 1:
        return 0.0
    nb = {u: h.neighbors(u) for u in h.neighbors(v) | {v}}
    _, overlaps, _ = _pairs_at(h, v, nb, {i: frozenset(h.edges[i]) for i in ids})
    return _left_sum(overlaps) / comb(len(ids), 2)


def hc_global(h: Hypergraph) -> float:
    """Mean extra overlap over all intersecting edge pairs; 0 when none."""
    return clustering_report(h)["hc_global"]


def graph_cc(g: Hypergraph) -> Tuple[Optional[float], Optional[float]]:
    """Classical clustering coefficients (C, C') of a 2-uniform input.

    C averages the local coefficient over vertices of degree >= 2 (lower
    degrees contribute 0 and are excluded from the denominator); C' is
    3 * triangles / adjacent edge pairs. Both are None when no vertex has
    degree >= 2.

    On a graph the extra overlap of the edges vx, vy is 1 when x and y are
    adjacent and 0 otherwise, so hc_local(g, v) is v's local coefficient
    and hc_global is C', both to the bit: every sum is of whole numbers."""
    if not g.is_uniform(2):
        raise ValueError("graph clustering needs a 2-uniform input")
    eligible = [v for v in range(g.n) if g.degree(v) >= 2]
    if not eligible:
        return None, None
    return _left_sum(hc_local(g, v) for v in eligible) / len(eligible), hc_global(g)


def _pairs_at(h: Hypergraph, v: int, nb, edge_sets):
    """At a vertex v in two or more edges: the pairs (i, j), i < j, of edges
    at v that can score above 0, in ascending order; their extra overlaps,
    in the same order; and the pairs at v that also share a vertex below v,
    which were met there first. A pair can score above 0 when some x in
    e_i \\ e_j and y in e_j \\ e_i are 2-section neighbours (both lie in
    N(v)); such pairs are found from a map of each x in N(v) to its edges
    at v and one N(x) & N(v) per x. nb[u] is u's neighbour set and
    edge_sets[i] edge i, for v, N(v) and the edges at v."""
    link: Dict[int, list] = {}
    for i in h.incidence[v]:
        for x in h.edges[i]:
            if x != v:
                link.setdefault(x, []).append(i)
    nbv = nb[v]
    cand = set()
    seen_before = set()
    for x, lx in link.items():
        ys = nb[x] & nbv
        if len(lx) > 1:
            if x < v:
                seen_before.update(combinations(lx, 2))
        elif ys <= edge_sets[lx[0]]:
            continue  # every y shares x's only edge at v
        for y in ys:
            ly = link[y]
            for i in lx:
                if i not in ly:
                    for j in ly:
                        if j not in lx:
                            cand.add((i, j) if i < j else (j, i))
    pairs = sorted(cand)
    return pairs, [_extra_overlap(nb, edge_sets[i], edge_sets[j]) for i, j in pairs], seen_before


def clustering_report(h: Hypergraph, bins: int = 100) -> Dict:
    """JSON-shaped summary: hc_global, number of intersecting pairs, a
    fixed-width histogram of local coefficients over all vertices, and the
    count of nonzero locals.

    One pass over the vertices that scores only the pairs that can score
    above 0, found by _pairs_at. Every other pair at v scores exactly 0.0,
    and adding 0.0 to a sum of non-negative floats leaves it unchanged bit
    for bit, so the sums below equal those over all pairs. A pair sharing
    several vertices is scored at each of them, to the same float each
    time; it joins the global sum only at its smallest common vertex, as in
    intersecting_pairs."""
    bins = _integer(bins, "bins")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    edge_sets = [frozenset(e) for e in h.edges]
    nb = [h.neighbors(v) for v in range(h.n)]
    # the nonzero values in intersecting_pairs order, summed left to right by
    # _left_sum at the end, so that every Python gives the same bits
    overlaps = array("d")
    n_pairs = 0
    hist = [0] * bins
    nonzero = 0
    for v in range(h.n):
        ids = h.incidence[v]
        d = len(ids)
        if d < 2:
            hist[0] += 1  # a local coefficient of 0.0
            continue
        pairs, local, seen_before = _pairs_at(h, v, nb, edge_sets)
        n_pairs += comb(d, 2) - len(seen_before)
        overlaps.extend([eo for pair, eo in zip(pairs, local) if pair not in seen_before])
        c = _left_sum(local) / comb(d, 2)
        if c > 0.0:
            nonzero += 1
        idx = min(int(c * bins), bins - 1)
        hist[idx] += 1
    return {
        "hc_global": (_left_sum(overlaps) / n_pairs) if n_pairs else 0.0,
        "n_intersecting_pairs": n_pairs,
        "hc_local_histogram": hist,
        "n_nonzero_local": nonzero,
    }
