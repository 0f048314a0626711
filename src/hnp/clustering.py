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

from .core import Hypergraph

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
    in at most one edge."""
    ids = h.incidence[v]
    if len(ids) <= 1:
        return 0.0
    total = sum(extra_overlap(h, i, j) for i, j in combinations(ids, 2))
    return total / comb(len(ids), 2)


def hc_global(h: Hypergraph) -> float:
    """Mean extra overlap over all intersecting edge pairs; 0 when none."""
    return clustering_report(h)["hc_global"]


def graph_cc(g: Hypergraph) -> Tuple[Optional[float], Optional[float]]:
    """Classical clustering coefficients (C, C') of a 2-uniform input.

    C averages the local coefficient over vertices of degree >= 2 (lower
    degrees contribute 0 and are excluded from the denominator); C' is
    3 * triangles / adjacent edge pairs. Both are None when no vertex has
    degree >= 2.
    """
    if not g.is_uniform(2):
        raise ValueError("graph clustering needs a 2-uniform input")
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


def clustering_report(h: Hypergraph, bins: int = 100) -> Dict:
    """JSON-shaped summary: hc_global, number of intersecting pairs, a
    fixed-width histogram of local coefficients over all vertices, and the
    count of nonzero locals.

    One pass over the vertices. A pair's extra overlap is computed at its
    smallest common vertex, as in intersecting_pairs, and kept until its
    largest one."""
    edge_sets = [frozenset(e) for e in h.edges]
    nb = [h.neighbors(v) for v in range(h.n)]
    # one value per intersecting pair, in intersecting_pairs order, summed by
    # one sum() at the end: from Python 3.12 a running += would differ from it
    overlaps = array("d")
    shared: Dict[Tuple[int, int], float] = {}
    hist = [0] * bins
    nonzero = 0
    for v in range(h.n):
        ids = h.incidence[v]
        local = []
        for i, j in combinations(ids, 2):
            common = edge_sets[i] & edge_sets[j]
            if min(common) == v:
                x = _extra_overlap(nb, edge_sets[i], edge_sets[j])
                overlaps.append(x)
                if len(common) > 1:
                    shared[(i, j)] = x
            else:
                x = shared.pop((i, j)) if max(common) == v else shared[(i, j)]
            local.append(x)
        c = sum(local) / comb(len(ids), 2) if len(ids) > 1 else 0.0
        if c > 0.0:
            nonzero += 1
        idx = min(int(c * bins), bins - 1)
        hist[idx] += 1
    return {
        "hc_global": (sum(overlaps) / len(overlaps)) if overlaps else 0.0,
        "n_intersecting_pairs": len(overlaps),
        "hc_local_histogram": hist,
        "n_nonzero_local": nonzero,
    }
