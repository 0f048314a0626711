"""Extra-overlap clustering coefficients for hypergraphs, plus the classical
graph clustering coefficients they reduce to on 2-uniform inputs.

For intersecting edges e_i, e_j with differences D_ij = e_i \\ e_j and
D_ji = e_j \\ e_i, the extra overlap is

    EO = (|N(D_ij) ∩ D_ji| + |N(D_ji) ∩ D_ij|) / (|D_ij| + |D_ji|),

where N(S) is the union of open neighbourhoods of S's members. HC_local(v)
averages EO over pairs of edges containing v; HC_global averages over all
intersecting pairs. On a graph both coincide exactly with the classical
coefficients.

Every coefficient is read off one array kernel. A pair (i, j) at v scores
above 0 exactly when some x in D_ij and y in D_ji are adjacent: then
{v, x, y} is a triangle of the 2-section, e_i holds vx but not y and e_j
holds vy but not x, and every such (i, j) is a pair of that kind. So the
pairs that can score are read off the triangles that census._walk lists,
each is scored once in blocks of array operations, and every other pair
scores exactly 0.0. A triangle through a vertex in only one edge yields no
pair: that edge holds both of the vertex's pairs, and the third one too.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations
from math import comb
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .census import _SIGN_BLOCK, _spans, _walk, _within
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
    eo, _, _ = _overlaps(h, np.array([min(ei, ej) * m + max(ei, ej)]))
    return float(eo[0])


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
    in at most one edge. Sums, in ascending (i, j) order, the pairs found
    on the triangles through v."""
    v = h._vertex(v)
    d = len(h.incidence[v])
    if d <= 1:
        return 0.0
    low, high = np.divmod(h._pair_table()[0], max(h.n, 1))
    nb = np.concatenate((low[high == v], high[low == v])).tolist()  # ascending
    nb = np.array([u for u in nb if len(h.incidence[u]) > 1], np.int64)
    eo, row, vertex = _overlaps(h, _scoring_pairs(h, np.array([[v]]), nb, np.array([0, len(nb)])))
    return _left_sum(eo[np.sort(row[vertex == v])].tolist()) / comb(d, 2)


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
    local, total, n_pairs = _clustering(g)
    return _left_sum(local[eligible].tolist()) / len(eligible), total / n_pairs


def clustering_report(h: Hypergraph, bins: int = 100) -> Dict:
    """JSON-shaped summary: hc_global, number of intersecting pairs, a
    fixed-width histogram of local coefficients over all vertices, and the
    count of nonzero locals."""
    bins = _integer(bins, "bins")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    local, total, n_pairs = _clustering(h)
    idx = np.minimum((local * bins).astype(np.int64), bins - 1)
    return {
        "hc_global": (total / n_pairs) if n_pairs else 0.0,
        "n_intersecting_pairs": n_pairs,
        "hc_local_histogram": np.bincount(idx, minlength=bins).tolist(),
        "n_nonzero_local": int(np.count_nonzero(local)),
    }


def _clustering(h: Hypergraph) -> Tuple[np.ndarray, float, int]:
    """(local, total, n_pairs): every vertex's local coefficient, the sum of
    the extra overlaps of all intersecting pairs and their number.

    The pairs that score above 0 are found on the triangles of the cached
    degree orientation, vertices in fewer than two edges left out. Adding
    0.0 to a sum of non-negative floats leaves it unchanged bit for bit, so
    the sums over those pairs equal the sums over all pairs: each vertex's
    in ascending (i, j) order, and the global one in (smallest common
    vertex, i, j) order, as intersecting_pairs lists them, each added left
    to right."""
    order, starts, forward = h._orientation()
    deg = np.fromiter(map(len, h.incidence), np.int64, h.n)
    kept = np.repeat(deg[order] > 1, np.diff(starts)) & (deg[forward] > 1)
    off = np.concatenate(([0], np.cumsum(kept)))[starts]
    eo, row, vertex = _overlaps(h, _scoring_pairs(h, order[:, None], forward[kept], off))
    least = np.full(len(eo), h.n)  # each pair's smallest common vertex
    np.minimum.at(least, row, vertex)
    total = float(np.cumsum(eo[np.argsort(least, kind="stable")])[-1]) if len(eo) else 0.0
    sums = _left_sums(eo[row[np.lexsort((row, vertex))]], np.bincount(vertex, minlength=h.n))
    wedges = deg * (deg - 1) // 2
    local = np.divide(sums, wedges, out=np.zeros(h.n), where=wedges > 0)
    return local, total, int(wedges.sum()) - _shared_excess(h)


def _scoring_pairs(
    h: Hypergraph, prefix: np.ndarray, cands: np.ndarray, off: np.ndarray
) -> np.ndarray:
    """The distinct pairs (i, j), i < j, of edges that score above 0 at a
    vertex of a triangle found by census._walk below the given nodes, as
    ascending keys i * m + j, m the number of edges (the pair table's edge
    ids are int32, so a key stays below 2**62).

    At the apex v of a triangle {v, x, y}, the pairs are E(vx) \\ E(vy) times
    E(vy) \\ E(vx), E(ab) the run of edges holding ab in the pair table. An
    apex whose two runs are one and the same edge yields none and is
    dropped first; in the product of the others, an edge found in both runs
    (one holding the whole triangle) is dropped from both sides."""
    keys, offsets, ids = h._pair_table()
    m, count = len(h.edges), np.diff(offsets)
    solo = np.where(count == 1, ids[offsets[:-1]], -1)  # each pair's only edge, if one
    found = np.empty(0, np.int64)
    for pre, w, o in _walk(keys, h.n, prefix, cands, off, 2):
        r, u = np.repeat(pre, np.diff(o), axis=0).T
        ru = np.repeat(_at(h, pre[:, 0], pre[:, 1]), np.diff(o))
        rw = _at(h, r, w)
        # ru and rw held by one and the same edge alone: it holds the
        # triangle, so at each apex one run lies within the other
        live = (solo[ru] < 0) | (solo[ru] != solo[rw])
        ru, rw = ru[live], rw[live]
        uw = _at(h, u[live], w[live])
        for one, two in ((ru, rw), (ru, uw), (rw, uw)):  # the two runs at each apex
            live = (solo[one] < 0) | (solo[one] != solo[two])
            one, two = one[live], two[live]
            s1, c1, s2, c2 = offsets[one], count[one], offsets[two], count[two]
            size = c1.astype(np.int64) * c2
            for lo, hi in _spans(np.concatenate(([0], np.cumsum(size))), _SIGN_BLOCK):
                apex = np.repeat(np.arange(hi - lo), size[lo:hi])
                p, q = np.divmod(_within(size[lo:hi]), c2[lo:hi][apex])
                i, j = ids[s1[lo:hi][apex] + p], ids[s2[lo:hi][apex] + q]
                # an edge in both runs, as (apex, place in the run), each side
                slot1 = (np.cumsum(c1[lo:hi]) - c1[lo:hi])[apex] + p
                slot2 = (np.cumsum(c2[lo:hi]) - c2[lo:hi])[apex] + q
                both1 = np.bincount(slot1[i == j], minlength=int(c1[lo:hi].sum())) > 0
                both2 = np.bincount(slot2[i == j], minlength=int(c2[lo:hi].sum())) > 0
                keep = ~both1[slot1] & ~both2[slot2]
                i, j = i[keep].astype(np.int64), j[keep].astype(np.int64)
                pairs = _distinct(np.minimum(i, j) * m + np.maximum(i, j))
                # grown in place: a list of small arrays, made between the
                # temporaries, left hub_census about 0.5 MB higher in peak RSS
                found.resize(len(found) + len(pairs), refcheck=False)
                found[len(found) - len(pairs) :] = pairs
    return _distinct(found)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an array, ascending; sorts it in place."""
    values.sort()
    new = np.ones(len(values), bool)
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return values[new]


def _at(h: Hypergraph, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where each pair of 2-section neighbours (a[t], b[t]) is in the pair keys."""
    return np.searchsorted(h._pair_table()[0], np.minimum(a, b) * h.n + np.maximum(a, b))


def _overlaps(h: Hypergraph, pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eo, row, vertex): the extra overlap eo[t] of each pair of edges
    (i, j) given as pairs[t] = i * m + j, m the number of edges, and their
    common vertices, vertex[s] one of pair row[s], in no particular order.

    The pairs are scored in dense blocks of one pair of edge sizes (a, b)
    and at most _SIGN_BLOCK vertex pairs (x, y), x in e_i and y in e_j (or
    one pair of edges). Adjacency is a binary search in the pair keys, and
    eo is one true division of two integers, the float Python gives."""
    keys, n, edges = h._pair_table()[0], h.n, h.edges
    order, groups = _by_sizes(h, pairs)
    eo = np.empty(len(pairs))
    rows, vertices = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for first, end, a, b in groups:
        step = max(1, _SIGN_BLOCK // (a * b))
        for lo in range(first, end, step):
            t = order[lo : min(end, lo + step)]
            i, j = np.divmod(pairs[t], len(edges))
            ei = np.array([edges[e] for e in i.tolist()], np.int64)
            ej = np.array([edges[e] for e in j.tolist()], np.int64)
            x, y = np.broadcast_arrays(ei[:, :, None], ej[:, None, :])
            same = x == y
            in_j, in_i = same.any(axis=2), same.any(axis=1)  # the common vertices, each side
            pair = np.minimum(x, y) * n + np.maximum(x, y)
            hit = np.zeros(pair.shape, bool)
            if len(keys):  # else the host has no pairs
                hit = keys.take(np.searchsorted(keys, pair), mode="clip") == pair
            hit &= ~in_j[:, :, None] & ~in_i[:, None, :]
            num = hit.any(axis=2).sum(axis=1) + hit.any(axis=1).sum(axis=1)
            eo[t] = num / (a + b - in_j.sum(axis=1) - in_i.sum(axis=1))
            r, c = np.nonzero(in_j)
            rows.append(t[r])
            vertices.append(ei[r, c])
    return eo, np.concatenate(rows), np.concatenate(vertices)


def _by_sizes(h: Hypergraph, pairs: np.ndarray) -> Tuple[np.ndarray, list]:
    """(order, groups) for pairs of edges given as keys i * m + j: the order
    putting them in runs of one pair of sizes (|e_i|, |e_j|), and each run
    as (start, end, |e_i|, |e_j|) in that order. The edges are in (size,
    tuple) order, so each size is one range of edge ids."""
    sizes, firsts, lo = [], [], 0
    while lo < len(h.edges):
        sizes.append(len(h.edges[lo]))
        firsts.append(lo)
        lo = bisect_right(h.edges, sizes[-1], lo, key=len)
    sizes, firsts = np.array(sizes, np.int64), np.array(firsts, np.int64)
    i, j = np.divmod(pairs, max(len(h.edges), 1))
    shape = sizes[np.searchsorted(firsts, i, "right") - 1] * (h.n + 1)
    shape += sizes[np.searchsorted(firsts, j, "right") - 1]
    order = np.argsort(shape, kind="stable")
    shape = shape[order]
    new = np.flatnonzero(np.diff(shape, prepend=-1)).tolist()
    runs = zip(new, new[1:] + [len(pairs)])
    return order, [(lo, hi, *divmod(int(shape[lo]), h.n + 1)) for lo, hi in runs]


def _left_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """For consecutive runs of values of the given lengths, each run's sum
    added left to right (0.0 for an empty run). Runs of lengths in
    (w / 2, w] go as the rows of one w-column array, padded with 0.0 at the
    end, whose cumulative sums are taken along each row."""
    sums = np.zeros(len(counts))
    starts = np.cumsum(counts) - counts
    width = 1
    while width // 2 < counts.max(initial=0):
        runs = np.flatnonzero((counts > width // 2) & (counts <= width))
        if len(runs):
            c = counts[runs]
            col = _within(c)
            padded = np.zeros((len(runs), width))
            at = np.repeat(starts[runs], c) + col
            padded[np.repeat(np.arange(len(runs)), c), col] = values[at]
            sums[runs] = np.cumsum(padded, axis=1)[:, -1]
        width *= 2
    return sums


def _shared_excess(h: Hypergraph) -> int:
    """The sum of s - 1 over the pairs of edges sharing s >= 2 vertices.
    Such a pair lies in C(s, 2) runs of the pair table; the pairs of each
    run are listed in blocks of at most _SIGN_BLOCK (or one run's), and
    tallied per block and then over all blocks."""
    _, offsets, ids = h._pair_table()
    m, count = len(h.edges), np.diff(offsets).astype(np.int64)
    start, count = offsets[:-1][count > 1].astype(np.int64), count[count > 1]
    pairs, tally = [np.empty(0, np.int64)], [np.empty(0, np.int64)]  # keys i * m + j
    for lo, hi in _spans(np.concatenate(([0], np.cumsum(count * (count - 1) // 2))), _SIGN_BLOCK):
        at = np.repeat(start[lo:hi], count[lo:hi]) + _within(count[lo:hi])
        later = np.repeat(start[lo:hi] + count[lo:hi], count[lo:hi]) - at - 1
        first = np.repeat(at, later)
        block = ids[first].astype(np.int64) * m + ids[first + 1 + _within(later)]
        block, counts = np.unique(block, return_counts=True)
        pairs.append(block)
        tally.append(counts)
    pairs, tally = np.concatenate(pairs), np.concatenate(tally)
    if not len(tally):
        return 0
    order = np.argsort(pairs, kind="stable")
    new = np.flatnonzero(np.diff(pairs[order], prepend=-1))
    shared = np.add.reduceat(tally[order], new)  # C(s, 2) for each pair
    return int(((1 + np.sqrt(1 + 8 * shared).round()) // 2 - 1).sum())
