"""Extra-overlap clustering coefficients for hypergraphs, plus the classical
graph clustering coefficients they reduce to on 2-uniform inputs.

For intersecting edges e_i, e_j with differences D_ij = e_i \\ e_j and
D_ji = e_j \\ e_i, the extra overlap is

    EO = (|N(D_ij) ∩ D_ji| + |N(D_ji) ∩ D_ij|) / (|D_ij| + |D_ji|),

where N(S) is the union of open neighbourhoods of S's members. HC_local(v)
averages EO over pairs of edges containing v; HC_global averages over all
intersecting pairs. On a graph both coincide exactly with the classical
coefficients.

Every coefficient is read off one pass over the triangles of the
2-section. A pair (i, j) scores above 0 exactly when some x in D_ij and y
in D_ji are adjacent, and then {v, x, y} is a triangle at every common
vertex v (e_i holds vx but not y, e_j holds vy but not x). So the
triangles that core._walk lists, with the places of their three pairs in
the pair table, give each pair that scores above 0 with its common
vertices and its far vertices, the members of D_ij and D_ji that EO's
numerator counts; every other pair scores exactly 0.0. A triangle through
a vertex in only one edge yields no pair: that edge holds both of the
vertex's pairs, and the third one too.

Each host runs the pass once, on first use, and keeps every vertex's local
coefficient, the global sum and the pair count; clustering_report,
hc_global, graph_cc and hc_local all read them, so hc_local costs the
whole pass on its first call on a host and a lookup after that.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .core import _SIGN_BLOCK, Hypergraph, _left_sum, _spans, _starts, _walk, _within
from .errors import _integer

__all__ = [
    "extra_overlap",
    "intersecting_pairs",
    "hc_local",
    "hc_global",
    "graph_cc",
    "clustering_report",
]

_KEY_LIMIT = 2**63 - 1  # no key of the triangle pass exceeds it, so int64 holds them all


def extra_overlap(h: Hypergraph, ei: int, ej: int) -> float:
    """Extra overlap of the edges with ids ei, ej (must differ), from its
    definition: each x in D_ij and y in D_ji are looked up as a pair by
    h._pair_at.

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
    a, b = np.array(h.edges[ei]), np.array(h.edges[ej])
    x, y = np.setdiff1d(a, b, assume_unique=True), np.setdiff1d(b, a, assume_unique=True)
    hit = h._pair_at(x[:, None], y)[1]
    return (int(hit.any(axis=1).sum()) + int(hit.any(axis=0).sum())) / (len(x) + len(y))


def intersecting_pairs(h: Hypergraph) -> Iterator[Tuple[int, int]]:
    """All unordered pairs of distinct edges sharing a vertex, each exactly
    once: a pair is emitted at its smallest common vertex."""
    edge_sets = [set(e) for e in h.edges]
    for v, ids in enumerate(h.incidence):
        for i, j in combinations(ids, 2):
            common = edge_sets[i] & edge_sets[j]
            if min(common) == v:
                yield (i, j) if i < j else (j, i)


def hc_local(h: Hypergraph, v: int) -> float:
    """Mean extra overlap over pairs of edges containing v; 0 when v lies
    in at most one edge. Read off the host's one clustering pass: the first
    call on a host runs the whole pass, and later calls look v up."""
    v = h._vertex(v)
    return float(_clustering(h)[0][v])


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
    eligible = np.flatnonzero(g._degrees() > 1)
    if not len(eligible):
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
    """(local, total, n_pairs), cached on the host: every vertex's local
    coefficient (read-only), the sum of the extra overlaps of all
    intersecting pairs and their number.

    The pairs that score above 0 are found on the triangles of the cached
    degree orientation, vertices in fewer than two edges left out. Adding
    0.0 to a sum of non-negative floats leaves it unchanged bit for bit, so
    the sums over those pairs equal the sums over all pairs: each vertex's
    in ascending (i, j) order, and the global one in (smallest common
    vertex, i, j) order, as intersecting_pairs lists them, each added left
    to right."""
    if h._clustered is None:
        deg = h._degrees()
        eo, row, vertex = _scores(h, deg)
        total = float(np.cumsum(eo[np.argsort(vertex[_starts(row)], kind="stable")])[-1]) if len(eo) else 0.0
        sums = _left_sums(eo[row[np.lexsort((row, vertex))]], np.bincount(vertex, minlength=h.n))
        wedges = deg * (deg - 1) // 2
        local = np.divide(sums, wedges, out=np.zeros(h.n), where=wedges > 0)
        local.flags.writeable = False
        h._clustered = (local, total, int(wedges.sum()) - _overcount(h))
    return h._clustered


def _scores(h: Hypergraph, deg: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eo, row, vertex) for the distinct pairs (i, j), i < j, that _keys
    finds, ascending: eo[t] is the t-th pair's extra overlap, and vertex[s]
    an apex (ascending for each pair) at which pair row[s] was found. EO is
    the far vertices over |e_i| + |e_j| - 2 s, s the pair's apexes: one
    true division of two integers, the float Python gives. deg holds the
    vertex degrees, as h._degrees gives them.

    A pair's apexes are exactly the s vertices it shares. An apex v lies
    in both edges (i holds vx, j holds vy). A pair is found only when some
    x in e_i \\ e_j is adjacent to some y in e_j \\ e_i, and then each
    common vertex v is an apex: it lies in two edges, so it is in the
    walk's input, and {v, x, y} is a triangle, at whose apex v i is in
    E(vx) \\ E(vy) and j in E(vy) \\ E(vx). _keys drops a triangle only
    when its root's two pairs are held by one and the same edge alone, but
    at every root one of them is also held by i (i lacks y) or by j (j
    lacks x); and the both-runs exclusion keeps i and j, as neither holds
    the triangle."""
    m, width = len(h.edges), max(h.n, 1)
    span = _KEY_LIMIT // width
    found = _keys(h, deg, width, span)
    size = np.fromiter(map(len, h.edges), np.int64, m)
    eo, row, vertex = [np.empty(0)], [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for at in sorted({at for at, _ in found}):
        apex, far = _distinct(found.pop((at, True))), _distinct(found.pop((at, False)))
        first = _starts(apex // width)  # the same pairs, in the same order, as far's
        pair = apex[first] // width + at * span
        vertex.append(apex % width)
        row.append(np.cumsum(first) - 1 + sum(map(len, eo)))
        shared = np.diff(np.append(np.flatnonzero(first), len(apex)))
        far = np.diff(np.append(np.flatnonzero(_starts(far // width)), len(far)))
        eo.append(far / (size[pair // m] + size[pair % m] - 2 * shared))
        del apex, far, first, pair, shared  # before the outputs are copied
    return np.concatenate(eo), np.concatenate(row), np.concatenate(vertex)


def _keys(
    h: Hypergraph, deg: np.ndarray, width: int, span: int
) -> Dict[Tuple[int, bool], np.ndarray]:
    """The triangle pass. At each apex v of each triangle {v, x, y} that
    core._walk finds along the host's cached degree orientation, vertices
    in fewer than two edges left out (no triangle through one yields a
    pair), each pair (i, j) of edges with i in E(vx) \\ E(vy) and j in
    E(vy) \\ E(vx), E(ab) the run of edges holding ab in the pair table,
    has the apex v and the far vertices x and y. Each (p, vertex),
    p = i * m + j (i < j, m edges), is kept once as the key
    (p % span) * width + vertex in window p // span, under (window, whether
    an apex); a vertex is below width, so keys stay below span * width for
    any m and n. A triangle whose root's two pairs are held by one and the
    same edge alone is dropped first, and an edge in both runs (it holds
    the whole triangle) from both sides; an apex whose two runs are one and
    the same edge yields only such an edge. deg holds the vertex degrees,
    as h._degrees gives them."""
    _, offsets, ids = h._pair_table()
    m, count = len(h.edges), np.diff(offsets)
    solo = np.where(count == 1, ids[offsets[:-1]], -1)  # each pair's only edge, if one
    order, starts, forward, place = h._orientation()
    kept = np.repeat(deg[order] > 1, np.diff(starts)) & (deg[forward] > 1)
    off = np.concatenate(([0], np.cumsum(kept)))[starts]
    found = {}
    for pre, cands, o in _walk(h, order[:, None], np.column_stack((forward, place))[kept], off, 2):
        node = np.repeat(np.arange(len(pre)), np.diff(o))
        # ru and rw held by one and the same edge alone: it holds the
        # triangle, so at each apex one run lies within the other (this
        # spares the products for the triangles inside a large edge)
        live = (solo[pre[node, 2]] < 0) | (solo[pre[node, 2]] != solo[cands[:, 1]])
        (r, u, ru), (w, rw, uw) = pre[node[live]].T, cands[live].T
        # each apex, its two far vertices and the runs of its two pairs
        for v, x, y, one, two in ((r, u, w, ru, rw), (u, r, w, ru, uw), (w, r, u, rw, uw)):
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
                i, j, apex = i[keep].astype(np.int64), j[keep].astype(np.int64), apex[keep] + lo
                window, low = np.divmod(np.minimum(i, j) * m + np.maximum(i, j), span)
                low *= width
                for at in _distinct(window.copy()).tolist():
                    here = window == at
                    for tag, is_apex in ((v, True), (x, False), (y, False)):
                        new = _distinct(low[here] + tag[apex[here]])
                        # grown in place: a list of small arrays, made between the
                        # temporaries, left hub_census about 0.5 MB higher in peak RSS
                        held = found.setdefault((at, is_apex), np.empty(0, np.int64))
                        held.resize(len(held) + len(new), refcheck=False)
                        held[len(held) - len(new) :] = new
    return found


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an array, ascending; sorts it in place."""
    values.sort()
    return values[_starts(values)]


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


def _overcount(h: Hypergraph) -> int:
    """The sum of s - 1 over the pairs of edges sharing s >= 2 vertices:
    the sum of C(deg, 2) over the vertices counts such a pair s times. Read
    off the runs of the pair table, in C(s, 2) of which such a pair lies.
    Each run's pairs are listed in blocks of at most _SIGN_BLOCK (or one
    run's) and tallied, then summed."""
    _, offsets, ids = h._pair_table()
    m, count = len(h.edges), np.diff(offsets)
    start, count = offsets[:-1][count > 1].astype(np.int64), count[count > 1].astype(np.int64)
    pairs, tally = [np.empty(0, np.int64)], [np.empty(0, np.int64)]  # keys i * m + j
    for lo, hi in _spans(np.concatenate(([0], np.cumsum(count * (count - 1) // 2))), _SIGN_BLOCK):
        at = np.repeat(start[lo:hi], count[lo:hi]) + _within(count[lo:hi])
        later = np.repeat(start[lo:hi] + count[lo:hi], count[lo:hi]) - at - 1
        first = np.repeat(at, later)
        block = ids[first].astype(np.int64) * m + ids[first + 1 + _within(later)]
        block, counts = np.unique(block, return_counts=True)
        pairs.append(block)
        tally.append(counts)
    index = np.unique(np.concatenate(pairs), return_inverse=True)[1]
    shared = np.bincount(index, np.concatenate(tally))  # C(s, 2) for each pair
    return int(((1 + np.sqrt(1 + 8 * shared).round().astype(np.int64)) // 2 - 1).sum())
