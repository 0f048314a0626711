"""Sparse hypergraph data model.

Vertices are dense integer ids 0..n-1. Edges are distinct, nonempty,
duplicate-free vertex subsets stored as sorted tuples; edge identity is set
equality. After construction a hypergraph is immutable and safe for
concurrent reads.

Every hypergraph is built by `Hypergraph._build`, which orders the edges by
(size, tuple) and stores them; it builds nothing else. Each table derived
from a host (`incidence`, neighbour sets, degrees, pair table, orientation,
clustering pass) is built whole on first use by a builder under `_kept`,
kept in the host's `_tables` with its arrays read-only, and never pickled:
a host only sampled, read, 2-sectioned, censused or clustered lists no
edge ids or neighbour sets. The public constructor validates and
normalises arbitrary input first.
Producers inside the package whose edges are already normalised (distinct
sorted tuples of int ids in 0..n-1) skip that step through the private
classmethod `Hypergraph._normalised(n, edges)`; passing it anything else
gives a corrupt hypergraph.

The 2-section kernel of the census and clustering lives here too: the
pair table and degree orientation, the one pair lookup
(`Hypergraph._pair_at`) and the per-depth clique walk (`_walk`).
"""

from __future__ import annotations

from collections import Counter
from functools import wraps
from itertools import chain, combinations
from operator import index
from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

from .errors import _integer

__all__ = [
    "Hypergraph",
    "Graph",
    "two_section",
    "induced_strong",
    "induced_weak",
    "profiles",
]


def _kept(build):
    """build(h), a table of the host h, built on the first call on h and kept
    in h._tables under build's name; each numpy array in it is read-only."""
    @wraps(build)
    def kept(h):
        if build.__name__ not in h._tables:
            table = build(h)
            for a in table if isinstance(table, tuple) else (table,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            h._tables[build.__name__] = table
        return h._tables[build.__name__]
    return kept


class Hypergraph:
    """Immutable hypergraph on vertex set {0, ..., n-1}.

    The constructor stores n as an int and normalizes edges to sorted
    tuples of int ids, deduplicated as sets. A non-integer n (a boolean
    too: InputError) or a negative one, or an edge that is empty, contains a repeated vertex, a non-integer id
    (a boolean too) or an id outside 0..n-1, raises ValueError.

    Construction only sorts and stores the edges. `incidence`, the
    neighbour sets and the degrees are each built whole on first use and
    kept; the degrees are one bincount over the edges, not `incidence`.
    """

    __slots__ = ("n", "edges", "_tables")

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()) -> None:
        n = _integer(n, "vertex count")
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        seen = set()
        for e in edges:
            try:
                ids = tuple(e)
                if bool in map(type, ids):
                    raise TypeError
                t = tuple(sorted(map(index, ids)))
            except TypeError:
                raise ValueError(
                    f"hyperedge {e!r} is not a collection of integer vertex ids"
                ) from None
            if not t:
                raise ValueError("empty hyperedge")
            for a, b in zip(t, t[1:]):
                if a == b:
                    raise ValueError(f"repeated vertex {a} in hyperedge {t}")
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"hyperedge {t} mentions a vertex outside 0..{n - 1}")
            seen.add(t)
        self._build(n, seen)

    @classmethod
    def _normalised(cls, n: int, edges: Iterable[Tuple[int, ...]]):
        """Instance of cls on n vertices from edges that are already distinct
        sorted tuples of int ids in 0..n-1 (of size 2 for a Graph); nothing
        is checked."""
        h = cls.__new__(cls)
        h._build(n, edges)
        return h

    def _build(self, n: int, edges: Iterable[Tuple[int, ...]]) -> None:
        # two stable C-level sorts give the (size, tuple) order without a
        # Python key function
        es = sorted(edges)
        es.sort(key=len)
        self.n: int = n
        self.edges: Tuple[Tuple[int, ...], ...] = tuple(es)
        self._tables: Dict[str, object] = {}  # filled by the builders under _kept

    def __reduce__(self):
        return self._normalised, (self.n, self.edges)

    # -- basic accessors -------------------------------------------------

    def _vertex(self, v) -> int:
        """v read by _integer; an id outside 0..n-1 raises ValueError."""
        v = _integer(v, "vertex")
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        return v

    @property
    @_kept
    def incidence(self) -> Tuple[Tuple[int, ...], ...]:
        """incidence[v]: the ids of the edges holding v, ascending. Edges are
        ordered by size, so each list runs in ascending edge size. Callers
        that read it in a loop bind it once: each read is a property call."""
        inc = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        return tuple(map(tuple, inc))

    def degree(self, v: int) -> int:
        """Number of hyperedges containing v."""
        return int(self._degrees()[self._vertex(v)])

    @_kept
    def _degrees(self) -> np.ndarray:
        """The number of edges holding each vertex: one bincount over the
        flattened edges, an int64 array."""
        flat = np.fromiter(chain.from_iterable(self.edges), np.int64, sum(map(len, self.edges)))
        return np.bincount(flat, minlength=self.n)

    @property
    @_kept
    def edge_set(self) -> frozenset:
        """Edges as a frozenset of frozensets."""
        return frozenset(frozenset(e) for e in self.edges)

    def neighbors(self, v: int) -> frozenset:
        """Vertices sharing at least one edge with v, excluding v."""
        return self._adjacency()[self._vertex(v)]

    @_kept
    def _adjacency(self) -> Tuple[frozenset, ...]:
        """Every vertex's neighbours, from one pass over the edges."""
        adj = [set() for _ in range(self.n)]
        for e in self.edges:
            for v in e:
                adj[v].update(e)
        for v, s in enumerate(adj):
            s.discard(v)
        return tuple(map(frozenset, adj))

    @_kept
    def _orientation(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(order, starts, forward, place), int64 arrays, for the 2-section.
        order is the degree order, ascending with ties to the
        smallest id; the neighbours of order[i] placed after it are
        forward[starts[i]:starts[i + 1]], in order, and place[j] is where the
        pair of order[i] and forward[j] is in the pair keys.

        Read off the pair table: the degrees are counts of the pairs' ends,
        and one stable sort of them gives the order. Listing K_k along a
        degree order takes O(k a(G)^(k-2) m) time, a(G) the arboricity
        (Chiba & Nishizeki 1985). One argsort of the pairs' keys i * n + j,
        i < j the positions of their ends in the order, gives the forward runs."""
        n = self.n
        low, high = np.divmod(self._pair_table()[0], max(n, 1))
        deg = np.bincount(low, minlength=n) + np.bincount(high, minlength=n)
        order = np.argsort(deg, kind="stable")
        pos = np.argsort(order)  # each vertex's place in the order
        a, b = np.sort((pos[low], pos[high]), axis=0)  # each pair's ends' positions, a < b
        place = np.argsort(a * n + b)
        forward = order[b[place]]
        starts = np.concatenate(([0], np.cumsum(np.bincount(a, minlength=n))))
        return order, starts, forward, place

    @_kept
    def _pair_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, offsets, ids) for the 2-section: keys holds a * n + b
        for each pair a < b of vertices sharing an edge, ascending (int64),
        and the ids of the edges holding the pair keys[i] are
        ids[offsets[i]:offsets[i + 1]], ascending (both int32). Each edge
        size is one slice of the edges and one array, each of its column
        pairs one array of keys; a single lexsort orders them all."""
        n, keys, ids, lo = self.n, [np.empty(0, np.int64)], [np.empty(0, np.int32)], 0
        for r, m in sorted(self.size_counts().items()):
            block = np.array(self.edges[lo : lo + m], dtype=np.int64)
            for a, b in combinations(range(r), 2):
                keys.append(block[:, a] * n + block[:, b])
                ids.append(np.arange(lo, lo + m, dtype=np.int32))
            lo += m
        keys, ids = np.concatenate(keys), np.concatenate(ids)
        order = np.lexsort((ids, keys))
        keys, ids = keys[order], ids[order]
        del order
        first = np.flatnonzero(_starts(keys))
        return keys[first], np.append(first, len(keys)).astype(np.int32), ids

    def _pair_at(self, a, b) -> Tuple[np.ndarray, np.ndarray]:
        """(at, hit) for the vertex pairs (a, b), a and b arrays that
        broadcast: where each pair's key is, or would go, in the pair keys,
        and whether it is there (all False on an empty table)."""
        keys = self._pair_table()[0]
        pair = np.minimum(a, b) * self.n + np.maximum(a, b)
        at = np.searchsorted(keys, pair)
        return at, (keys.take(at, mode="clip") == pair if len(keys) else np.zeros(np.shape(at), bool))

    def size_counts(self) -> Counter:
        """Counter mapping edge size r to the number of edges of that size."""
        return Counter(len(e) for e in self.edges)

    def is_uniform(self, r: int) -> bool:
        r = _integer(r, "edge size")
        return all(len(e) == r for e in self.edges)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={len(self.edges)})"


class Graph(Hypergraph):
    """A hypergraph whose edges all have size 2."""

    __slots__ = ()

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()) -> None:
        super().__init__(n, edges)
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"graph edge {e} does not have size 2")


# The walk, the census's signing and clustering work on at most _SIGN_BLOCK
# candidate pairs, clique pairs or rows at a time (one node or clique may
# exceed it alone).
_SIGN_BLOCK = 1 << 14


def _walk(
    h: Hypergraph, prefix: np.ndarray, cands: np.ndarray, off: np.ndarray, need: int
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The last-depth nodes below the given ones in the 2-section of h, in
    depth-first order, in groups (prefix, cands, off): node i is the clique
    prefix[i], need vertices short, with the candidates cands[off[i]:off[i + 1]].
    A prefix row is v0, v1, p01, v2, p02, p12, ...: each vertex, then the
    places in the pair keys of its pairs with those before it. A candidate's
    row is the candidate and its pairs' places with them. Each candidate u
    with need - 1 later ones or more opens a child prefix + [u], whose
    candidates are the later ones adjacent to u, found and placed by h._pair_at.
    Groups of consecutive nodes testing at most _SIGN_BLOCK pairs (or one
    node's) are each walked to the end in turn."""
    if need == 1:
        yield prefix, cands, off
        return
    m = np.diff(off)
    opened = np.maximum(m - need + 1, 0)  # children of each node
    tests = opened * (m - 1) - opened * (opened - 1) // 2  # pairs each node tests
    for lo, hi in _spans(np.concatenate(([0], np.cumsum(tests))), _SIGN_BLOCK):
        parent = np.repeat(np.arange(lo, hi), opened[lo:hi])
        at = off[parent] + _within(opened[lo:hi])  # where each child's vertex is in cands
        later = off[parent + 1] - at - 1
        child = np.repeat(np.arange(len(at)), later)
        after = at[child] + 1 + _within(later)  # where each tested vertex is in cands
        place, hit = h._pair_at(cands[at[child], 0], cands[after, 0])
        off_u = np.append(0, np.cumsum(np.bincount(child[hit], minlength=len(at))))
        kept = np.column_stack((cands[after[hit]], place[hit]))
        yield from _walk(h, np.column_stack((prefix[parent], cands[at])), kept, off_u, need - 1)


def _within(runs: np.ndarray) -> np.ndarray:
    """For consecutive runs of the given lengths, each item's index in its run."""
    return np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)


def _spans(before: np.ndarray, limit: int) -> Iterator[Tuple[int, int]]:
    """Consecutive (lo, hi) covering the items whose running totals from 0
    are before, each with before[hi] - before[lo] <= limit or hi = lo + 1."""
    lo, end = 0, len(before) - 1
    while lo < end:
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + limit, "right")) - 1)
        yield lo, hi
        lo = hi


def _starts(values: np.ndarray) -> np.ndarray:
    """Whether each value of a sorted array starts a run of equal values."""
    new = np.ones(len(values), bool)
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return new


def two_section(h: Hypergraph) -> Graph:
    """Graph on the same vertices with {u,v} an edge iff some hyperedge
    contains both, read off the host's pair table, whose keys are already
    in edge order. Size-1 edges contribute nothing."""
    ints = np.arange(h.n).astype(object)  # one Python int per vertex, shared by its pairs
    low, high = np.divmod(h._pair_table()[0], max(h.n, 1))
    return Graph._normalised(h.n, zip(ints[low].tolist(), ints[high].tolist()))


def _left_sum(values: Iterable[float]) -> float:
    """The floats added left to right, as sum() does up to Python 3.11; from
    3.12 sum() compensates its rounding, which can change the last bit."""
    total = 0.0
    for v in values:
        total += v
    return total


def _traces(h: Hypergraph, s: Iterable[int]) -> Tuple[int, Dict[int, int], Dict[Tuple[int, ...], int]]:
    """(size, mapping, first) for s: its size as a set, the old->new id
    mapping in sorted order of s, and the id of the first edge e with each
    distinct nonempty trace e ∩ s, relabelled. Edges are ordered by (size,
    tuple), so an edge inside s is the first edge with its own trace."""
    kept = sorted({_integer(v, "vertex") for v in s})
    if kept and (kept[0] < 0 or kept[-1] >= h.n):
        raise ValueError(f"vertex subset not within 0..{h.n - 1}")
    mapping, inc, first = {v: i for i, v in enumerate(kept)}, h.incidence, {}
    for i in sorted(set().union(*(inc[v] for v in kept))):
        first.setdefault(tuple(mapping[v] for v in h.edges[i] if v in mapping), i)
    return len(kept), mapping, first


def induced_strong(h: Hypergraph, s: Iterable[int]) -> Tuple[Hypergraph, Dict[int, int]]:
    """Substructure on s keeping exactly the edges fully inside s.

    Vertices are re-indexed in sorted order of s; the old->new id mapping is
    returned alongside.
    """
    size, mapping, first = _traces(h, s)
    return Hypergraph._normalised(size, [t for t, i in first.items() if len(t) == len(h.edges[i])]), mapping


def induced_weak(h: Hypergraph, s: Iterable[int]) -> Tuple[Hypergraph, Dict[int, int]]:
    """Substructure on s whose edges are the distinct nonempty intersections
    e ∩ s over all edges e of h (empty edge dropped, duplicates merged)."""
    size, mapping, first = _traces(h, s)
    return Hypergraph._normalised(size, list(first)), mapping


def _compacted(edges: Sequence[Tuple[int, ...]]) -> Tuple[Hypergraph, Dict[int, int]]:
    """The given edges (distinct sorted tuples, such as some of an h.edges)
    on their own support, relabelled in sorted order, and the old->new id
    mapping. The relabelling keeps order, so the edges stay normalised."""
    support = sorted(set().union(*edges))
    mapping = {v: i for i, v in enumerate(support)}
    edges = [tuple(mapping[v] for v in e) for e in edges]
    return Hypergraph._normalised(len(support), edges), mapping


def profiles(h: Hypergraph) -> Tuple[Counter, Counter]:
    """(degree histogram, edge-size histogram).

    The degree histogram maps degree -> number of vertices (isolated
    vertices appear under degree 0); the size histogram maps edge size ->
    number of edges.
    """
    return Counter(h._degrees().tolist()), h.size_counts()
