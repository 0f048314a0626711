"""Pattern containment in hypergraphs.

A strong copy maps every pattern edge onto a host edge; a weak copy maps
every pattern edge f onto the intersection of some host edge with the
*full* image of the pattern's vertex set (the induced-weak edge reading,
which is stricter than merely requiring a superset edge).

Copies are counted per unordered image modulo pattern automorphisms, so a
triangle found in a graph counts once; labelled embeddings divided by
aut(pattern) is always an integer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .core import Hypergraph, _compacted
from .errors import GuardError, InputError

__all__ = [
    "Embedding",
    "find_strong_copies",
    "find_weak_copies",
    "automorphism_count",
    "enumerate_strong_subgraphs",
    "canonical_form",
    "is_isomorphic",
]

MAX_PATTERN_VERTICES = 12
MAX_ENUM_VERTICES = 10
MAX_ENUM_EDGES = 16


@dataclass(frozen=True)
class Embedding:
    """Injective vertex map of a pattern into a host.

    mapping[i] is the host vertex for pattern vertex i. For weak copies,
    witnesses[j] is a host edge id whose intersection with the image equals
    the image of pattern edge j (witnesses need not be distinct across
    pattern edges); None for strong copies.
    """

    mapping: Tuple[int, ...]
    witnesses: Optional[Tuple[int, ...]] = None


def _pattern_order(pattern: Hypergraph) -> List[int]:
    """Vertex order: high (degree, incident-size profile) first, preferring
    vertices adjacent to already-ordered ones."""
    profile = {
        v: (
            pattern.degree(v),
            tuple(sorted((len(pattern.edges[i]) for i in pattern.incidence[v]), reverse=True)),
        )
        for v in range(pattern.n)
    }
    order: List[int] = []
    placed = set()
    while len(order) < pattern.n:
        best = None
        best_key = None
        for v in range(pattern.n):
            if v in placed:
                continue
            anchored = len(pattern.neighbors(v) & placed)
            key = (anchored, profile[v], -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed.add(best)
    return order


def _embeddings(
    pattern: Hypergraph, host: Hypergraph, weak: bool
) -> Iterator[Tuple[Tuple[int, ...], Optional[Tuple[List[int], ...]]]]:
    """All injective labelled maps (mapping[i] = host vertex of pattern
    vertex i), in ascending host-id order at every step, under which every
    pattern edge's image is a host edge (strong) or lies inside some host
    edge (weak). Each map comes with, per pattern edge, the ids of the host
    edges containing its image in ascending order (weak), or None (strong).

    A pattern vertex with an already placed pattern neighbour draws its
    candidates from the host neighbourhoods of the placed neighbours'
    images; only a vertex with none (the first of each connected
    component, and isolated vertices) scans every host vertex. Host
    incidence profiles are computed for visited candidates only."""
    if pattern.n == 0:
        raise InputError("pattern must have at least one vertex")
    if pattern.n > MAX_PATTERN_VERTICES:
        raise GuardError(
            f"pattern has {pattern.n} vertices, guard is {MAX_PATTERN_VERTICES}"
        )
    if pattern.n > host.n:
        return

    order = _pattern_order(pattern)
    rank = {v: i for i, v in enumerate(order)}
    # per step, the pattern neighbours placed before it
    anchors = [
        [w2 for w2 in pattern.neighbors(w) if rank[w2] < step] for step, w in enumerate(order)
    ]

    # pattern edges become checkable at the step assigning their last vertex
    edges_done_at: List[List[int]] = [[] for _ in range(pattern.n)]
    for fi, f in enumerate(pattern.edges):
        edges_done_at[max(rank[v] for v in f)].append(fi)

    # per-vertex compatibility by incident-size profile dominance
    def strong_profile(h: Hypergraph, v: int) -> Counter:
        return Counter(len(h.edges[i]) for i in h.incidence[v])

    def sizes_desc(h: Hypergraph, v: int) -> List[int]:
        return sorted((len(h.edges[i]) for i in h.incidence[v]), reverse=True)

    profile = sizes_desc if weak else strong_profile
    need = [profile(pattern, w) for w in range(pattern.n)]
    host_profiles: Dict[int, Union[Counter, List[int]]] = {}

    def compatible(u: int, w: int) -> bool:
        have = host_profiles.get(u)
        if have is None:
            have = host_profiles[u] = profile(host, u)
        if weak:
            return len(have) >= len(need[w]) and all(a >= b for a, b in zip(have, need[w]))
        return all(have[s] >= c for s, c in need[w].items())

    assigned: Dict[int, int] = {}
    used = set()
    containing: List[List[int]] = [[] for _ in pattern.edges]  # weak only

    def edge_fits(fi: int) -> bool:
        img = frozenset(assigned[v] for v in pattern.edges[fi])
        if not weak:
            return img in host.edge_set
        probe = min(img, key=lambda u: len(host.incidence[u]))
        hits = containing[fi] = [
            ei for ei in host.incidence[probe] if img.issubset(host.edges[ei])
        ]
        return bool(hits)

    def backtrack(step: int) -> Iterator[tuple]:
        if step == pattern.n:
            yield (
                tuple(assigned[v] for v in range(pattern.n)),
                tuple(containing) if weak else None,
            )
            return
        w = order[step]
        if anchors[step]:
            placed = [host.neighbors(assigned[a]) for a in anchors[step]]
            pool = sorted(frozenset.intersection(*placed))
        else:
            pool = range(host.n)
        for u in pool:
            if u in used or not compatible(u, w):
                continue
            assigned[w] = u
            used.add(u)
            if all(edge_fits(fi) for fi in edges_done_at[step]):
                yield from backtrack(step + 1)
            del assigned[w]
            used.discard(u)

    yield from backtrack(0)


def _copies(pattern: Hypergraph, host: Hypergraph, weak: bool) -> Iterator[Embedding]:
    """Copies as the find functions report them: a weak map counts only
    when every pattern edge has a witness, the first of the host edges
    containing its image that meets the whole image in the edge's size
    (so in exactly its image)."""
    for mapping, containing in _embeddings(pattern, host, weak):
        if not weak:
            yield Embedding(mapping)
            continue
        image = set(mapping)
        wit = tuple(
            next((ei for ei in hits if len(image.intersection(host.edges[ei])) == len(f)), None)
            for f, hits in zip(pattern.edges, containing)
        )
        if None not in wit:
            yield Embedding(mapping, wit)


def _dispatch(
    pattern: Hypergraph, host: Hypergraph, weak: bool, mode: str
) -> Union[bool, int, List[Embedding]]:
    if mode == "exists":
        return next(_copies(pattern, host, weak), None) is not None
    if mode == "list":
        return list(_copies(pattern, host, weak))
    if mode == "count":
        labelled = sum(1 for _ in _copies(pattern, host, weak))
        return labelled // automorphism_count(pattern)
    raise ValueError(f"mode must be exists/count/list, got {mode!r}")


def find_strong_copies(
    pattern: Hypergraph, host: Hypergraph, mode: str = "count"
) -> Union[bool, int, List[Embedding]]:
    """Strong copies of pattern in host: every pattern edge maps onto a host
    edge. count = labelled embeddings / aut(pattern)."""
    return _dispatch(pattern, host, weak=False, mode=mode)


def find_weak_copies(
    pattern: Hypergraph, host: Hypergraph, mode: str = "count"
) -> Union[bool, int, List[Embedding]]:
    """Weak copies of pattern in host: every pattern edge equals some host
    edge intersected with the image of the whole pattern vertex set."""
    return _dispatch(pattern, host, weak=True, mode=mode)


def automorphism_count(h: Hypergraph) -> int:
    """Number of vertex permutations mapping the edge set onto itself."""
    return sum(1 for _ in _embeddings(h, h, weak=False))


# -- canonical forms -----------------------------------------------------


def canonical_form(h: Hypergraph) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """Canonical key (n, relabelled edges): equal iff hypergraphs isomorphic.

    Brute force over vertex orderings restricted to color classes from a short
    degree/size refinement; isolated vertices never need permuting. The
    classes take consecutive blocks of labels in sorted color order, and
    each labelling permutes every class within its block.
    """
    active = [v for v in range(h.n) if h.incidence[v]]
    if not active:
        return (h.n, ())
    colors: Dict[int, tuple] = {
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
        stable = len(set(refined.values())) == len(set(colors.values()))
        colors = refined
        if stable:
            break

    groups: Dict[tuple, List[int]] = {}
    for v in active:
        groups.setdefault(colors[v], []).append(v)
    classes = [groups[c] for c in sorted(groups)]

    label = [0] * h.n

    # depth first: itertools.product would hold every permutation of each
    # class in memory (42 MB for C9, about 0.5 GB for C10)
    def relabellings(ci: int, base: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        """The sorted relabelled edges under each labelling that gives the
        classes from ci on the labels from base on, class by class."""
        if ci == len(classes):
            yield tuple(
                sorted(
                    (tuple(sorted(label[v] for v in e)) for e in h.edges),
                    key=lambda t: (len(t), t),
                )
            )
            return
        for perm in permutations(classes[ci]):
            for i, v in enumerate(perm, base):
                label[v] = i
            yield from relabellings(ci + 1, base + len(perm))

    return (h.n, min(relabellings(0, 0)))


def is_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    if h1.n != h2.n or len(h1.edges) != len(h2.edges):
        return False
    if h1.size_counts() != h2.size_counts():
        return False
    if sorted(len(i) for i in h1.incidence) != sorted(len(i) for i in h2.incidence):
        return False
    return canonical_form(h1) == canonical_form(h2)


def _edge_subsets(h: Hypergraph) -> Iterator[List[Tuple[int, ...]]]:
    """The chosen edges of every nonempty edge subset of h, lazily, in mask
    order (bit i of the mask selects h.edges[i]). The size guard is
    checked on the call, before the first subset is asked for."""
    if h.n > MAX_ENUM_VERTICES:
        raise GuardError(f"{h.n} vertices, guard is {MAX_ENUM_VERTICES}")
    m = len(h.edges)
    if m > MAX_ENUM_EDGES:
        raise GuardError(f"{m} edges, practical guard is {MAX_ENUM_EDGES}")
    return ([h.edges[i] for i in range(m) if mask >> i & 1] for mask in range(1, 1 << m))


def enumerate_strong_subgraphs(
    h: Hypergraph, require_edges: bool = False
) -> List[Hypergraph]:
    """All isomorphism classes of (vertex-subset, edge-subset) substructures
    with nonempty vertex set.

    With require_edges=True only classes with at least one edge and no
    isolated vertices are returned (the forms the threshold theorems need).
    """
    subsets = _edge_subsets(h)
    classes: Dict[tuple, Hypergraph] = {}
    if not require_edges:
        for v in range(1, h.n + 1):
            classes[(v, ())] = Hypergraph(v)
    for chosen in subsets:
        base, _ = _compacted(chosen)
        key = canonical_form(base)
        classes.setdefault(key, base)
        if not require_edges:
            for order in range(base.n + 1, h.n + 1):
                if (order, key[1]) not in classes:
                    classes[(order, key[1])] = Hypergraph._normalised(order, base.edges)
    return [classes[k] for k in sorted(classes)]
