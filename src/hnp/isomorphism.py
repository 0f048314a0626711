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

from dataclasses import dataclass
from operator import ge
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .core import Hypergraph, profiles
from .errors import GuardError, InputError

__all__ = [
    "Embedding",
    "find_strong_copies",
    "find_weak_copies",
    "automorphism_count",
    "canonical_form",
    "is_isomorphic",
]

MAX_PATTERN_VERTICES = 12


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


def _size_profile(
    edges: Sequence[Tuple[int, ...]], inc: Sequence[Tuple[int, ...]], v: int
) -> Tuple[int, ...]:
    """The sizes of the edges at v in descending order, given a hypergraph's
    edges and incidence: edges are ordered by size, so an incidence list
    runs in ascending size. Its length is v's degree."""
    return tuple(len(edges[i]) for i in reversed(inc[v]))


def _pattern_order(pattern: Hypergraph, first: Tuple[int, ...] = ()) -> List[int]:
    """Vertex order: the vertices of first as given, then high (degree,
    incident-size profile) first, preferring vertices adjacent to
    already-ordered ones."""
    edges, inc = pattern.edges, pattern.incidence
    profile = [_size_profile(edges, inc, v) for v in range(pattern.n)]
    order: List[int] = list(first)
    placed = set(first)
    while len(order) < pattern.n:
        best = None
        best_key = None
        for v in range(pattern.n):
            if v in placed:
                continue
            anchored = len(pattern.neighbors(v) & placed)
            key = (anchored, len(profile[v]), profile[v], -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed.add(best)
    return order


def _check_pattern(pattern: Hypergraph) -> None:
    if pattern.n == 0:
        raise InputError("pattern must have at least one vertex")
    if pattern.n > MAX_PATTERN_VERTICES:
        raise GuardError(
            f"pattern has {pattern.n} vertices, guard is {MAX_PATTERN_VERTICES}"
        )


def _embeddings(
    pattern: Hypergraph,
    host: Hypergraph,
    weak: bool,
    fixed: Optional[Dict[int, int]] = None,
) -> Iterator[Tuple[Tuple[int, ...], Optional[Tuple[List[int], ...]]]]:
    """All injective labelled maps (mapping[i] = host vertex of pattern
    vertex i), in ascending host-id order at every step, under which every
    pattern edge's image is a host edge (strong) or lies inside some host
    edge (weak), and which send each pattern vertex v in fixed to fixed[v].
    Each map comes with, per pattern edge, the ids of the host edges
    containing its image in ascending order (weak), or None (strong).

    One loop over an explicit stack of candidate iterators, one per step,
    with every per-step table built once per call. A pattern vertex with
    an already placed pattern neighbour draws its candidates from the host
    neighbourhoods of the placed neighbours' images; a vertex with none
    (the first of each connected component, and isolated vertices) scans
    the host vertices of at least its degree. A candidate must have at
    least the pattern vertex's degree before its incidence-size profile is
    built and compared, once per step and host vertex."""
    _check_pattern(pattern)
    if pattern.n > host.n:
        return
    fixed = fixed or {}
    n = pattern.n
    order = _pattern_order(pattern, tuple(fixed))
    rank = [0] * n
    for step, w in enumerate(order):
        rank[w] = step
    edges, inc, nbrs = host.edges, host.incidence, host.neighbors
    pinc = pattern.incidence

    # per step: the steps of the placed pattern neighbours, the pinned host
    # vertex or None, the degree and incidence-size profile to dominate,
    # and the pattern edges completed there (id, steps of its vertices)
    anchors = [
        [rank[x] for x in pattern.neighbors(w) if rank[x] < step] for step, w in enumerate(order)
    ]
    pins = [fixed.get(w) for w in order]
    degs = [len(pinc[w]) for w in order]
    checks: List[List[Tuple[int, Tuple[int, ...]]]] = [[] for _ in range(n)]
    for fi, f in enumerate(pattern.edges):
        steps = tuple(sorted(rank[v] for v in f))
        checks[steps[-1]].append((fi, steps))
    if weak:
        profile = _size_profile  # compared position by position
    else:
        # number of incident edges of each size up to the largest pattern edge
        top = range(len(pattern.edges[-1]) + 1 if pattern.edges else 1)

        def profile(
            edges: Sequence[Tuple[int, ...]], inc: Sequence[Tuple[int, ...]], v: int
        ) -> Tuple[int, ...]:
            return tuple(map([len(edges[i]) for i in inc[v]].count, top))

    needs = [profile(pattern.edges, pinc, w) for w in order]
    fits: List[Dict[int, bool]] = [{} for _ in range(n)]
    roots: Dict[int, List[int]] = {}

    image = [0] * n
    used = set()
    containing: List[List[int]] = [[] for _ in pattern.edges]  # weak only
    eset = host.edge_set

    def candidates(step: int) -> Iterator[int]:
        d, need = degs[step], needs[step]
        if pins[step] is not None:
            u = pins[step]
            pool = [u] if all(u in nbrs(image[a]) for a in anchors[step]) else []
        elif anchors[step]:
            placed = [nbrs(image[a]) for a in anchors[step]]
            pool = sorted(placed[0].intersection(*placed[1:]))
        else:
            pool = roots.get(d)
            if pool is None:
                pool = roots[d] = [u for u in range(host.n) if len(inc[u]) >= d]
        ok = fits[step]
        out = []
        for u in pool:
            if u in used:
                continue
            good = ok.get(u)
            if good is None:
                good = ok[u] = len(inc[u]) >= d and all(map(ge, profile(edges, inc, u), need))
            if good:
                out.append(u)
        return iter(out)

    last = n - 1
    stack = [candidates(0)]
    step = 0
    while True:
        # the step's next candidate under which the pattern edges completed
        # there fit; with none left, step back
        for u in stack[step]:
            image[step] = u
            if weak:
                for fi, steps in checks[step]:
                    hits = set(inc[u]).intersection(*[inc[image[s]] for s in steps[:-1]])
                    if not hits:
                        break
                    containing[fi] = sorted(hits)
                else:
                    break
            else:
                for fi, steps in checks[step]:
                    if frozenset([image[s] for s in steps]) not in eset:
                        break
                else:
                    break
        else:
            stack.pop()
            step -= 1
            if step < 0:
                return
            used.discard(image[step])
            continue
        if step == last:
            yield (
                tuple([image[r] for r in rank]),
                tuple(containing) if weak else None,
            )
            continue
        used.add(image[step])
        step += 1
        stack.append(candidates(step))


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
    raise InputError(f"mode must be exists/count/list, got {mode!r}")


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
    """Number of vertex permutations mapping the edge set onto itself.

    By orbit-stabiliser, without listing them: the automorphisms fixing
    0..v-1 fall into as many cosets of those also fixing v as there are
    vertices u to which one of them sends v, and each u is tested by one
    search with 0..v-1 pinned to themselves and v pinned to u."""
    _check_pattern(h)
    count = 1
    pinned: Dict[int, int] = {}
    for v in range(h.n):
        count *= sum(
            next(_embeddings(h, h, False, {**pinned, v: u}), None) is not None
            for u in range(h.n)
        )
        pinned[v] = v
    return count


# -- canonical forms -----------------------------------------------------


def _colour_classes(h: Hypergraph, active: List[int]) -> List[List[int]]:
    """The active vertices split by a short degree/size refinement, classes
    in sorted colour order. A vertex starts with the colour (degree, sorted
    sizes of its edges); a round gives it (rank of its colour, sorted ranks
    of its neighbours' colours), and at most two rounds run, the second only
    if the first split a class. Colours are kept as their dense ranks, which
    sort as the colours do."""
    edges, inc = h.edges, h.incidence
    # edges are sorted by size, so an incidence list runs in ascending size
    colors = [(len(inc[v]), tuple([len(edges[i]) for i in inc[v]])) for v in active]
    rank = [0] * h.n
    count = 0
    for step in range(3):  # the start, then at most two rounds
        order = {c: i for i, c in enumerate(sorted(set(colors)))}
        for v, c in zip(active, colors):
            rank[v] = order[c]
        if len(order) == count:  # the round split no class
            break
        count = len(order)
        if step < 2:
            colors = [(rank[v], tuple(sorted([rank[u] for u in h.neighbors(v)]))) for v in active]

    classes: List[List[int]] = [[] for _ in range(count)]
    for v in active:
        classes[rank[v]].append(v)
    return classes


def _twin_classes(h: Hypergraph, classes: List[List[int]]) -> List[List[List[int]]]:
    """Each class split into twin classes, in class order: u and w are twins
    when the transposition (u w) maps the edge set onto itself. That
    relation is an equivalence, so each vertex is tested against the first
    member of each twin class found so far."""
    if all(len(group) == 1 for group in classes):
        return [[group] for group in classes]
    inc = h.incidence
    masks = [sum(1 << v for v in e) for e in h.edges]
    present = set(masks)

    def moves(u: int, w: int) -> bool:
        # every edge holding u but not w is an edge again with w for u
        bu, bw = 1 << u, 1 << w
        return all(m & bw or m ^ bu ^ bw in present for m in [masks[i] for i in inc[u]])

    out: List[List[List[int]]] = []
    for group in classes:
        found: List[List[int]] = []
        for v in group:
            for tw in found:
                if moves(tw[0], v) and moves(v, tw[0]):
                    tw.append(v)
                    break
            else:
                found.append([v])
        out.append(found)
    return out


def canonical_form(h: Hypergraph) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """Canonical key (n, relabelled edges): equal iff hypergraphs isomorphic.

    The relabelled edges are the minimum, over the labellings of the active
    vertices that give each colour class of a short degree/size refinement
    a consecutive block of labels (blocks in sorted colour order), of the
    edges relabelled and sorted by (size, tuple); isolated vertices get no
    label. The minimum is found by a depth-first branch and bound (McKay &
    Piperno, Practical graph isomorphism II, 2014) that hands out labels
    0, 1, 2, ... in order, each to a vertex of its slot's class:
    - an edge's relabelled tuple is at least its placed labels followed by
      L, L+1, ... for its unplaced vertices, L the next label, so the k-th
      least edge of any labelling below a node is at least the k-th least
      bound; a child whose sorted bounds are not below the best key so far
      is cut, and the others are tried in ascending order of their bounds;
    - of twins, vertices whose transposition is an automorphism, only one
      is tried at each node, since their subtrees are images of each other
      (K_n, K_{a,b} and a single edge take one descent);
    - a step left with one twin class to choose from is taken without a
      bound.
    """
    inc = h.incidence
    active = [v for v in range(h.n) if inc[v]]
    if not active:
        return (h.n, ())
    sizes = [len(e) for e in h.edges]

    # per label: the ids of its class's twin classes; twins are placed in
    # list order, so taken[t] counts the placed members of twins[t]
    slots: List[List[int]] = []
    twins: List[List[int]] = []
    for found in _twin_classes(h, _colour_classes(h, active)):
        slots.extend([list(range(len(twins), len(twins) + len(found)))] * sum(map(len, found)))
        twins.extend(found)
    taken = [0] * len(twins)
    last = len(active)

    # labels are handed out in ascending order, so each edge's list of
    # placed labels stays sorted; an edge is keyed as (size, *labels), whose
    # plain tuple order is the key's (size, tuple) order
    placed: List[List[int]] = [[] for _ in sizes]
    best: List[Tuple[int, ...]] = []  # the least sorted key so far

    def search(label: int) -> None:
        nonlocal best
        forced: List[int] = []
        picked: List[int] = []
        while label < last:
            options = [t for t in slots[label] if taken[t] < len(twins[t])]
            if len(options) > 1:
                break
            t = options[0]
            v = twins[t][taken[t]]
            taken[t] += 1
            picked.append(t)
            for i in inc[v]:
                placed[i].append(label)
            forced.append(v)
            label += 1
        if label == last:
            key = sorted([(s, *p) for s, p in zip(sizes, placed)])
            if not best or key < best:
                best = key
        else:
            nxt = label + 1
            ranked = []
            for t in options:
                v = twins[t][taken[t]]
                for i in inc[v]:
                    placed[i].append(label)
                ranked.append(
                    (sorted([(s, *p, *range(nxt, nxt + s - len(p))) for s, p in zip(sizes, placed)]), t)
                )
                for i in inc[v]:
                    placed[i].pop()
            ranked.sort()
            for bound, t in ranked:
                if best and bound >= best:
                    break
                v = twins[t][taken[t]]
                for i in inc[v]:
                    placed[i].append(label)
                taken[t] += 1
                search(nxt)
                taken[t] -= 1
                for i in inc[v]:
                    placed[i].pop()
        for t in picked:
            taken[t] -= 1
        for v in forced:
            for i in inc[v]:
                placed[i].pop()

    search(0)
    del search  # the closure refers to itself: drop the cycle now
    return (h.n, tuple(t[1:] for t in best))


def is_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    """Whether h1 and h2 are isomorphic: equal profiles, then canonical forms."""
    return profiles(h1) == profiles(h2) and canonical_form(h1) == canonical_form(h2)
