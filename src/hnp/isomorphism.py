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
from itertools import permutations
from operator import ge
from typing import Dict, Iterator, List, Optional, Tuple, Union

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


def _size_profile(h: Hypergraph, v: int) -> Tuple[int, ...]:
    """The sizes of the edges at v in descending order: edges are ordered by
    size, so an incidence list runs in ascending size. Its length is v's
    degree."""
    return tuple(len(h.edges[i]) for i in reversed(h.incidence[v]))


def _pattern_order(pattern: Hypergraph, first: Tuple[int, ...] = ()) -> List[int]:
    """Vertex order: the vertices of first as given, then high (degree,
    incident-size profile) first, preferring vertices adjacent to
    already-ordered ones."""
    profile = [_size_profile(pattern, v) for v in range(pattern.n)]
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
    inc, nbrs = host.incidence, host.neighbors

    # per step: the steps of the placed pattern neighbours, the pinned host
    # vertex or None, the degree and incidence-size profile to dominate,
    # and the pattern edges completed there (id, steps of its vertices)
    anchors = [
        [rank[x] for x in pattern.neighbors(w) if rank[x] < step] for step, w in enumerate(order)
    ]
    pins = [fixed.get(w) for w in order]
    degs = [len(pattern.incidence[w]) for w in order]
    checks: List[List[Tuple[int, Tuple[int, ...]]]] = [[] for _ in range(n)]
    for fi, f in enumerate(pattern.edges):
        steps = tuple(sorted(rank[v] for v in f))
        checks[steps[-1]].append((fi, steps))
    if weak:
        profile = _size_profile  # compared position by position
    else:
        # number of incident edges of each size up to the largest pattern edge
        top = range(len(pattern.edges[-1]) + 1 if pattern.edges else 1)

        def profile(h: Hypergraph, v: int) -> Tuple[int, ...]:
            return tuple(map([len(h.edges[i]) for i in h.incidence[v]].count, top))

    needs = [profile(pattern, w) for w in order]
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
                good = ok[u] = len(inc[u]) >= d and all(map(ge, profile(host, u), need))
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
    """Whether h1 and h2 are isomorphic: equal profiles, then canonical forms."""
    return profiles(h1) == profiles(h2) and canonical_form(h1) == canonical_form(h2)
