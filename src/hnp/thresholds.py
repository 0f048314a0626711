"""Asymptotic classification of pattern containment under power-law
probability sequences.

Exponents are exact Fractions throughout; None encodes -infinity (an edge
size whose probability is identically zero). Expected-count exponents
govern the verdicts: a pattern is a.a.s. absent when some strong subgraph
has negative exponent, a.a.s. present when all are positive, inconclusive
when the minimum is exactly zero (a Theta(1) expectation decides nothing;
power-law coefficients are carried but never decide a verdict).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .core import Graph, Hypergraph, _compacted
from .errors import GuardError, InputError, _integer
from .isomorphism import _embeddings, canonical_form
from .model import ProbSequence

__all__ = [
    "ContainmentVerdict",
    "strong_exponent",
    "weak_exponent",
    "covering_weight_exponent",
    "classify_strong",
    "classify_weak",
    "classify_induced_weak",
    "pad_amount",
    "padded_pattern",
    "is_subedge_system",
    "minimal_two_section_covers",
    "classify_two_section",
]

Exponent = Optional[Fraction]  # None = -infinity

MAX_ENUM_VERTICES = 10
MAX_SUBEDGE_VERTICES = 10
MAX_COVER_VERTICES = 6


@dataclass(frozen=True)
class ContainmentVerdict:
    outcome: str  # aas_present | aas_absent | inconclusive
    exponent: Exponent
    witness: Optional[Hypergraph] = None
    reason: str = ""


def _require_powerlaw(p: ProbSequence) -> None:
    if p.is_numeric:
        raise InputError("asymptotic classification requires a power-law sequence")


def _dominant_level(p: ProbSequence, r: int) -> Tuple[Optional[int], Exponent]:
    """The i in 0..M-r maximizing the exponent i - alpha_{r+i} of
    n^i p_{r+i} (ties broken toward smaller i) and that maximum;
    (None, None) when every level from r up is identically zero, as every
    level above M is. Only the given levels are visited, so the cost does
    not grow with M."""
    _require_powerlaw(p)
    r = _integer(r, "edge size")
    if r < 1:
        raise InputError(f"edge size {r} must be >= 1")
    best_i, best = None, None
    for s, (_, a) in sorted(p.powerlaw.items()):
        i = s - r
        if i >= 0 and (best is None or i - a > best):
            best_i, best = i, i - a
    return best_i, best


def covering_weight_exponent(p: ProbSequence, r: int) -> Exponent:
    """Exact exponent of the covering-weight tail: max_i (i - alpha_{r+i});
    None (-infinity) when no level from r up is nonzero, as for r > M.

    The tail sum_i C(n, i) p_{r+i}, the expected number of edges covering a
    fixed r-set to leading order, grows as n to this power.
    """
    return _dominant_level(p, r)[1]


def _size_exponent(p: ProbSequence, r: int, weak: bool) -> Exponent:
    """A size-r edge's term in an expected-count exponent: the
    covering-weight exponent for weak copies, -alpha_r for strong ones."""
    if weak:
        return covering_weight_exponent(p, r)
    a = p.alpha(r)
    return None if a is None else -a


def _exponent(h: Hypergraph, p: ProbSequence, weak: bool) -> Exponent:
    """v(h) plus every edge's term; None as soon as a term is -infinity."""
    _require_powerlaw(p)
    total = Fraction(h.n)
    for e in h.edges:
        term = _size_exponent(p, len(e), weak)
        if term is None:
            return None
        total += term
    return total


def strong_exponent(h: Hypergraph, p: ProbSequence) -> Exponent:
    """Exponent of the expected strong-copy count n^v * prod p_r^{e_r}:
    v(h) - sum_r alpha_r * e_r(h); None when some edge size has p_r = 0."""
    return _exponent(h, p, weak=False)


def weak_exponent(h: Hypergraph, p: ProbSequence) -> Exponent:
    """Exponent of the expected weak-copy count (covering weights in place
    of edge probabilities)."""
    return _exponent(h, p, weak=True)


# -- family minimum over strong subgraphs ----------------------------------


def _family_minimum(
    h: Hypergraph, p: ProbSequence, weak: bool
) -> Tuple[Exponent, Hypergraph]:
    """Minimum exponent over all strong subgraphs of h, with a witness.

    Only subgraphs with >= 1 edge and no isolated vertices can achieve the
    minimum below 1 (padding with isolated vertices raises the exponent by
    one each; edgeless classes have exponent equal to their order), so the
    single-vertex class caps the search at exponent 1. An edge whose term
    is -infinity makes the minimum -infinity, witnessed by the lowest-index
    such edge alone. Below 1, an optimal edge set is the set N(S) of the
    negative-term edges inside its own vertex set S (each lowers the value;
    an edge with term >= 0 never does), so the walk values each vertex set
    S as |S| plus the terms of N(S). The witness is the optimal N(S) of
    smallest edge mask (bit i for h.edges[i]).
    """
    _require_powerlaw(p)
    if h.n < 1:
        raise InputError("pattern must have at least one vertex")
    if h.n > MAX_ENUM_VERTICES:
        raise GuardError(f"{h.n} vertices, guard is {MAX_ENUM_VERTICES}")
    per_size = {r: _size_exponent(p, r, weak) for r in set(len(e) for e in h.edges)}
    for e in h.edges:
        if per_size[len(e)] is None:
            return None, _compacted([e])[0]

    negative = [
        (sum(1 << v for v in e), 1 << i, per_size[len(e)])
        for i, e in enumerate(h.edges)
        if per_size[len(e)] < 0
    ]
    best, mask = Fraction(1), 0  # the single-vertex class; an S with empty N(S) is worth |S| >= 1
    for s in range(1, 1 << h.n):
        inside = [(bit, term) for verts, bit, term in negative if verts & s == verts]
        val = s.bit_count() + sum(term for _, term in inside)
        best, mask = min((best, mask), (val, sum(bit for bit, _ in inside)))
    chosen = [e for i, e in enumerate(h.edges) if mask >> i & 1]
    return best, (_compacted(chosen)[0] if chosen else Hypergraph(1))


def _verdict(exponent: Exponent, witness: Hypergraph, kind: str) -> ContainmentVerdict:
    """The verdict from the sign of the governing (minimum) exponent."""
    if exponent is None or exponent < 0:
        outcome, reason = "aas_absent", f"a subgraph's expected {kind}-copy count tends to 0"
    elif exponent > 0:
        outcome = "aas_present"
        reason = f"every subgraph's expected {kind}-copy count tends to infinity"
    else:
        outcome = "inconclusive"
        reason = f"tightest subgraph has Theta(1) expected {kind}-copy count"
    return ContainmentVerdict(outcome, exponent, witness, reason)


def classify_strong(
    h: Hypergraph, p: ProbSequence, induced: bool = False
) -> ContainmentVerdict:
    """A.a.s. presence/absence of h as a strong subhypergraph of H(n, p).

    With induced=True the same verdict also applies to induced strong
    appearance, which requires every probability bounded away from 1; that
    holds automatically for alpha_r > 0 and is rejected for alpha_r = 0
    with c_r >= 1.
    """
    _require_powerlaw(p)
    if induced:
        for r, (c, a) in sorted(p.powerlaw.items()):
            if a == 0 and c >= 1:
                raise InputError(
                    f"induced verdict needs p_{r} bounded away from 1 "
                    f"(alpha_{r}=0 with c_{r}>=1)"
                )
    return _verdict(*_family_minimum(h, p, weak=False), "strong")


def classify_weak(h: Hypergraph, p: ProbSequence) -> ContainmentVerdict:
    """A.a.s. presence/absence of h as a weak subhypergraph of H(n, p)."""
    return _verdict(*_family_minimum(h, p, weak=True), "weak")


# -- padding construction ---------------------------------------------------


def pad_amount(p: ProbSequence, r: int) -> int:
    """Number of fresh vertices to add to a size-r edge: the i maximizing
    the exponent of n^i p_{r+i} (ties broken toward smaller i)."""
    best_i, _ = _dominant_level(p, r)
    if best_i is None:
        raise InputError(f"no nonzero level at or above size {r}")
    return best_i


def padded_pattern(h: Hypergraph, p: ProbSequence) -> Hypergraph:
    """Pad every edge with fresh vertices up to its dominant witnessing
    size; strong appearance of the result certifies weak appearance of h."""
    _require_powerlaw(p)
    fresh = h.n
    edges = []
    for e in h.edges:
        i = pad_amount(p, len(e))
        edges.append(tuple(e) + tuple(range(fresh, fresh + i)))
        fresh += i
    return Hypergraph._normalised(fresh, edges)


def classify_induced_weak(h: Hypergraph, p: ProbSequence) -> ContainmentVerdict:
    """A.a.s. presence/absence of h as an induced weak subhypergraph.

    A non-edge of size r with positive covering-weight exponent forbids
    induced appearance; when the smallest non-edge size has bounded
    covering weight and a vanishing level probability, the plain weak
    verdict carries over; otherwise inconclusive. Sizes above M have no
    covering weight, so the scan stops at min(v(h), M) and takes a
    binomial only for sizes that have edges. Only a pattern that needs the
    weak verdict meets its guard.
    """
    _require_powerlaw(p)
    k = h.n
    full = {r for r, c in h.size_counts().items() if c == math.comb(k, r)}
    if len(full) == k:  # h is complete: no non-edge
        return classify_weak(h, p)
    nonedge_sizes = [r for r in range(1, min(k, p.M) + 1) if r not in full]
    for r in nonedge_sizes:
        e = covering_weight_exponent(p, r)
        if e is not None and e > 0:
            return ContainmentVerdict(
                "aas_absent",
                e,
                None,
                reason=(
                    f"non-edge of size {r}: covering weight grows like n^{e}, "
                    f"so every weak copy gets that set covered"
                ),
            )
    # with no non-edge size up to M, the smallest lies above M, where the
    # covering weight and p_r both vanish identically
    r0 = nonedge_sizes[0] if nonedge_sizes else p.M + 1
    e0 = covering_weight_exponent(p, r0)
    a0 = p.alpha(r0)
    if (e0 is None or e0 <= 0) and (a0 is None or a0 > 0):
        inner = classify_weak(h, p)
        return ContainmentVerdict(
            inner.outcome,
            inner.exponent,
            inner.witness,
            reason="weak verdict carries over to induced: " + inner.reason,
        )
    return ContainmentVerdict(
        "inconclusive",
        e0,
        None,
        reason=f"smallest non-edge size {r0} has borderline covering weight",
    )


# -- subedge systems and 2-section covers -----------------------------------


def is_subedge_system(h1: Hypergraph, h2: Hypergraph) -> bool:
    """True iff h1 embeds into h2 with each h1-edge a subset of a distinct
    h2-edge (shrink each h2-edge to at most one subset, then take a strong
    subgraph), up to injective vertex identification."""
    if h1.n > MAX_SUBEDGE_VERTICES or h2.n > MAX_SUBEDGE_VERTICES:
        raise GuardError(f"guard is {MAX_SUBEDGE_VERTICES} vertices")
    # each h1-edge needs its own h2-edge at least as large, so the k-th
    # largest h1-edge is at most the k-th largest h2-edge; edges come
    # sorted by size
    if (
        h1.n > h2.n
        or len(h1.edges) > len(h2.edges)
        or any(len(f) > len(e) for f, e in zip(reversed(h1.edges), reversed(h2.edges)))
    ):
        return False
    if not h1.edges:
        return True

    def distinct_supersets(allowed: Tuple[List[int], ...]) -> bool:
        """Bipartite matching of h1-edge images into distinct h2-edges;
        allowed[i] lists the h2-edges containing the image of h1-edge i."""
        match_r: Dict[int, int] = {}

        def augment(i: int, visited: set) -> bool:
            for j in allowed[i]:
                if j in visited:
                    continue
                visited.add(j)
                if j not in match_r or augment(match_r[j], visited):
                    match_r[j] = i
                    return True
            return False

        return all(augment(i, set()) for i in range(len(h1.edges)))

    return any(distinct_supersets(allowed) for _, allowed in _embeddings(h1, h2, weak=True))


def minimal_two_section_covers(g: Graph) -> List[Hypergraph]:
    """Isomorphism classes of hypergraphs on V(g), minimal under the
    subedge-system order, whose 2-section contains every edge of g.

    Candidate hyperedges are the "closed" vertex subsets (equal to the
    union of the g-edges they contain). Covers are enumerated by branching
    on the first uncovered g-edge, into the candidates holding it (by size,
    then lexicographically), and only into partial covers whose every
    member is the union of its private g-edges (those no other member
    covers). The rule is exact. If a member c is not, the union U of its
    private g-edges is closed and a proper subset of c; swapping c for U
    gives a cover that is a subedge system of this one and not isomorphic
    to it, and an irredundant sub-cover of that one dominates this cover's
    class. Private sets only shrink as members are added, so every cover
    below a failing node fails too, and every cover of a minimal class
    passes at each node on its path. The covers are reduced modulo
    isomorphism, each class represented by the first of its covers the
    branching reaches, and filtered by subedge domination, which is
    transitive, so the classes kept are those the full search keeps.
    Classes come in canonical-form order.
    """
    if not g.is_uniform(2):
        raise InputError("2-section cover search needs a 2-uniform input")
    if g.n > MAX_COVER_VERTICES:
        raise GuardError(f"{g.n} vertices, guard is {MAX_COVER_VERTICES}")
    if not all(g.incidence):
        raise InputError("input graph must have no isolated vertices")
    # g-edges as vertex bitmasks; a set of g-edges is a bitmask over their
    # ids, and span[s] is the union of the g-edges in s (2^15 entries for K6)
    pairs = [sum(1 << v for v in e) for e in g.edges]
    span = [0]
    for pr in pairs:
        span += [s | pr for s in span]

    candidates: List[Tuple[int, ...]] = []
    holds: List[int] = []  # the g-edges each candidate holds
    for size in range(2, g.n + 1):
        for sub in combinations(range(g.n), size):
            s = sum(1 << v for v in sub)
            held = sum(1 << i for i, pr in enumerate(pairs) if pr & s == pr)
            if held and span[held] == s:
                candidates.append(sub)
                holds.append(held)
    by_edge = [[c for c, held in enumerate(holds) if held >> i & 1] for i in range(len(pairs))]

    all_edges = (1 << len(pairs)) - 1
    covers: Dict[frozenset, None] = {}  # insertion-ordered: first reached first

    def rec(chosen: Tuple[int, ...], covered: int, once: int) -> None:
        """once: the g-edges covered by exactly one member of chosen."""
        if covered == all_edges:
            covers[frozenset(chosen)] = None
            return
        target = (covered + 1 & ~covered).bit_length() - 1  # the first uncovered g-edge
        for ci in by_edge[target]:
            held = holds[ci]
            once2 = once & ~held | held & ~covered
            nxt = chosen + (ci,)
            if all(span[holds[c] & once2] == span[holds[c]] for c in nxt):
                rec(nxt, covered | held, once2)

    rec((), 0, 0)

    reps: Dict[tuple, Hypergraph] = {}
    for cover in covers:
        hyp = Hypergraph._normalised(g.n, [candidates[ci] for ci in cover])
        reps.setdefault(canonical_form(hyp), hyp)

    # distinct classes are not isomorphic, and two hypergraphs on g.n
    # vertices that are subedge systems of each other are, so one
    # direction of the test decides domination
    keep = [
        key
        for key, hyp in reps.items()
        if not any(k2 != key and is_subedge_system(h2, hyp) for k2, h2 in reps.items())
    ]
    return [reps[key] for key in sorted(keep)]


def classify_two_section(g: Graph, p: ProbSequence) -> ContainmentVerdict:
    """A.a.s. presence/absence of g as a subgraph of the 2-section of
    H(n, p), decided through the minimal cover family."""
    _require_powerlaw(p)
    covers = minimal_two_section_covers(g)
    verdicts = [(H, classify_weak(H, p)) for H in covers]
    for H, v in verdicts:
        if v.outcome == "aas_present":
            return ContainmentVerdict(
                "aas_present",
                v.exponent,
                H,
                reason="a minimal cover appears weakly: " + v.reason,
            )
    if all(v.outcome == "aas_absent" for _, v in verdicts):
        H, v = verdicts[0]
        return ContainmentVerdict(
            "aas_absent",
            v.exponent,
            v.witness,
            reason="every minimal cover has a vanishing subgraph",
        )
    return ContainmentVerdict(
        "inconclusive",
        None,
        None,
        reason="no cover is conclusively present and not all are absent",
    )
