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

from .core import Graph, Hypergraph
from .errors import GuardError, InputError
from .isomorphism import MAX_ENUM_VERTICES, _compacted, _edge_subsets
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

MAX_SUBEDGE_VERTICES = 10
MAX_COVER_VERTICES = 7


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
    level above M is."""
    _require_powerlaw(p)
    if r < 1:
        raise InputError(f"edge size {r} must be >= 1")
    best_i, best = None, None
    for i in range(p.M - r + 1):
        a = p.alpha(r + i)
        if a is not None and (best is None or i - a > best):
            best_i, best = i, i - a
    return best_i, best


def covering_weight_exponent(p: ProbSequence, r: int) -> Exponent:
    """Exact exponent of the covering-weight tail: max_i (i - alpha_{r+i});
    None (-infinity) when no level from r up is nonzero, as for r > M.

    Shared by the power-weighted and binomial-weighted tails, which have
    the same growth order.
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
    is -infinity makes the minimum -infinity; the walk's mask order first
    reaches it at the lowest-index such edge alone, the witness.
    """
    _require_powerlaw(p)
    if h.n < 1:
        raise InputError("pattern must have at least one vertex")
    subsets = _edge_subsets(h)
    per_size = {r: _size_exponent(p, r, weak) for r in set(len(e) for e in h.edges)}
    for e in h.edges:
        if per_size[len(e)] is None:
            return None, _compacted([e])

    best, best_wit = Fraction(1), Hypergraph(1)
    for chosen in subsets:
        val = len(set().union(*chosen)) + sum(per_size[len(e)] for e in chosen)
        if val < best:
            best, best_wit = val, _compacted(chosen)
    return best, best_wit


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
    return Hypergraph(fresh, edges)


def classify_induced_weak(h: Hypergraph, p: ProbSequence) -> ContainmentVerdict:
    """A.a.s. presence/absence of h as an induced weak subhypergraph.

    A non-edge of size r with positive covering-weight exponent forbids
    induced appearance; when the smallest non-edge size has bounded
    covering weight and a vanishing level probability, the plain weak
    verdict carries over; otherwise inconclusive.
    """
    _require_powerlaw(p)
    k = h.n
    if k > MAX_ENUM_VERTICES:
        raise GuardError(f"{k} vertices, guard is {MAX_ENUM_VERTICES}")
    counts = h.size_counts()
    nonedge_sizes = [r for r in range(1, k + 1) if counts.get(r, 0) < math.comb(k, r)]
    if not nonedge_sizes:
        return classify_weak(h, p)
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
    r0 = min(nonedge_sizes)
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
    if h1.n > h2.n or len(h1.edges) > len(h2.edges):
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
    on the first uncovered g-edge, and only into irredundant partial covers
    (every member covers a g-edge no other member covers); subsets of an
    irredundant cover are irredundant, so exactly the irredundant covers
    are reached. They are reduced modulo isomorphism, each class
    represented by the first of its covers the branching reaches, and
    filtered by subedge domination. Classes come in canonical-form order.
    """
    if not g.is_uniform(2):
        raise InputError("2-section cover search needs a 2-uniform input")
    if g.n > MAX_COVER_VERTICES:
        raise GuardError(f"{g.n} vertices, guard is {MAX_COVER_VERTICES}")
    if any(not g.incidence[v] for v in range(g.n)):
        raise InputError("input graph must have no isolated vertices")
    pairs = [set(e) for e in g.edges]
    m = len(pairs)

    candidates: List[Tuple[frozenset, frozenset]] = []  # (vertex set, covered edge ids)
    verts = list(range(g.n))
    for size in range(2, g.n + 1):
        for sub in combinations(verts, size):
            s = set(sub)
            covered = frozenset(i for i, pr in enumerate(pairs) if pr <= s)
            if not covered:
                continue
            union = set()
            for i in covered:
                union |= pairs[i]
            if union == s:
                candidates.append((frozenset(sub), covered))

    all_edges = frozenset(range(m))
    covers: Dict[frozenset, None] = {}  # insertion-ordered: first reached first

    def rec(chosen: Tuple[int, ...], covered: frozenset, once: frozenset) -> None:
        """once: the g-edges covered by exactly one member of chosen. A new
        member covers the uncovered target, so it always has a g-edge of
        its own and is never in chosen already."""
        if covered == all_edges:
            covers[frozenset(chosen)] = None
            return
        target = min(all_edges - covered)
        for ci, (_, cov) in enumerate(candidates):
            if target in cov:
                once2 = (once - cov) | (cov - covered)
                if all(candidates[c][1] & once2 for c in chosen):
                    rec(chosen + (ci,), covered | cov, once2)

    rec((), frozenset(), frozenset())

    reps: Dict[tuple, Hypergraph] = {}
    for cover in covers:
        hyp = Hypergraph(g.n, [candidates[ci][0] for ci in cover])
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
