"""Clique census against the 2-section of a hypergraph.

Lists every K_k copy in the 2-section, classifies each by the signature of
the weak subhypergraph induced on its vertices, and compares observed
signature frequencies/ranks against the theoretical origination
distribution.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import index
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# two_section is not called here; the benchmark's traced run rebinds hnp.census.two_section
from .core import Hypergraph, induced_weak, two_section
from .errors import CliqueCapError, InputError
from .model import ProbSequence
from .signatures import (
    Signature,
    origination_distribution,
    rank_signatures,
)

__all__ = [
    "list_k_cliques",
    "observed_signature",
    "CensusRow",
    "CensusReport",
    "census",
    "spearman_rank_correlation",
]

DEFAULT_CLIQUE_CAP = 100_000_000


def _checked(k: int, cap: int) -> int:
    """k as an int, after InputError unless k is 3, 4 or 5 and cap >= 0."""
    try:
        k = index(k)
    except TypeError:
        raise InputError(f"k must be 3, 4 or 5, got {k!r}") from None
    if k not in (3, 4, 5):
        raise InputError(f"k must be 3, 4 or 5, got {k}")
    if cap < 0:
        raise InputError(f"clique cap must be >= 0, got {cap}")
    return k


# Incidence sets of vertices above this degree are frozen once per census,
# and so is the intersection of two such sets: a hub lies in thousands of
# cliques, and rebuilding its set for each of them was most of the census on
# heavy-tailed hosts. Below the cut, the edges two vertices share are found
# from their incidence tuples in at most 2 * 16 set operations, so nothing
# is kept for them. A set for every vertex would hold 24 MB on a
# 50440-vertex H(n, p) host at 10x the paper's counts, where no vertex is
# above the cut.
_HUB_DEGREE = 16


def _clique_groups(
    h: Hypergraph, k: int, cap: int
) -> Iterator[Tuple[List[int], List[int]]]:
    """Every k-set forming a clique in two_section(h), each exactly once,
    grouped by the walk node it closes: for each node whose children are
    cliques, the node's k-1 vertices in the order the walk added them, and
    the later vertices that each close a clique with them.

    The walk follows the host's cached degeneracy orientation: each vertex
    in order is extended by its forward neighbours, and a vertex added to
    the clique narrows the candidates after it to its own neighbours,
    keeping their order. One loop over an explicit stack of candidate
    lists, one per vertex of the clique so far. A group that takes the
    clique count past the cap raises CliqueCapError naming the cap. k and
    cap are as _checked returns them."""
    order, starts, forward = h._orientation()
    nbrs = h.neighbors
    emitted = 0
    for v, a, b in zip(order, starts, starts[1:]):
        if b - a < k - 1:
            continue
        clique = [v]
        stack = [forward[a:b]]  # stack[j]: the common later neighbours of clique[:j + 1]
        nexts = [0]  # nexts[j]: index in stack[j] of the next vertex to add
        while stack:
            cands, i = stack[-1], nexts[-1]
            need = k - len(clique)
            if len(cands) - i < need:
                stack.pop()
                nexts.pop()
                clique.pop()
                continue
            nexts[-1] = i + 1
            u = cands[i]
            nu = nbrs(u)
            rest = [w for w in cands[i + 1 :] if w in nu]
            if need == 2:
                if rest:
                    emitted += len(rest)
                    if emitted > cap:
                        raise CliqueCapError(cap)
                    yield clique + [u], rest
            elif len(rest) >= need - 1:
                clique.append(u)
                stack.append(rest)
                nexts.append(0)


def list_k_cliques(
    h: Hypergraph, k: int, cap: int = DEFAULT_CLIQUE_CAP
) -> Iterator[Tuple[int, ...]]:
    """Every k-set forming a clique in two_section(h), each exactly once, as
    sorted tuples in deterministic order.

    Expansion follows a degeneracy ordering of the 2-section; exceeding
    the per-run cap raises CliqueCapError naming the cap. k other than 3,
    4 or 5 and a negative cap raise InputError at the call.
    """
    k = _checked(k, cap)
    return (
        tuple(sorted(prefix + [u]))
        for prefix, closers in _clique_groups(h, k, cap)
        for u in closers
    )


def observed_signature(h: Hypergraph, s: Sequence[int]) -> Signature:
    """Signature (e_2 ... e_k), k = len(s), of the weak subhypergraph
    induced on s, ignoring size-1 edges. A vertex outside 0..n-1 or
    repeated in s raises ValueError."""
    sub, mapping = induced_weak(h, s)
    if len(mapping) != len(s):
        raise ValueError(f"repeated vertex in {tuple(s)}")
    sizes = Counter(len(e) for e in sub.edges)
    return tuple(sizes[r] for r in range(2, len(s) + 1))


def spearman_rank_correlation(xs: Sequence[int], ys: Sequence[int]) -> float:
    """Classic Spearman formula over two rank permutations; 1.0 by
    convention when fewer than two points."""
    m = len(xs)
    if m <= 1:
        return 1.0
    d2 = sum((x - y) ** 2 for x, y in zip(xs, ys))
    return 1.0 - 6.0 * d2 / (m * (m * m - 1))


@dataclass(frozen=True)
class CensusRow:
    signature: Signature
    observed_count: int
    observed_prob: float
    theory_prob: float
    r_theory: int  # rank within the full theory table
    r_theory_observed: int  # rank among observed signatures by theory prob
    r_observed: int  # rank among observed signatures by count


@dataclass(frozen=True)
class CensusReport:
    k: int
    n: int
    total_cliques: int
    rows: Tuple[CensusRow, ...]  # sorted by r_observed
    unobserved: Tuple[Tuple[Signature, int], ...]  # (signature, r_theory)
    ties: Tuple[Signature, ...]  # observed signatures sharing a count
    spearman: float
    weight_mode: str

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "total_cliques": self.total_cliques,
            "spearman_r_theory_observed_vs_r_observed": self.spearman,
            "weight_mode": self.weight_mode,
            "rows": [
                {
                    "signature": list(r.signature),
                    "observed_count": r.observed_count,
                    "observed_prob": r.observed_prob,
                    "theory_prob": r.theory_prob,
                    "r_theory": r.r_theory,
                    "r_theory_observed": r.r_theory_observed,
                    "r_observed": r.r_observed,
                }
                for r in self.rows
            ],
            "unobserved": [
                {"signature": list(sig), "r_theory": rt} for sig, rt in self.unobserved
            ],
            "ties": [list(sig) for sig in self.ties],
        }


def census(
    h: Hypergraph,
    k: int,
    p: ProbSequence,
    n: Optional[int] = None,
    cap: int = DEFAULT_CLIQUE_CAP,
) -> CensusReport:
    """Aggregate observed signatures over all K_k copies and join them with
    the origination distribution.

    Every observed signature must be feasible; an infeasible one indicates
    an implementation bug and raises AssertionError. n defaults to the
    host's vertex count for the theory side. k other than 3, 4 or 5 and a
    negative cap raise InputError; more than cap cliques raise
    CliqueCapError.
    """
    k = _checked(k, cap)
    n_theory = h.n if n is None else n
    table = origination_distribution(k, p, n_theory)
    ranked = rank_signatures(table)
    theory_rank = dict(ranked)

    inc = h.incidence
    hub = [frozenset(ids) if len(ids) > _HUB_DEGREE else None for ids in inc]
    hub_pairs: Dict[Tuple[int, int], frozenset] = {}

    def shared(a: int, b: int):
        """Ids of the edges containing both a and b."""
        sa, sb = hub[a], hub[b]
        if sa is None:
            if sb is None:
                return set(inc[a]).intersection(inc[b])
            return sb.intersection(inc[a])
        if sb is None:
            return sa.intersection(inc[b])
        key = (a, b) if a < b else (b, a)
        ab = hub_pairs.get(key)
        if ab is None:
            ab = hub_pairs[key] = sa & sb
        return ab

    # A clique's signature counts the distinct vertex sets e & s by size.
    # Each edge meeting s in two or more vertices gets the bitmask of the
    # clique vertices it contains (bit j is the j-th vertex the walk added).
    # The pairs of a group's k-1 shared vertices are intersected once; each
    # clique adds only the k-1 pairs with its last vertex.
    bit = [1 << j for j in range(k)]
    popcount = [bin(m).count("1") for m in range(1 << k)]
    tallies: Counter = Counter()
    for prefix, closers in _clique_groups(h, k, cap):
        meets: Dict[int, int] = {}
        for b in range(1, k - 1):
            for a in range(b):
                ab = bit[a] | bit[b]
                for i in shared(prefix[a], prefix[b]):
                    meets[i] = meets.get(i, 0) | ab
        with_last = [(v, bit[a] | bit[k - 1]) for a, v in enumerate(prefix)]
        for u in closers:
            m = meets.copy()
            for v, au in with_last:
                for i in shared(v, u):
                    m[i] = m.get(i, 0) | au
            sizes = [0] * (k + 1)
            for x in set(m.values()):
                sizes[popcount[x]] += 1
            sig = tuple(sizes[2:])
            if sig not in table.entries:
                raise AssertionError(
                    f"observed signature {sig} on clique {tuple(sorted(prefix + [u]))} "
                    f"is not feasible; this indicates a bug in the census pipeline"
                )
            tallies[sig] += 1
    total = sum(tallies.values())

    observed = sorted(tallies)
    by_count = sorted(observed, key=lambda sig: (-tallies[sig], sig))
    r_observed = {sig: i + 1 for i, sig in enumerate(by_count)}
    by_theory = [sig for sig, _ in ranked if sig in tallies]
    r_theory_observed = {sig: i + 1 for i, sig in enumerate(by_theory)}

    count_freq = Counter(tallies.values())
    ties = tuple(sig for sig in by_count if count_freq[tallies[sig]] > 1)

    rows = tuple(
        CensusRow(
            signature=sig,
            observed_count=tallies[sig],
            observed_prob=tallies[sig] / total,
            theory_prob=table.probability(sig),
            r_theory=theory_rank[sig],
            r_theory_observed=r_theory_observed[sig],
            r_observed=r_observed[sig],
        )
        for sig in by_count
    )
    unobserved = tuple((sig, rank) for sig, rank in ranked if sig not in tallies)
    rho = spearman_rank_correlation(
        [r_theory_observed[sig] for sig in observed],
        [r_observed[sig] for sig in observed],
    )
    return CensusReport(
        k=k,
        n=n_theory,
        total_cliques=total,
        rows=rows,
        unobserved=unobserved,
        ties=ties,
        spearman=rho,
        weight_mode=table.weight_mode,
    )

