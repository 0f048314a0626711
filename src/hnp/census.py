"""Clique census against the 2-section of a hypergraph.

Lists every K_k copy in the 2-section, classifies each by the signature of
the weak subhypergraph induced on its vertices, and compares observed
signature frequencies/ranks against the theoretical origination
distribution. The cliques come from the 2-section walk in `core` (`_walk`,
along the host's degree orientation) with the places of their pairs in the
pair table, which the walk found, so signing them looks nothing up.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

# two_section is not called here; the benchmark's traced run rebinds hnp.census.two_section
from .core import _SIGN_BLOCK, Hypergraph, _spans, _walk, _within, induced_weak, two_section
from .errors import CliqueCapError, InputError, _integer
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


def _checked(k: int, cap: int) -> Tuple[int, int]:
    """(k, cap) as ints, after InputError unless k is 3, 4 or 5 and cap is an
    integer >= 0."""
    k = _integer(k, "k")
    if k not in (3, 4, 5):
        raise InputError(f"k must be 3, 4 or 5, got {k}")
    cap = _integer(cap, "clique cap")
    if cap < 0:
        raise InputError(f"clique cap must be >= 0, got {cap}")
    return k, cap


def _clique_blocks(h: Hypergraph, k: int, cap: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every k-set forming a clique in two_section(h), each exactly once, in
    walk order, in blocks (cliques, places) of at most _SIGN_BLOCK // C(k, 2)
    rows: each clique as a sorted int64 row, with the places in the pair keys
    of its pairs that the walk found (01, 02, 12, 03, ... in the walk's order
    of its vertices). The walk's roots are the vertices of the host's cached
    degree orientation, with their forward neighbours as candidates. A node
    that takes the clique count past the cap adds nothing: the rows before its
    run are handed over, then CliqueCapError names the cap. k and cap are as
    _checked returns them."""
    order, starts, forward, place = h._orientation()
    block, emitted = _SIGN_BLOCK // comb(k, 2), 0
    vertex = np.cumsum(np.arange(k))  # the vertex columns of a clique's row, its pair places between
    for prefix, cands, off in _walk(h, order[:, None], np.column_stack((forward, place)), starts, k - 1):
        node = np.repeat(np.arange(len(prefix)), np.diff(off))
        stop = len(cands)
        if emitted + stop > cap:  # to the start of the run holding clique cap + 1
            stop = int(off[np.searchsorted(off, cap - emitted, "right") - 1])
        for lo, hi in _spans(np.arange(stop + 1), block):
            rows = np.column_stack((prefix[node[lo:hi]], cands[lo:hi]))
            yield np.sort(rows[:, vertex], axis=1), np.delete(rows, vertex, axis=1)
        if stop < len(cands):
            raise CliqueCapError(cap)
        emitted += stop


def _signatures(h: Hypergraph, places: np.ndarray, k: int) -> np.ndarray:
    """The signature (e_2 ... e_k) of each k-clique s, given the places in
    the pair keys of its pairs (01, 02, 12, 03, ...): the number of distinct
    sets e & s of each size from 2 to k. Each pair is expanded to its run of
    edge ids; sorted, the (clique, edge, pair bits) rows put each (clique,
    edge) in one run, whose OR is the mask of the columns of s in e."""
    _, offsets, ids = h._pair_table()
    c = len(places)
    start, count = offsets[places], offsets[places + 1] - offsets[places]
    before = np.concatenate(([0], np.cumsum(count.sum(axis=1))))  # rows of the cliques before each
    m = len(h.edges)
    bits = [1 << a | 1 << b for b in range(k) for a in range(b)]
    tags = np.arange(c, dtype=np.int64)[:, None] * m << 5 | bits  # clique * m << 5 | pair bits
    present = np.zeros((c, 1 << k), dtype=bool)  # present[i, mask]: an edge meets clique i in mask
    for lo, hi in _spans(before, _SIGN_BLOCK):  # at most _SIGN_BLOCK rows, or one clique
        runs = count[lo:hi].ravel()
        row = np.repeat(tags[lo:hi].ravel(), runs)
        at_row = np.repeat(start[lo:hi].ravel(), runs) + _within(runs)
        row += ids[at_row].astype(np.int64) << 5
        row.sort()
        new = np.flatnonzero(np.diff(row >> 5, prepend=-1))
        present[(row[new] >> 5) // m, np.bitwise_or.reduceat(row & 31, new)] = True
    popcount = np.array([bin(x).count("1") for x in range(1 << k)])
    return present.astype(np.int64) @ (popcount[:, None] == np.arange(2, k + 1))


def list_k_cliques(
    h: Hypergraph, k: int, cap: int = DEFAULT_CLIQUE_CAP
) -> Iterator[Tuple[int, ...]]:
    """Every k-set forming a clique in two_section(h), each exactly once, as
    sorted tuples in deterministic order.

    Expansion follows the degree order of the 2-section; exceeding
    the per-run cap raises CliqueCapError naming the cap. k other than 3,
    4 or 5 and a cap that is not an integer >= 0 raise InputError at the
    call.
    """
    k, cap = _checked(k, cap)
    return (tuple(row) for cliques, _ in _clique_blocks(h, k, cap) for row in cliques.tolist())


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
    cap that is not an integer >= 0 raise InputError; more than cap
    cliques raise CliqueCapError, before any listing when one edge alone
    holds more than cap k-subsets, each of them a clique.
    """
    k, cap = _checked(k, cap)
    table = origination_distribution(k, p, h.n if n is None else n)
    ranked = rank_signatures(table)
    theory_rank = dict(ranked)

    # every k-subset of an edge is a clique, and the last edge is a largest
    if h.edges and comb(len(h.edges[-1]), k) > cap:
        raise CliqueCapError(cap)
    radix = [comb(k, r) + 1 for r in range(2, k + 1)]  # e_r is at most C(k, r)
    tallies: Counter = Counter()
    for cliques, places in _clique_blocks(h, k, cap):
        sizes = _signatures(h, places, k)
        codes = np.ravel_multi_index(sizes.T, radix)
        _, first, inverse, counts = np.unique(
            codes, return_index=True, return_inverse=True, return_counts=True
        )
        sigs = [tuple(sig) for sig in sizes[first].tolist()]
        feasible = np.array([sig in table.entries for sig in sigs])
        if not feasible.all():
            i = int(np.argmin(feasible[inverse]))  # the first infeasible clique
            raise AssertionError(
                f"observed signature {sigs[inverse[i]]} on clique {tuple(cliques[i].tolist())} "
                f"is not feasible; this indicates a bug in the census pipeline"
            )
        tallies.update(dict(zip(sigs, counts.tolist())))
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
        n=table.n,
        total_cliques=total,
        rows=rows,
        unobserved=unobserved,
        ties=ties,
        spearman=rho,
        weight_mode=table.weight_mode,
    )

