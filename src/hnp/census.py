"""Clique census against the 2-section of a hypergraph.

Lists every K_k copy in the 2-section, classifies each by the signature of
the weak subhypergraph induced on its vertices, and compares observed
signature frequencies/ranks against the theoretical origination
distribution.
"""

from __future__ import annotations

import csv
import heapq
import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, List, Optional, Sequence, Tuple

# two_section is not called here; the benchmark's traced run rebinds hnp.census.two_section
from .core import Hypergraph, two_section
from .errors import CliqueCapError, InputError
from .model import ProbSequence
from .signatures import (
    OriginationTable,
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
    "write_census_json",
    "write_census_csv",
    "write_scatter_csv",
]

DEFAULT_CLIQUE_CAP = 100_000_000


def _check_k(k: int) -> None:
    if k not in (3, 4, 5):
        raise InputError(f"k must be 3, 4 or 5, got {k}")


def _degeneracy_order(adj: List[frozenset]) -> List[int]:
    """Repeated minimum-degree removal; ties go to the smallest id.

    Bucket queue (Matula & Beck 1983): a min-heap of ids per degree whose
    stale entries are skipped on pop; the minimum drops by at most 1 per
    removal."""
    n = len(adj)
    deg = [len(a) for a in adj]
    removed = [False] * n
    buckets: List[List[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)  # ascending ids, so already a heap
    order = []
    d = 0
    for _ in range(n):
        while True:
            b = buckets[d]
            while b and deg[b[0]] != d:
                heapq.heappop(b)
            if b:
                break
            d += 1
        v = heapq.heappop(b)
        removed[v] = True
        order.append(v)
        for u in adj[v]:
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(buckets[deg[u]], u)
        d = max(d - 1, 0)
    return order


def list_k_cliques(
    h: Hypergraph, k: int, cap: int = DEFAULT_CLIQUE_CAP
) -> Iterator[Tuple[int, ...]]:
    """Every k-set forming a clique in two_section(h), each exactly once, as
    sorted tuples in deterministic order.

    Expansion pivots on a degeneracy ordering of the 2-section; exceeding
    the per-run cap raises CliqueCapError naming the cap.
    """
    _check_k(k)
    adj = [h.neighbors(v) for v in range(h.n)]
    order = _degeneracy_order(adj)
    pos = sorted(range(h.n), key=order.__getitem__)  # inverse of order
    emitted = 0

    def extend(clique: List[int], cands: List[int]) -> Iterator[Tuple[int, ...]]:
        nonlocal emitted
        if len(clique) == k:
            emitted += 1
            if emitted > cap:
                raise CliqueCapError(cap)
            yield tuple(sorted(clique))
            return
        need = k - len(clique)
        for i, u in enumerate(cands):
            if len(cands) - i < need:
                break
            nu = adj[u]
            rest = [w for w in cands[i + 1 :] if w in nu]
            if len(rest) >= need - 1:
                yield from extend(clique + [u], rest)

    for v in order:
        pv = pos[v]
        later = sorted((u for u in adj[v] if pos[u] > pv), key=pos.__getitem__)
        if len(later) >= k - 1:
            yield from extend([v], later)


def observed_signature(h: Hypergraph, s: Sequence[int]) -> Signature:
    """Signature (e_2 ... e_k) of the weak subhypergraph induced on s,
    ignoring size-1 edges. Assumes s induces a clique in the 2-section.

    Only edges meeting s in two or more vertices count: those in the
    incidence lists of some pair of s."""
    k = len(s)
    if any(not 0 <= v < h.n for v in s):
        raise ValueError(f"vertex subset not within 0..{h.n - 1}")
    sset = frozenset(s)
    inc = [frozenset(h.incidence[v]) for v in s]
    ids = set().union(*(a & b for a, b in combinations(inc, 2)))
    sizes = Counter(len(x) for x in {sset.intersection(h.edges[i]) for i in ids})
    return tuple(sizes[r] for r in range(2, k + 1))


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
    weight_mode: str = "labelled",
    cap: int = DEFAULT_CLIQUE_CAP,
    table: Optional[OriginationTable] = None,
) -> CensusReport:
    """Aggregate observed signatures over all K_k copies and join them with
    the origination distribution.

    Every observed signature must be feasible; an infeasible one indicates
    an implementation bug and raises AssertionError. n defaults to the
    host's vertex count for the theory side.
    """
    _check_k(k)
    n_theory = h.n if n is None else n
    if table is None:
        table = origination_distribution(k, p, n_theory, weight_mode)
    theory_rank = dict(rank_signatures(table))

    tallies: Counter = Counter()
    total = 0
    for s in list_k_cliques(h, k, cap):
        sig = observed_signature(h, s)
        if sig not in table.entries:
            raise AssertionError(
                f"observed signature {sig} on clique {s} is not feasible; "
                f"this indicates a bug in the census pipeline"
            )
        tallies[sig] += 1
        total += 1

    observed = sorted(tallies)
    by_count = sorted(observed, key=lambda sig: (-tallies[sig], sig))
    r_observed = {sig: i + 1 for i, sig in enumerate(by_count)}
    by_theory = sorted(observed, key=lambda sig: (-table.probability(sig), sig))
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
    unobserved = tuple(
        sorted(
            ((sig, theory_rank[sig]) for sig in table.entries if sig not in tallies),
            key=lambda kv: kv[1],
        )
    )
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


def write_census_json(report: CensusReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=1)
        fh.write("\n")


def write_census_csv(report: CensusReport, theory_path: str, observed_path: str) -> None:
    """Two tables: full theory ranking (observed columns blank where a
    signature never occurred) and the observed ranking."""
    by_sig = {r.signature: r for r in report.rows}
    theory_items: List[Tuple[Signature, int]] = sorted(
        [(r.signature, r.r_theory) for r in report.rows] + list(report.unobserved),
        key=lambda kv: kv[1],
    )
    with open(theory_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["signature", "probability_theory", "r_theory", "r_theory_observed",
             "probability_observed", "r_observed"]
        )
        for sig, rt in theory_items:
            row = by_sig.get(sig)
            if row is None:
                w.writerow([",".join(map(str, sig)), "", rt, "", "", ""])
            else:
                w.writerow(
                    [
                        ",".join(map(str, sig)),
                        f"{row.theory_prob:.10e}",
                        rt,
                        row.r_theory_observed,
                        f"{row.observed_prob:.10e}",
                        row.r_observed,
                    ]
                )
    with open(observed_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["signature", "probability_theory", "r_theory_observed",
             "probability_observed", "r_observed"]
        )
        for r in report.rows:
            w.writerow(
                [
                    ",".join(map(str, r.signature)),
                    f"{r.theory_prob:.10e}",
                    r.r_theory_observed,
                    f"{r.observed_prob:.10e}",
                    r.r_observed,
                ]
            )


def write_scatter_csv(report: CensusReport, path: str) -> None:
    """(r_theory_observed, r_observed) pairs for rank scatter plots."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["r_theory_observed", "r_observed"])
        for r in sorted(report.rows, key=lambda r: r.r_theory_observed):
            w.writerow([r.r_theory_observed, r.r_observed])
