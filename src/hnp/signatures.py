"""Edge-count signatures of hypergraphs whose 2-section is a complete graph,
and origination probabilities for cliques found in the 2-section.

The signature of a k-vertex hypergraph is the vector (e_2, ..., e_k) of
edge counts by size; size-1 edges are excluded throughout since they never
affect 2-section cliques. A signature is feasible when at least one
labelled hypergraph on [k] with those counts 2-sections to K_k.

Weights count labelled hypergraphs per signature by inclusion-exclusion
over the set of uncovered vertex pairs: a selection avoiding a pair set T
may only use subsets that are independent in the graph ([k], T), so the
covering count is sum_T (-1)^|T| prod_r C(indep_r(T), e_r).

The "aut" weights sum aut(H) over a signature class, which by Burnside's
lemma is a sum over permutations of the hypergraphs each one fixes. Both
modes share that one routine: the labelled weights are its identity term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Dict, Iterator, List, Mapping, Tuple

import numpy as np

from .core import _left_sum
from .errors import InputError, _integer
from .model import ProbSequence, covering_probability

__all__ = [
    "Signature",
    "OriginationTable",
    "lattice_size",
    "signature_lattice",
    "signature_weights",
    "labelled_weight",
    "labelled_total",
    "origination_distribution",
    "rank_signatures",
]

Signature = Tuple[int, ...]

MIN_K = 2
MAX_K = 5

_memo: Dict[Tuple[int, str], Dict[Signature, int]] = {}


def _check_k(k: int) -> int:
    """k as an int, after InputError unless it is in MIN_K..MAX_K."""
    k = _integer(k, "k")
    if not MIN_K <= k <= MAX_K:
        raise InputError(f"k must be in {MIN_K}..{MAX_K}, got {k}")
    return k


def _dims(k: int) -> List[int]:
    """Per-size subset counts C(k, r) for r = 2..k."""
    return [math.comb(k, r) for r in range(2, k + 1)]


def lattice_size(k: int) -> int:
    """Number of signature lattice points prod_r (C(k,r) + 1)."""
    k = _check_k(k)
    return math.prod(d + 1 for d in _dims(k))


def signature_lattice(k: int) -> Iterator[Signature]:
    """All signature vectors, feasible or not, in lexicographic order."""
    k = _check_k(k)
    yield from product(*(range(d + 1) for d in _dims(k)))


def _subsets_by_size(k: int) -> Dict[int, List[Tuple[Tuple[int, ...], int]]]:
    """For each r: list of (subset, pair mask)."""
    bits = {pr: i for i, pr in enumerate(combinations(range(k), 2))}
    out: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}
    for r in range(2, k + 1):
        rows = []
        for sub in combinations(range(k), r):
            mask = 0
            for pr in combinations(sub, 2):
                mask |= 1 << bits[pr]
            rows.append((sub, mask))
        out[r] = rows
    return out


def _orbits(
    perm: Tuple[int, ...], rows: List[Tuple[Tuple[int, ...], int]]
) -> List[Tuple[int, int]]:
    """(orbit length, union pair mask) of each orbit of perm on the subsets
    in rows."""
    mask_of = dict(rows)
    seen = set()
    out = []
    for sub, _ in rows:
        if sub in seen:
            continue
        length, mask, cur = 0, 0, sub
        while cur not in seen:
            seen.add(cur)
            length += 1
            mask |= mask_of[cur]
            cur = tuple(sorted(perm[v] for v in cur))
        out.append((length, mask))
    return out


def _burnside_weights(
    k: int, classes: List[Tuple[Tuple[int, ...], int]]
) -> Dict[Signature, int]:
    """Per signature, the sum over (permutation, class size) pairs of class
    size times the number of labelled hypergraphs with that signature whose
    2-section is K_k and which the permutation fixes; only positive sums
    are kept.

    A fixed hypergraph is a union of orbits of r-subsets. Per pair set T,
    a knapsack over the orbits avoiding T counts selections by size, and
    inclusion-exclusion over T keeps those covering every pair.
    """
    sizes = range(2, k + 1)
    dims = _dims(k)
    subsets = _subsets_by_size(k)
    pair_sets = np.arange(1 << math.comb(k, 2))
    signs = np.array([1 - 2 * (bin(t).count("1") % 2) for t in pair_sets], dtype=np.int64)

    def outer(coeffs: List[np.ndarray]) -> np.ndarray:
        """Row-wise outer product: one row per pair set."""
        acc = np.ones((len(pair_sets), 1), dtype=np.int64)
        for c in coeffs:
            acc = (acc[:, :, None] * c[:, None, :]).reshape(len(pair_sets), -1)
        return acc

    total = 0
    for perm, class_size in classes:
        coeffs = []
        for r, d in zip(sizes, dims):
            coeff = np.zeros((len(pair_sets), d + 1), dtype=np.int64)
            coeff[:, 0] = 1
            for length, mask in _orbits(perm, subsets[r]):
                free = (pair_sets & mask) == 0
                coeff[:, length:] += free[:, None] * coeff[:, : d + 1 - length]
            coeffs.append(coeff)
        # the sum over pair sets is a matrix product of the outer products of
        # the two halves of the sizes; the full pair set x lattice array
        # (12 MB at k=5) would raise the allocator's mmap threshold and with
        # it the process's later peak memory
        half = len(coeffs) // 2
        left = signs[:, None] * outer(coeffs[:half])
        total = total + class_size * (left.T @ outer(coeffs[half:]))
    total = total.reshape([d + 1 for d in dims])
    return {sig: int(total[sig]) for sig in signature_lattice(k) if total[sig] > 0}


def _labelled_weights(k: int) -> Dict[Signature, int]:
    """Labelled hypergraphs per signature: the identity term alone."""
    return _burnside_weights(k, [(tuple(range(k)), 1)])


def _conjugacy_classes(k: int) -> List[Tuple[Tuple[int, ...], int]]:
    """(first permutation, class size) for each cycle type of S_k."""
    points = [((v,), 0) for v in range(k)]
    classes: Dict[Tuple[int, ...], list] = {}
    for perm in permutations(range(k)):
        cycle_type = tuple(sorted(length for length, _ in _orbits(perm, points)))
        classes.setdefault(cycle_type, [perm, 0])[1] += 1
    return [(perm, size) for perm, size in classes.values()]


def _aut_weights(k: int) -> Dict[Signature, int]:
    """sum over labelled H in the signature class of aut(H), equal to
    k! times the number of isomorphism classes (each orbit contributes k!):
    the Burnside sum over every conjugacy class of S_k."""
    return _burnside_weights(k, _conjugacy_classes(k))


def signature_weights(k: int, weight_mode: str = "labelled") -> Dict[Signature, int]:
    """Weights of all feasible signatures on k vertices.

    weight_mode "labelled" counts labelled hypergraphs (the default, and
    the weighting the origination distribution uses); "aut" sums aut(H)
    over the class instead. Computed exactly in-process (k=5 takes tens
    of milliseconds) and kept for the life of the process; nothing is
    read from or written to disk.
    """
    k = _check_k(k)
    if weight_mode not in ("labelled", "aut"):
        raise InputError(f"weight_mode must be labelled or aut, got {weight_mode!r}")
    key = (k, weight_mode)
    if key not in _memo:
        _memo[key] = _labelled_weights(k) if weight_mode == "labelled" else _aut_weights(k)
    return _memo[key]


def labelled_weight(sig: Signature) -> int:
    """Number of labelled hypergraphs on [k] with edge counts sig whose
    2-section is K_k; k is len(sig) + 1."""
    k = len(sig) + 1
    _check_k(k)
    for e, d in zip(sig, _dims(k)):
        if not 0 <= e <= d:
            raise InputError(f"signature {sig} outside the k={k} lattice")
    return signature_weights(k).get(tuple(sig), 0)


def labelled_total(sig: Signature) -> int:
    """Number of labelled hypergraphs with edge counts sig, 2-section
    unconstrained: prod_r C(C(k,r), e_r)."""
    k = len(sig) + 1
    _check_k(k)
    return math.prod(math.comb(d, e) for d, e in zip(_dims(k), sig))


# -- origination ------------------------------------------------------------


@dataclass(frozen=True)
class OriginationTable:
    """Per-signature origination weights and normalized probabilities for a
    clique found in the 2-section of H(n, p)."""

    k: int
    n: int
    weight_mode: str
    entries: Mapping[Signature, Tuple[int, float]]  # sig -> (weight, probability)

    def probability(self, sig: Signature) -> float:
        return self.entries[tuple(sig)][1]


def origination_distribution(
    k: int,
    p: ProbSequence,
    n: int,
    weight_mode: str = "labelled",
) -> OriginationTable:
    """Distribution of the originating signature for a uniformly random
    K_k copy in the 2-section.

    Unnormalized mass per feasible signature e is
    weight(e) * prod_r q_r^{e_r} (1 - q_r)^{C(k,r) - e_r}, with q_r the
    probability that a fixed r-set extends to an edge; masses are computed
    in log space and normalized over all feasible signatures. The weights
    are signature_weights(k, weight_mode), computed in-process.
    """
    k = _check_k(k)
    n = _integer(n, "n")
    if not p.is_numeric:
        raise InputError("origination needs a numeric probability sequence")
    if p.M < k:
        raise InputError(f"sequence is {p.M}-bounded but k={k} requires M >= k")
    q = {r: covering_probability(p, n, r) for r in range(2, k + 1)}
    if all(v == 0.0 for v in q.values()):
        raise InputError("all extension probabilities at sizes 2..k are zero; "
                         "origination distribution is undefined")
    weights = signature_weights(k, weight_mode)
    dims = _dims(k)
    logs: Dict[Signature, float] = {}
    for sig, w in weights.items():
        lw = math.log(w)
        dead = False
        for ri, e in enumerate(sig):
            qr = q[ri + 2]
            cap = dims[ri]
            if e:
                if qr == 0.0:
                    dead = True
                    break
                lw += e * math.log(qr)
            if cap - e:
                if qr >= 1.0:
                    dead = True
                    break
                lw += (cap - e) * math.log1p(-qr)
        if not dead:
            logs[sig] = lw
    if not logs:
        raise InputError("no feasible signature has positive mass")
    top = max(logs.values())
    norm = top + math.log(_left_sum(math.exp(lv - top) for lv in logs.values()))
    entries = {
        sig: (weights[sig], math.exp(logs[sig] - norm) if sig in logs else 0.0)
        for sig in sorted(weights)
    }
    return OriginationTable(k=k, n=n, weight_mode=weight_mode, entries=entries)


def rank_signatures(table: OriginationTable) -> List[Tuple[Signature, int]]:
    """Signatures with 1-based ranks, descending probability; exact ties
    broken lexicographically on the signature vector."""
    ordered = sorted(table.entries.items(), key=lambda kv: (-kv[1][1], kv[0]))
    return [(sig, i + 1) for i, (sig, _) in enumerate(ordered)]

