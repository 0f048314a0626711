"""The non-uniform random hypergraph model H(n, p).

A probability sequence assigns to each edge size r <= M either a number
p_r in [0, 1] (numeric mode) or a power law c_r * n^(-alpha_r) with exact
rational alpha_r (power-law mode, used by the asymptotic classifiers).
Sampling puts each size-r subset into the hypergraph independently with
probability p_r.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .core import Hypergraph
from .errors import BudgetError, InputError, _integer

__all__ = [
    "ProbSequence",
    "from_edge_counts",
    "covering_probability",
    "sample",
    "DEFAULT_EDGE_BUDGET",
]

DEFAULT_EDGE_BUDGET = 5_000_000

# switch to exhaustive subset enumeration below this many r-subsets
_ENUMERATION_LIMIT = 1 << 18


@dataclass(frozen=True)
class ProbSequence:
    """M-bounded per-size edge probabilities.

    Exactly one of `numeric` and `powerlaw` is set. Sizes absent from the
    mapping have probability identically zero, as do all sizes above M.
    Power-law entries are (c, alpha) meaning p_r = c * n^(-alpha) with
    0 < c < inf and alpha an exact nonnegative Fraction.
    """

    M: int
    numeric: Optional[Mapping[int, float]] = None
    powerlaw: Optional[Mapping[int, Tuple[float, Fraction]]] = None

    def __post_init__(self):
        object.__setattr__(self, "M", _integer(self.M, "M"))
        if self.M < 1:
            raise InputError(f"M must be >= 1, got {self.M}")
        if (self.numeric is None) == (self.powerlaw is None):
            raise InputError("exactly one of numeric/powerlaw must be given")
        if self.numeric is not None:
            object.__setattr__(self, "numeric", self._sized(self.numeric))
            for r, p in self.numeric.items():
                if not 0.0 <= p <= 1.0:
                    raise InputError(f"p_{r}={p} outside [0, 1]")
        else:
            object.__setattr__(self, "powerlaw", self._sized(self.powerlaw))
            for r, (c, alpha) in self.powerlaw.items():
                if not 0 < c < math.inf:
                    raise InputError(f"coefficient c_{r}={c} must be finite and > 0")
                if not isinstance(alpha, Fraction) or alpha < 0:
                    raise InputError(f"alpha_{r} must be a nonnegative Fraction")

    def _sized(self, levels: Mapping) -> Dict[int, object]:
        """levels with each size key read as an int in 1..M; a key that is
        not an integer (a float or a boolean too) raises InputError."""
        out = {}
        for r, v in levels.items():
            r = _integer(r, "size")
            if not 1 <= r <= self.M:
                raise InputError(f"size {r} outside 1..M={self.M}")
            out[r] = v
        return out

    @property
    def is_numeric(self) -> bool:
        return self.numeric is not None

    def alpha(self, r: int) -> Optional[Fraction]:
        """Decay exponent at size r (read by _integer); None encodes p_r
        identically 0."""
        if self.powerlaw is None:
            raise InputError("alpha() requires power-law mode")
        r = _integer(r, "size")
        if r in self.powerlaw:
            return self.powerlaw[r][1]
        return None

    def prob_at(self, r: int, n: int) -> float:
        """p_r evaluated at a concrete n (power laws clamped into [0, 1]); r
        is read by _integer, and n as sample reads it."""
        r, n = _integer(r, "size"), _vertex_count(n)
        if r > self.M or r < 1:
            return 0.0
        if self.numeric is not None:
            return float(self.numeric.get(r, 0.0))
        if r not in self.powerlaw:
            return 0.0
        c, alpha = self.powerlaw[r]
        return min(1.0, c * float(n) ** (-float(alpha)))

    def at(self, n: int) -> "ProbSequence":
        """Numeric sequence obtained by evaluating at n (identity if numeric);
        n is read as sample reads it."""
        n = _vertex_count(n)
        if self.numeric is not None:
            return self
        return ProbSequence(
            M=self.M, numeric={r: self.prob_at(r, n) for r in self.powerlaw}
        )

    # -- JSON wire format --------------------------------------------------

    def to_json(self) -> str:
        if self.numeric is not None:
            return json.dumps(
                {"M": self.M, "numeric": {str(r): p for r, p in sorted(self.numeric.items())}}
            )
        return json.dumps(
            {
                "M": self.M,
                "powerlaw": {
                    str(r): {"c": c, "alpha": f"{a.numerator}/{a.denominator}"}
                    for r, (c, a) in sorted(self.powerlaw.items())
                },
            }
        )

    @staticmethod
    def from_json(text: str) -> "ProbSequence":
        try:
            obj = json.loads(text)
            M = obj["M"]
            if "numeric" in obj:
                return ProbSequence(
                    M=M,
                    numeric={int(r): _float(p, f"p_{r}") for r, p in obj["numeric"].items()},
                )
            if "powerlaw" in obj:
                return ProbSequence(
                    M=M,
                    powerlaw={
                        int(r): (_float(spec["c"], f"c_{r}"), Fraction(str(spec["alpha"])))
                        for r, spec in obj["powerlaw"].items()
                    },
                )
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            raise InputError(f"malformed probability sequence: {exc}") from exc
        raise InputError("probability sequence needs a 'numeric' or 'powerlaw' key")


def _vertex_count(n) -> int:
    """n read by _integer; below 1 it raises InputError."""
    n = _integer(n, "n")
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return n


def _float(value, name: str) -> float:
    """A JSON number as a float; a string, boolean or null is not read as one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value)


def from_edge_counts(n: int, counts: Mapping[int, int]) -> ProbSequence:
    """Numeric sequence with p_i = m_i / C(n, i) matching expected counts."""
    n = _integer(n, "n")
    if n < 0:
        raise InputError(f"n must be >= 0, got {n}")
    if not counts:
        raise InputError("no edge counts given")
    numeric: Dict[int, float] = {}
    for r, m in counts.items():
        r, m = _integer(r, "edge size"), _integer(m, f"count for size {r}")
        if r < 1:
            raise InputError(f"edge size {r} must be >= 1")
        if m < 0:
            raise InputError(f"count for size {r} must be >= 0")
        total = math.comb(n, r)
        if m > total:
            raise InputError(f"count m_{r}={m} exceeds C({n},{r})={total}")
        if m:
            numeric[r] = m / total
    M = max(counts)
    if not numeric:
        numeric = {M: 0.0}
    return ProbSequence(M=M, numeric=numeric)


def covering_probability(p: ProbSequence, n: int, r: int) -> float:
    """Probability that a fixed r-set is contained in at least one edge.

    1 - prod_j (1 - p_j)^C(n-r, j-r), evaluated in log space. Any p_j = 1
    with a positive exponent yields exactly 1.
    """
    r = _check_r(p, r)
    n = _integer(n, "n")
    if n < r:
        raise InputError(f"n={n} is below the set size {r}")
    log_miss = 0.0
    for j in range(r, p.M + 1):
        pj = p.prob_at(j, n)
        if pj == 0.0:
            continue
        exponent = math.comb(n - r, j - r)
        if pj >= 1.0:
            if exponent > 0:
                return 1.0
            continue
        log_miss += exponent * math.log1p(-pj)
    return -math.expm1(log_miss)


def _check_r(p: ProbSequence, r: int) -> int:
    """r as an int in 1..M; anything else raises InputError."""
    r = _integer(r, "size")
    if not 1 <= r <= p.M:
        raise InputError(f"size {r} outside 1..M={p.M}")
    return r


def sample(n: int, p: ProbSequence, seed: int) -> Hypergraph:
    """Draw a hypergraph from H(n, p); deterministic given the seed.

    Per size r the edge count is drawn from Bin(C(n,r), p_r) exactly when
    C(n,r) fits in 64 bits, else from Poisson(C(n,r) * p_r); that many
    distinct uniform r-subsets are then drawn (by index when C(n,r) is
    small, by rejection on a hash set otherwise).

    Raises BudgetError for any level whose expected edge count, or drawn
    edge count, exceeds DEFAULT_EDGE_BUDGET, and InputError for a seed that
    is not an integer >= 0.
    """
    n = _vertex_count(n)
    if not p.is_numeric:
        raise InputError("sampling requires a numeric probability sequence")
    seed = _integer(seed, "seed")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    edges: list = []
    for r in range(1, min(p.M, n) + 1):
        pr = p.prob_at(r, n)
        if pr == 0.0:
            continue
        total = math.comb(n, r)
        expected = total * pr
        if expected > DEFAULT_EDGE_BUDGET:
            raise BudgetError(
                f"level r={r}: expected edge count {expected:.3g} exceeds "
                f"budget {DEFAULT_EDGE_BUDGET}"
            )
        if total <= _ENUMERATION_LIMIT:
            k = int(rng.binomial(total, pr))
            idx = np.sort(rng.choice(total, size=k, replace=False))
            edges.extend(_unrank(n, r, idx))
        else:
            if total < 2**63:
                k = int(rng.binomial(total, pr))
            else:
                k = int(rng.poisson(expected))
            if k > DEFAULT_EDGE_BUDGET:
                raise BudgetError(
                    f"level r={r}: drawn edge count {k} exceeds budget "
                    f"{DEFAULT_EDGE_BUDGET}"
                )
            edges.extend(_distinct_subsets(rng, n, r, k, total))
    return Hypergraph._normalised(n, edges)


def _unrank(n: int, r: int, ranks: np.ndarray) -> list:
    """The entries of list(combinations(range(n), r)) at the given ranks,
    without building that list.

    The subset of lexicographic rank i is read off from c = C(n, r) - 1 - i
    in the combinatorial number system: for j = r..1 take the largest m with
    C(m, j) <= c and subtract C(m, j); the element is n - 1 - m. A subset's
    rank is C(n, r) - 1 minus its complement's rank among the
    (n - r)-subsets, so for r > n/2 the complements are unranked instead
    and the table has min(r, n - r) + 1 rows.
    """
    total = math.comb(n, r)
    s = min(r, n - r)
    # table[j, m] = C(m, j), capped at total: only values <= c decide
    table = np.ones((s + 1, n), dtype=np.int64)
    for j in range(1, s + 1):
        table[j, 0] = 0
        np.minimum(np.cumsum(table[j - 1, :-1]), total, out=table[j, 1:])
    c = total - 1 - ranks if s == r else ranks
    out = np.empty((len(ranks), s), dtype=np.int64)
    for j in range(s, 0, -1):
        m = np.searchsorted(table[j], c, side="right") - 1
        c = c - table[j, m]
        out[:, s - j] = n - 1 - m
    if s < r:
        keep = np.ones((len(ranks), n), dtype=bool)
        keep[np.arange(len(ranks))[:, None], out] = False
        out = np.nonzero(keep)[1].reshape(len(ranks), r)
    return list(map(tuple, out.tolist()))


def _distinct_subsets(rng, n: int, r: int, k: int, total: int) -> list:
    """k distinct uniform r-subsets of range(n) by batched rejection."""
    found: list = []
    seen = set()
    while len(found) < k:
        need = k - len(found)
        fresh_rate = max(0.01, (total - len(found)) / total)
        m = max(256, int(need / fresh_rate * 1.3))
        batch = rng.integers(0, n, size=(m, r))
        batch.sort(axis=1)
        if r > 1:
            ok = (batch[:, 1:] != batch[:, :-1]).all(axis=1)
            batch = batch[ok]
        for row in batch.tolist():
            t = tuple(row)
            if t not in seen:
                seen.add(t)
                found.append(t)
                if len(found) == k:
                    break
    return found
