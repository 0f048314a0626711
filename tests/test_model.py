import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hnp import (
    BudgetError,
    InputError,
    ProbSequence,
    covering_probability,
    from_edge_counts,
    sample,
)
from hnp.model import _ENUMERATION_LIMIT, _unrank

BENCH_N = 5044
BENCH_COUNTS = {2: 5975, 3: 2128, 4: 1034, 5: 561}

# Reference ratios for the benchmark counts at n=5044: the ratio of the
# (1,0,0,1) and (0,0,0,1) origination probabilities equals
# 10 * q_2 / (1 - q_2) with q_2 the size-2 extension probability, and the
# (0,1,0,1) row gives the same for q_3.
_RATIO_2 = (1.8649018608e-02 / 9.8118419955e-01) / 10
Q2_REF = _RATIO_2 / (1 + _RATIO_2)
_RATIO_3 = (5.4464266334e-06 / 9.8118419955e-01) / 10
Q3_REF = _RATIO_3 / (1 + _RATIO_3)


@pytest.fixture(scope="module")
def bench():
    return from_edge_counts(BENCH_N, BENCH_COUNTS)


class TestProbSequence:
    def test_exactly_one_mode(self):
        with pytest.raises(InputError):
            ProbSequence(M=2)
        with pytest.raises(InputError):
            ProbSequence(M=2, numeric={2: 0.1}, powerlaw={2: (1.0, Fraction(1))})

    def test_numeric_bounds(self):
        with pytest.raises(InputError):
            ProbSequence(M=2, numeric={2: 1.5})
        with pytest.raises(InputError):
            ProbSequence(M=2, numeric={3: 0.1})

    def test_powerlaw_requires_fraction(self):
        with pytest.raises(InputError):
            ProbSequence(M=2, powerlaw={2: (1.0, 0.5)})

    @pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -1.0])
    def test_powerlaw_coefficient_finite_positive(self, c):
        with pytest.raises(InputError, match="must be finite and > 0"):
            ProbSequence(M=2, powerlaw={2: (c, Fraction(1))})

    def test_json_round_trip_numeric(self):
        p = ProbSequence(M=3, numeric={2: 0.25, 3: 1e-6})
        back = ProbSequence.from_json(p.to_json())
        assert back == p

    def test_json_round_trip_powerlaw(self):
        p = ProbSequence(M=4, powerlaw={2: (1.0, Fraction(3, 4)), 4: (0.5, Fraction(31, 10))})
        back = ProbSequence.from_json(p.to_json())
        assert back == p

    def test_json_malformed(self):
        with pytest.raises(InputError):
            ProbSequence.from_json('{"M": 2}')

    def test_powerlaw_evaluation_clamped(self):
        p = ProbSequence(M=2, powerlaw={2: (5.0, Fraction(0))})
        assert p.prob_at(2, 100) == 1.0

    @pytest.mark.parametrize("M", [2.5, 2.0, True, "2", None])
    def test_M_must_be_an_integer(self, M):
        with pytest.raises(InputError, match="M must be an integer"):
            ProbSequence(M=M, numeric={1: 0.1})

    def test_M_read_as_an_integer(self):
        p = ProbSequence(M=np.int64(3), numeric={2: 0.1})
        assert type(p.M) is int and p == ProbSequence(M=3, numeric={2: 0.1})
        assert json.loads(p.to_json())["M"] == 3

    @pytest.mark.parametrize("r", [2.5, 2.0, True, "2", None])
    @pytest.mark.parametrize("mode", ["numeric", "powerlaw"])
    def test_size_keys_must_be_integers(self, r, mode):
        level = 0.3 if mode == "numeric" else (1.0, Fraction(1))
        with pytest.raises(InputError, match="size must be an integer"):
            ProbSequence(M=3, **{mode: {r: level}})

    @pytest.mark.parametrize(
        "n, message",
        [
            (0, "n must be >= 1, got 0"),
            (-3, "n must be >= 1, got -3"),
            (1.5, "n must be an integer, got 1.5"),
            (True, "n must be an integer, got True"),
        ],
    )
    @pytest.mark.parametrize("mode", ["numeric", "powerlaw"])
    def test_n_must_be_an_integer_at_least_one(self, n, message, mode):
        level = 0.3 if mode == "numeric" else (1.0, Fraction(1, 2))
        p = ProbSequence(M=3, **{mode: {2: level}})
        with pytest.raises(InputError, match=message):
            p.at(n)
        with pytest.raises(InputError, match=message):
            p.prob_at(2, n)

    def test_n_read_as_an_integer(self):
        p = ProbSequence(M=3, powerlaw={2: (1.0, Fraction(1, 2))})
        assert p.at(np.int64(100)) == p.at(100) == ProbSequence(M=3, numeric={2: 0.1})
        assert p.prob_at(2, np.int64(100)) == p.prob_at(2, 100) == 0.1

    def test_size_keys_read_as_integers(self):
        p = ProbSequence(M=3, numeric={np.int64(2): 0.3})
        assert [type(r) for r in p.numeric] == [int]
        assert p == ProbSequence(M=3, numeric={2: 0.3}) and p.prob_at(2, 10) == 0.3
        assert ProbSequence.from_json(p.to_json()) == p
        q = ProbSequence(M=3, powerlaw={np.int32(3): (1.0, Fraction(1))})
        assert [type(r) for r in q.powerlaw] == [int] and q.alpha(3) == 1
        with pytest.raises(InputError, match="size 4 outside 1..M=3"):
            ProbSequence(M=3, numeric={np.int64(4): 0.3})


class TestFromEdgeCounts:
    def test_bench_p2(self, bench):
        assert bench.numeric[2] == 5975 / math.comb(BENCH_N, 2)
        assert bench.numeric[2] == pytest.approx(4.698e-4, rel=1e-3)

    def test_full_count_gives_one(self):
        p = from_edge_counts(4, {2: 6})
        assert p.numeric[2] == 1.0

    def test_zero_count_gives_zero(self):
        p = from_edge_counts(4, {2: 0, 3: 1})
        assert p.prob_at(2, 4) == 0.0

    def test_count_exceeding_total(self):
        with pytest.raises(InputError):
            from_edge_counts(4, {2: 7})

    def test_n_read_as_an_integer(self):
        assert from_edge_counts(np.int64(4), {2: 3}) == from_edge_counts(4, {2: 3})
        with pytest.raises(InputError, match="n must be an integer, got 4.0"):
            from_edge_counts(4.0, {2: 3})

    @pytest.mark.parametrize(
        "counts, message",
        [
            ({2: 3.5}, "count for size 2 must be an integer, got 3.5"),
            ({2: True}, "count for size 2 must be an integer, got True"),
            ({2.5: 3}, "edge size must be an integer, got 2.5"),
            ({True: 3}, "edge size must be an integer, got True"),
        ],
    )
    def test_sizes_and_counts_must_be_integers(self, counts, message):
        with pytest.raises(InputError, match=message):
            from_edge_counts(10, counts)

    def test_negative_n_is_an_input_error(self):
        with pytest.raises(InputError, match="n must be >= 0, got -5"):
            from_edge_counts(-5, {2: 1})

    def test_sizes_and_counts_read_as_integers(self):
        p = from_edge_counts(10, {np.int64(2): np.int32(3)})
        assert p == from_edge_counts(10, {2: 3}) and [type(r) for r in p.numeric] == [int]
        assert type(p.M) is int


class TestCoveringFunctionals:
    @pytest.mark.parametrize("r", [2.5, True, "2"])
    def test_size_must_be_an_integer(self, r):
        p = ProbSequence(M=3, numeric={2: 0.1, 3: 0.01})
        with pytest.raises(InputError, match=f"size must be an integer, got {r!r}"):
            covering_probability(p, 10, r)

    def test_size_read_as_an_integer(self):
        p = ProbSequence(M=3, numeric={2: 0.1, 3: 0.01})
        assert covering_probability(p, 10, np.int64(2)) == covering_probability(p, 10, 2)
        with pytest.raises(InputError, match="size 4 outside 1..M=3"):
            covering_probability(p, 10, np.int64(4))

    def test_bench_covering_r2_matches_reference(self, bench):
        # reference value derived from the published origination ratios
        assert covering_probability(bench, BENCH_N, 2) == pytest.approx(Q2_REF, rel=5e-3)

    def test_bench_covering_r3_matches_reference(self, bench):
        assert covering_probability(bench, BENCH_N, 3) == pytest.approx(Q3_REF, rel=5e-3)

    def test_ordering_invariants_on_bench(self, bench):
        # the union bound: q is at most the expected number of edges
        # covering the set, sum_j C(n - r, j - r) p_j
        for r in range(1, 6):
            ec = sum(math.comb(BENCH_N - r, j - r) * bench.prob_at(j, BENCH_N) for j in range(r, 6))
            q = covering_probability(bench, BENCH_N, r)
            assert q <= min(1.0, ec) + 1e-15

    def test_all_zero_gives_zero(self):
        p = ProbSequence(M=3, numeric={3: 0.0})
        assert covering_probability(p, 30, 1) == 0.0

    def test_certain_level_with_no_superset_is_skipped(self):
        # p_4 = 1, but a 2-set of 3 vertices lies in no 4-set: C(1, 2) = 0
        p = ProbSequence(M=4, numeric={2: 0.3, 4: 1.0})
        assert covering_probability(p, 3, 2) == 0.3

    def test_certain_level_gives_one(self):
        p = ProbSequence(M=3, numeric={2: 1.0})
        assert covering_probability(p, 30, 2) == 1.0
        assert covering_probability(p, 30, 1) == 1.0

    def test_n_read_as_an_integer(self, bench):
        q = covering_probability(bench, BENCH_N, 3)
        assert covering_probability(bench, np.int64(BENCH_N), 3) == q
        with pytest.raises(InputError, match="n must be an integer, got 5044.0"):
            covering_probability(bench, float(BENCH_N), 3)

    def test_out_of_range_r(self, bench):
        with pytest.raises(InputError):
            covering_probability(bench, BENCH_N, 6)


class TestSample:
    def test_certain_pairs_give_complete_graph(self):
        p = ProbSequence(M=2, numeric={2: 1.0})
        for seed in range(5):
            h = sample(4, p, seed=seed)
            assert h.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_all_zero_gives_edgeless(self):
        p = ProbSequence(M=3, numeric={3: 0.0})
        assert sample(10, p, seed=1).edges == ()

    def test_deterministic_per_seed(self):
        p = from_edge_counts(BENCH_N, BENCH_COUNTS)
        a = sample(BENCH_N, p, seed=42)
        b = sample(BENCH_N, p, seed=np.int64(42))  # a numpy seed draws the same sample
        c = sample(BENCH_N, p, seed=43)
        assert a.edges == b.edges
        assert a.edges != c.edges

    def test_level_counts_within_four_sigma(self):
        n = 40
        p = ProbSequence(M=3, numeric={1: 0.05, 2: 0.03, 3: 0.002})
        reps = 200
        sums = Counter()
        for i in range(reps):
            h = sample(n, p, seed=500 + i)
            for r, c in Counter(len(e) for e in h.edges).items():
                sums[r] += c
        for r in (1, 2, 3):
            total = math.comb(n, r)
            pr = p.numeric[r]
            mean = sums[r] / reps
            expect = total * pr
            se_mean = math.sqrt(total * pr * (1 - pr) / reps)
            assert abs(mean - expect) <= 4 * se_mean

    def test_bench_level_means(self):
        p = from_edge_counts(BENCH_N, BENCH_COUNTS)
        reps = 5
        sums = Counter()
        for i in range(reps):
            h = sample(BENCH_N, p, seed=900 + i)
            for r, c in Counter(len(e) for e in h.edges).items():
                sums[r] += c
        for r, m in BENCH_COUNTS.items():
            mean = sums[r] / reps
            assert abs(mean - m) <= 4 * math.sqrt(m / reps)

    def test_poisson_branch_for_astronomical_levels(self):
        n = 20000
        total = math.comb(n, 5)
        assert total >= 2**63  # forces the Poisson path
        p = ProbSequence(M=5, numeric={5: 50 / total})
        h = sample(n, p, seed=11)
        count = len(h.edges)
        assert all(len(e) == 5 for e in h.edges)
        assert 10 <= count <= 110  # Poisson(50) within ~6 sigma

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            sample(5044, ProbSequence(M=2, numeric={2: 0.9}), seed=1)

    @pytest.mark.parametrize(
        "seed, edges, digest",
        [
            (1, 9709, "6c9e069ef106cdf1b7e3b1a17c7d50a1e4c87ac91c7fe362b0fd14bf97c5763a"),
            (2, 9665, "5245d73472d97cb0c8e16adaa1f9595b5ca818838c4186d4ac0fdb24cc70e678"),
        ],
    )
    def test_bench_host_pinned(self, bench, seed, edges, digest):
        # the exact edge sequence at the paper-scale counts; a change in the
        # numpy generator or in the draw order changes it
        h = sample(BENCH_N, bench, seed)
        text = "\n".join(",".join(map(str, e)) for e in h.edges)
        assert (len(h.edges), hashlib.sha256(text.encode()).hexdigest()) == (edges, digest)

    @pytest.mark.parametrize(
        "n, probs, seed, edges, digest",
        [
            # by index; the last two levels unrank complements (r > n/2)
            (300, {2: 120 / math.comb(300, 2)}, 1, 119,
             "a9240206cd9b03045ebc2e4a6d6ec01169d4339fafe6888843240a0786143943"),
            (40, {1: 0.5, 2: 0.1, 3: 0.01}, 7, 187,
             "9e99bb0808a7be10b7e89136a4c79ad57cbc489c9f62b4ac54110f5c96556e84"),
            (12, {7: 0.3, 11: 0.5, 12: 1.0}, 5, 259,
             "f1e95fe94ce27296cc6bb907ef5b1892a592fb95b9447edbb87aa2052056f34c"),
            # by rejection
            (2000, {2: 500 / math.comb(2000, 2), 3: 300 / math.comb(2000, 3)}, 3, 816,
             "255d93ec9730cda5d28cb82a3e62eb2e3ab1578cdf658019259a9e2bb6bdd6aa"),
        ],
    )
    def test_sampling_paths_pinned(self, n, probs, seed, edges, digest):
        h = sample(n, ProbSequence(M=max(probs), numeric=probs), seed)
        text = json.dumps(h.edges)
        assert (len(h.edges), hashlib.sha256(text.encode()).hexdigest()) == (edges, digest)

    def test_n_read_as_an_integer(self):
        p = from_edge_counts(300, {2: 300, 3: 100})
        h = sample(np.int64(300), p, 1)
        assert type(h.n) is int and h == sample(300, p, 1)
        assert json.dumps({"n": h.n}) == '{"n": 300}'
        with pytest.raises(InputError, match="n must be an integer, got 300.0"):
            sample(300.0, p, 1)

    def test_rejects_powerlaw(self):
        p = ProbSequence(M=2, powerlaw={2: (1.0, Fraction(1, 2))})
        with pytest.raises(InputError):
            sample(10, p, seed=0)

    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    def test_seed_must_be_an_integer(self, seed):
        # True is not read as seed 1
        p = from_edge_counts(10, {2: 5})
        with pytest.raises(InputError, match=f"seed must be an integer, got {seed!r}"):
            sample(10, p, seed)

    def test_negative_seed(self):
        p = from_edge_counts(10, {2: 5})
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            sample(10, p, -1)


class TestUnrank:
    def test_matches_the_subset_pool(self):
        # every (n, r) with C(n, r) <= 5000 and n <= 100 (r = 2 already needs
        # n <= 100; past it only r = 1, n - 1, n qualify, sampled by the
        # extras), plus larger levels on both sides of r = n/2
        levels = [(n, r) for n in range(1, 101) for r in range(1, n + 1)
                  if math.comb(n, r) <= 5000]
        levels += [(117, 3), (300, 2), (40, 37), (1000, 1), (1000, 999), (1000, 1000)]
        for n, r in levels:
            pool = list(combinations(range(n), r))
            assert len(pool) <= _ENUMERATION_LIMIT
            got = _unrank(n, r, np.arange(len(pool)))
            assert got == pool, (n, r)
            assert all(type(v) is int for v in got[0]), (n, r)
        assert _unrank(30, 4, np.arange(0)) == []
