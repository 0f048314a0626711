import hashlib
import math
from collections import Counter
from fractions import Fraction

import pytest

from hnp import (
    BudgetError,
    InputError,
    ProbSequence,
    covering_probability,
    covering_weight,
    expected_covering_edges,
    from_edge_counts,
    sample,
)

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


class TestCoveringFunctionals:
    def test_top_level_is_plain_probability(self):
        p = ProbSequence(M=3, numeric={3: 0.125})
        assert covering_weight(p, 50, 3) == 0.125
        assert expected_covering_edges(p, 50, 3) == 0.125

    def test_powerlaw_single_surviving_term(self):
        p = ProbSequence(M=3, powerlaw={3: (1.0, Fraction(5, 2))})
        assert covering_weight(p, 100, 1) == pytest.approx(0.1, rel=1e-12)

    def test_bench_covering_weight_r2(self, bench):
        n = BENCH_N
        want = (
            bench.numeric[2]
            + n * bench.numeric[3]
            + n**2 * bench.numeric[4]
            + n**3 * bench.numeric[5]
        )
        assert covering_weight(bench, n, 2) == pytest.approx(want, rel=1e-12)

    def test_bench_covering_r2_matches_reference(self, bench):
        # reference value derived from the published origination ratios
        assert covering_probability(bench, BENCH_N, 2) == pytest.approx(Q2_REF, rel=5e-3)
        assert expected_covering_edges(bench, BENCH_N, 2) == pytest.approx(1.90e-3, rel=5e-3)

    def test_bench_covering_r3_matches_reference(self, bench):
        assert covering_probability(bench, BENCH_N, 3) == pytest.approx(Q3_REF, rel=5e-3)
        assert expected_covering_edges(bench, BENCH_N, 3) == pytest.approx(5.56e-7, rel=5e-3)

    def test_probability_tracks_expected_count_when_small(self, bench):
        # asymptotic agreement: within 0.2% at these densities
        for r in (2, 3, 4, 5):
            q = covering_probability(bench, BENCH_N, r)
            ec = expected_covering_edges(bench, BENCH_N, r)
            assert q == pytest.approx(ec, rel=2e-3)

    def test_ordering_invariants_on_bench(self, bench):
        for r in range(1, 6):
            cw = covering_weight(bench, BENCH_N, r)
            ec = expected_covering_edges(bench, BENCH_N, r)
            q = covering_probability(bench, BENCH_N, r)
            assert ec <= cw <= math.factorial(5 - r) * ec + 1e-15
            assert q <= min(1.0, ec) + 1e-15

    def test_all_zero_gives_zero(self):
        p = ProbSequence(M=3, numeric={3: 0.0})
        assert covering_probability(p, 30, 1) == 0.0

    def test_certain_level_gives_one(self):
        p = ProbSequence(M=3, numeric={2: 1.0})
        assert covering_probability(p, 30, 2) == 1.0
        assert covering_probability(p, 30, 1) == 1.0

    def test_out_of_range_r(self, bench):
        with pytest.raises(InputError):
            covering_weight(bench, BENCH_N, 6)


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
        b = sample(BENCH_N, p, seed=42)
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

    def test_rejects_powerlaw(self):
        p = ProbSequence(M=2, powerlaw={2: (1.0, Fraction(1, 2))})
        with pytest.raises(InputError):
            sample(10, p, seed=0)
