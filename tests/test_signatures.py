import json
import math
from collections import Counter, defaultdict
from itertools import combinations, permutations

import pytest

from hnp import (
    InputError,
    OriginationTable,
    ProbSequence,
    enumerate_feasible,
    from_edge_counts,
    labelled_total,
    labelled_weight,
    origination_distribution,
    rank_signatures,
    signature_weights,
)
from hnp.signatures import _rows_digest, lattice_size


def _brute_k4():
    """All labelled hypergraphs on [4] with edge sizes 2..4 whose 2-section
    is K_4, tallied by signature: labelled counts and isomorphism classes."""
    subsets = []
    for r in (2, 3, 4):
        subsets.extend(combinations(range(4), r))
    all_pairs = set(combinations(range(4), 2))
    labelled = Counter()
    canon_per_sig = defaultdict(set)
    for mask in range(1 << len(subsets)):
        chosen = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        covered = set()
        for e in chosen:
            covered.update(combinations(e, 2))
        if covered != all_pairs:
            continue
        counts = Counter(len(e) for e in chosen)
        sig = (counts.get(2, 0), counts.get(3, 0), counts.get(4, 0))
        labelled[sig] += 1
        canon = min(
            tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in chosen))
            for perm in permutations(range(4))
        )
        canon_per_sig[sig].add(canon)
    return labelled, {sig: len(canons) for sig, canons in canon_per_sig.items()}


class TestFeasibleEnumeration:
    def test_k2(self):
        assert enumerate_feasible(2) == {(1,)}
        assert lattice_size(2) == 2

    def test_k3(self):
        # coverage of the 3 pairs needs all three 2-edges or the 3-edge
        assert lattice_size(3) == 8
        weights = signature_weights(3)
        assert weights == {(0, 1): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1, (3, 0): 1}

    def test_k4_counts(self):
        assert lattice_size(4) == 70
        assert len(enumerate_feasible(4)) == 60

    def test_k4_matches_brute_force(self):
        labelled, classes = _brute_k4()
        assert signature_weights(4) == dict(labelled)
        aut = signature_weights(4, weight_mode="aut")
        assert aut == {sig: 24 * c for sig, c in classes.items()}

    def test_k5_count(self):
        assert len(enumerate_feasible(5)) == 1422

    def test_k5_aut_bounded_by_labelled(self):
        # each class contributes 5! to its aut weight and between 1 and 5!
        # labelled hypergraphs to its labelled weight
        labelled = signature_weights(5)
        aut = signature_weights(5, weight_mode="aut")
        assert set(aut) == set(labelled)
        for sig, a in aut.items():
            assert a % 120 == 0
            assert -(-labelled[sig] // 120) <= a // 120 <= labelled[sig]
        assert aut[(0, 0, 0, 1)] == 120
        assert aut[(10, 0, 0, 0)] == 120

    def test_k_out_of_range(self):
        with pytest.raises(InputError):
            enumerate_feasible(6)
        with pytest.raises(InputError):
            enumerate_feasible(1)


class TestWeights:
    def test_one_2edge_two_3edges(self):
        assert labelled_weight((1, 2, 0)) == 6
        assert labelled_total((1, 2, 0)) == 36

    def test_single_top_edge(self):
        assert labelled_weight((0, 0, 1)) == 1

    def test_k5_pair_plus_top(self):
        assert labelled_weight((1, 0, 0, 1)) == 10

    def test_total_labelled_k4(self):
        labelled, _ = _brute_k4()
        assert sum(signature_weights(4).values()) == sum(labelled.values())

    def test_out_of_lattice(self):
        with pytest.raises(InputError):
            labelled_weight((7, 0, 0))


class TestCache:
    def test_disk_round_trip(self, tmp_path):
        import hnp.signatures as sigmod

        d = str(tmp_path / "cache")
        sigmod._memo.pop((3, "labelled"), None)
        w1 = signature_weights(3, cache_dir=d)
        assert (tmp_path / "cache" / "signatures_k3_labelled.json").exists()
        sigmod._memo.pop((3, "labelled"), None)
        w2 = signature_weights(3, cache_dir=d)  # served from disk this time
        assert w1 == w2

    def test_corrupt_cache_recomputed(self, tmp_path):
        import hnp.signatures as sigmod

        d = tmp_path / "cache2"
        d.mkdir()
        (d / "signatures_k3_labelled.json").write_text("not json", encoding="utf-8")
        sigmod._memo.pop((3, "labelled"), None)
        w = signature_weights(3, cache_dir=str(d))
        assert w[(3, 0)] == 1

    @staticmethod
    def _reload(d):
        import hnp.signatures as sigmod

        sigmod._memo.pop((3, "labelled"), None)
        return signature_weights(3, cache_dir=str(d))

    def _assert_recomputed_and_rewritten(self, d, want):
        path = d / "signatures_k3_labelled.json"
        assert self._reload(d) == want
        stored = json.loads(path.read_text(encoding="utf-8"))
        assert stored["rows"] == len(want) == len(stored["weights"])
        assert self._reload(d) == want  # the rewritten file is accepted
        assert not [p for p in d.iterdir() if p.name != path.name]  # no temp file left

    def test_one_row_file_recomputed(self, tmp_path):
        want = self._reload(tmp_path / "fresh")
        d = tmp_path / "one_row"
        d.mkdir()
        (d / "signatures_k3_labelled.json").write_text(
            '[{"signature":[1,0,0],"weight":999}]', encoding="utf-8"
        )
        self._assert_recomputed_and_rewritten(d, want)

    def test_truncated_file_recomputed(self, tmp_path):
        want = self._reload(tmp_path)
        path = tmp_path / "signatures_k3_labelled.json"
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        self._assert_recomputed_and_rewritten(tmp_path, want)

    def test_wrong_digest_recomputed(self, tmp_path):
        want = self._reload(tmp_path)
        path = tmp_path / "signatures_k3_labelled.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["weights"][0]["weight"] += 1
        path.write_text(json.dumps(data), encoding="utf-8")
        self._assert_recomputed_and_rewritten(tmp_path, want)

    def test_partial_table_with_its_own_digest_recomputed(self, tmp_path):
        want = self._reload(tmp_path)
        path = tmp_path / "signatures_k3_labelled.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        rows = data["weights"][:1]
        rows[0]["signature"] = [1, 0, 0]  # not a point of the k=3 lattice
        data.update(weights=rows, rows=1, sha256=_rows_digest(rows))
        path.write_text(json.dumps(data), encoding="utf-8")
        self._assert_recomputed_and_rewritten(tmp_path, want)


class TestOrigination:
    def test_probabilities_sum_to_one(self):
        p = from_edge_counts(400, {2: 474, 3: 169, 4: 82, 5: 44})
        table = origination_distribution(4, p, 400)
        assert sum(prob for _, prob in table.entries.values()) == pytest.approx(
            1.0, abs=1e-12
        )
        assert all(w > 0 for w, _ in table.entries.values())

    def test_k2_degenerate(self):
        p = ProbSequence(M=2, numeric={2: 0.01})
        table = origination_distribution(2, p, 50)
        assert table.probability((1,)) == 1.0
        assert rank_signatures(table) == [((1,), 1)]

    def test_all_zero_rejected(self):
        p = ProbSequence(M=4, numeric={4: 0.0})
        with pytest.raises(InputError):
            origination_distribution(4, p, 100)

    def test_requires_m_at_least_k(self):
        p = ProbSequence(M=3, numeric={3: 0.01})
        with pytest.raises(InputError):
            origination_distribution(4, p, 100)

    def test_requires_numeric(self):
        from fractions import Fraction

        p = ProbSequence(M=4, powerlaw={4: (1.0, Fraction(2))})
        with pytest.raises(InputError):
            origination_distribution(4, p, 100)

    def test_zero_probability_levels_kill_signatures(self):
        # only 2-edges exist: a 4-set can never extend to a 3- or 4-edge,
        # so the all-pairs signature is the only one with mass
        p = ProbSequence(M=4, numeric={2: 1e-3})
        table = origination_distribution(4, p, 60)
        assert table.probability((6, 0, 0)) == 1.0
        assert table.probability((0, 0, 1)) == 0.0
        assert table.probability((1, 2, 0)) == 0.0


class TestMassIdentity:
    def test_total_mass_matches_clique_frequency(self):
        # the unnormalized origination mass summed over feasible signatures
        # is the probability that a random 4-set's weak induced structure
        # 2-sections to K_4; checked against sampled hypergraphs
        import statistics

        from hnp import list_k_cliques, sample
        from hnp.model import covering_probability

        n, k = 200, 4
        p = from_edge_counts(n, {2: 120, 3: 40, 4: 15, 5: 6})
        q = {r: covering_probability(p, n, r) for r in range(2, k + 1)}
        dims = [math.comb(k, r) for r in range(2, k + 1)]
        total = 0.0
        for sig, w in signature_weights(4).items():
            m = float(w)
            for ri, e in enumerate(sig):
                m *= q[ri + 2] ** e * (1 - q[ri + 2]) ** (dims[ri] - e)
            total += m
        expected_cliques = math.comb(n, 4) * total

        values = []
        for i in range(30):
            h = sample(n, p, seed=4000 + i)
            values.append(sum(1 for _ in list_k_cliques(h, 4)))
        mean = statistics.fmean(values)
        sem = statistics.stdev(values) / math.sqrt(len(values))
        assert abs(mean - expected_cliques) <= 3 * sem


class TestRanking:
    def test_ties_break_lexicographically(self):
        table = OriginationTable(
            k=3, n=10, weight_mode="labelled",
            entries={(3, 0): (1, 0.5), (0, 1): (1, 0.5)},
        )
        assert rank_signatures(table) == [((0, 1), 1), ((3, 0), 2)]

    def test_descending_probability(self):
        p = from_edge_counts(400, {2: 474, 3: 169, 4: 82, 5: 44})
        table = origination_distribution(4, p, 400)
        ranked = rank_signatures(table)
        probs = [table.probability(sig) for sig, _ in ranked]
        assert probs == sorted(probs, reverse=True)
        assert [r for _, r in ranked] == list(range(1, len(ranked) + 1))
