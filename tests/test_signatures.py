import hashlib
import math
import re
from collections import Counter, defaultdict
from itertools import combinations, permutations

import numpy as np
import pytest

import hnp.signatures as sigmod
from hnp import (
    InputError,
    OriginationTable,
    ProbSequence,
    from_edge_counts,
    labelled_total,
    labelled_weight,
    origination_distribution,
    rank_signatures,
    signature_weights,
)
from hnp.cli import main
from hnp.signatures import lattice_size


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
        assert set(signature_weights(2)) == {(1,)}
        assert lattice_size(2) == 2

    def test_k3(self):
        # coverage of the 3 pairs needs all three 2-edges or the 3-edge
        assert lattice_size(3) == 8
        weights = signature_weights(3)
        assert weights == {(0, 1): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1, (3, 0): 1}

    def test_k4_counts(self):
        assert lattice_size(4) == 70
        assert len(signature_weights(4)) == 60

    def test_k4_matches_brute_force(self):
        labelled, classes = _brute_k4()
        assert signature_weights(4) == dict(labelled)
        aut = signature_weights(4, weight_mode="aut")
        assert aut == {sig: 24 * c for sig, c in classes.items()}

    def test_k5_count(self):
        assert len(signature_weights(5)) == 1422

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
            signature_weights(6)
        with pytest.raises(InputError):
            signature_weights(1)

    def test_k_read_as_an_integer(self):
        assert signature_weights(np.int64(4)) is signature_weights(4)
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        assert type(origination_distribution(np.int64(4), p, 100).k) is int
        for k in (4.0, 2.5, True):
            with pytest.raises(InputError, match=f"k must be an integer, got {k!r}"):
                signature_weights(k)
            with pytest.raises(InputError, match=f"k must be an integer, got {k!r}"):
                origination_distribution(k, p, 100)

    def test_n_read_as_an_integer(self):
        p = from_edge_counts(100, {2: 10, 3: 5, 4: 3, 5: 2})
        table = origination_distribution(4, p, np.int64(100))
        assert type(table.n) is int
        assert table == origination_distribution(4, p, 100)
        with pytest.raises(InputError, match="n must be an integer, got 100.0"):
            origination_distribution(4, p, 100.0)


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

    def test_total_rejects_negative_entries_and_is_0_above_the_lattice(self):
        for sig in ((-1, 0, 0), (0, 0, -2), (1, 0, -1, 0)):
            with pytest.raises(InputError, match=rf"signature {re.escape(str(sig))} has a negative entry"):
                labelled_total(sig)
        assert labelled_total((7, 0, 0)) == labelled_total((0, 5, 0)) == labelled_total((0, 0, 2)) == 0

    def test_weights_refuse_writes(self):
        p = from_edge_counts(50, {2: 100, 3: 20})
        before = origination_distribution(3, p, 50)
        for mode in ("labelled", "aut"):
            w = signature_weights(3, mode)
            with pytest.raises(TypeError):
                w[(3, 1)] = 10**6
            with pytest.raises(TypeError):
                del w[(3, 0)]
            assert signature_weights(3, mode) is w and w[(3, 0)] > 0
        assert origination_distribution(3, p, 50) == before


class TestSignatureEntries:
    @pytest.mark.parametrize("entry", [1.5, 1.0, True, "1", None])
    def test_entries_must_be_integers(self, entry):
        for ask in (labelled_weight, labelled_total):
            with pytest.raises(InputError, match="signature entry must be an integer"):
                ask((entry, 2, 0))

    def test_entries_read_as_integers(self):
        sig = tuple(map(np.int64, (6, 0, 0)))
        assert labelled_weight(sig) == labelled_weight((6, 0, 0)) == 1
        assert labelled_total(sig) == labelled_total((6, 0, 0)) == 1

    def test_bad_weight_mode(self):
        with pytest.raises(InputError, match="weight_mode must be labelled or aut, got 'bogus'"):
            signature_weights(4, "bogus")


class TestWeightTablesPinned:
    @pytest.mark.parametrize(
        "mode, k, rows, digest",
        [
            ("labelled", 2, 1, "748268a0190b1d5f3d1a886b7a91505e625750072b44c814c089bbb2c4ee2cd8"),
            ("labelled", 3, 5, "8b9518b294c3e7d6e0074ce83853f26ffa06706a1ff52ec59c7eefc6c347894f"),
            ("labelled", 4, 60, "a837fade63e7c44370dc367c12bd980f65383b8f43ff7cc05cd522083b87117c"),
            ("labelled", 5, 1422, "50eb026c7d57ac7afbe441637ee8a9ea0de311c80f64d6c9b230cf5b2bed7659"),
            ("aut", 2, 1, "005a54e47e72af5e2aae4d65929ce2afb68ab32a088e7316e95f07035f980e95"),
            ("aut", 3, 5, "790c7d6a855b9afb58816c8a1c126ed160bedf5f8a84c6f5016794fe5f5bac1b"),
            ("aut", 4, 60, "bf75f52aed0a5c5723ec731d882405df1c7ee268884a811cad52fa22cce67460"),
            ("aut", 5, 1422, "850829c3af923e34bb262782293826b076789ece648c679b3ef071e66316ce7d"),
        ],
    )
    def test_table_digest(self, mode, k, rows, digest, monkeypatch):
        monkeypatch.setattr(sigmod, "_memo", {})  # computed here, not reused
        table = sorted(signature_weights(k, mode).items())
        assert (len(table), hashlib.sha256(repr(table).encode()).hexdigest()) == (rows, digest)


class TestNothingWritten:
    def test_weights_and_origination_write_no_file(self, tmp_path, monkeypatch):
        home = tmp_path / "home"
        home.mkdir()
        for var in ("HOME", "XDG_CACHE_HOME", "HNP_CACHE_DIR"):
            monkeypatch.setenv(var, str(home))
        monkeypatch.setattr(sigmod, "_memo", {})
        p = from_edge_counts(400, {2: 474, 3: 169, 4: 82, 5: 44})
        signature_weights(5, "aut")
        origination_distribution(4, p, 400)
        out = tmp_path / "out"
        assert main(["origination", "--k", "5", "--n", "400",
                     "--counts", "2=474,3=169,4=82,5=44", "--out", str(out)]) == 0
        assert (out / "origination.json").exists()
        assert list(home.iterdir()) == []


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

    def test_certain_level_kills_signatures_missing_it(self):
        # p_2 = 1 covers every pair (q_2 = 1), so only signatures with all
        # three pairs keep mass, split by q_3 = p_3 = 0.1
        p = ProbSequence(M=3, numeric={2: 1.0, 3: 0.1})
        table = origination_distribution(3, p, 10)
        mass = {sig: prob for sig, (_, prob) in table.entries.items() if prob}
        assert mass == {(3, 0): pytest.approx(0.9), (3, 1): pytest.approx(0.1)}

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
