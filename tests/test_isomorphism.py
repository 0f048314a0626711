import hashlib
import math
import random
import time
from importlib import import_module
from itertools import combinations

import pytest

from hnp import (
    GuardError,
    Hypergraph,
    InputError,
    automorphism_count,
    canonical_form,
    find_strong_copies,
    find_weak_copies,
    from_edge_counts,
    is_isomorphic,
    sample,
)
from util import (
    brute_aut,
    brute_strong_count,
    brute_weak_count,
    complete_hypergraph,
    random_hypergraph,
)

TRIANGLE = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = Hypergraph(3, [(0, 1), (1, 2)])
EDGE2 = Hypergraph(2, [(0, 1)])
DIAMOND = Hypergraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
LOOSE_TRIANGLE = Hypergraph(6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])


class TestStrongCopies:
    def test_edge_in_triangle(self):
        assert find_strong_copies(EDGE2, TRIANGLE) == 3

    def test_size_profile_mismatch(self):
        # the two-3-edge pattern has no strong copy in a 2-uniform host
        h3 = Hypergraph(4, [(0, 1, 3), (1, 2, 3)])
        h1 = Hypergraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        assert find_strong_copies(h3, h1) == 0

    def test_complete_host_formula(self):
        for pattern in (EDGE2, PATH3, TRIANGLE):
            for n in (5, 6):
                host = complete_hypergraph(n)
                want = (
                    math.comb(n, pattern.n)
                    * math.factorial(pattern.n)
                    // brute_aut(pattern)
                )
                assert find_strong_copies(pattern, host) == want

    def test_modes(self):
        assert find_strong_copies(EDGE2, TRIANGLE, mode="exists") is True
        embs = find_strong_copies(EDGE2, TRIANGLE, mode="list")
        assert len(embs) == 6  # labelled; 3 copies * aut 2
        assert all(e.witnesses is None for e in embs)

    def test_pattern_larger_than_host(self):
        assert find_strong_copies(TRIANGLE, EDGE2) == 0

    def test_guard(self):
        big = Hypergraph(13, [(0, 1)])
        with pytest.raises(GuardError):
            find_strong_copies(big, complete_hypergraph(5))


class TestWeakCopies:
    def test_figure_weak_but_not_strong(self):
        pattern = Hypergraph(4, [(0, 1), (1, 2), (0, 2, 3)])
        host = Hypergraph(7, [(1, 2), (0, 1, 4), (0, 2, 3, 5, 6)])
        assert find_weak_copies(pattern, host, mode="exists") is True
        assert find_strong_copies(pattern, host) == 0

    def test_edge_in_single_triple(self):
        host = Hypergraph(3, [(0, 1, 2)])
        assert find_weak_copies(EDGE2, host) == 3
        assert find_strong_copies(EDGE2, host) == 0

    def test_witnesses_satisfy_weak_condition(self):
        pattern = Hypergraph(4, [(0, 1), (1, 2), (0, 2, 3)])
        host = Hypergraph(7, [(1, 2), (0, 1, 4), (0, 2, 3, 5, 6)])
        for emb in find_weak_copies(pattern, host, mode="list"):
            s = set(emb.mapping)
            for f, wid in zip(pattern.edges, emb.witnesses):
                img = {emb.mapping[v] for v in f}
                assert set(host.edges[wid]) & s == img

    def test_weak_at_least_strong_random(self):
        rng = random.Random(21)
        for _ in range(40):
            host = random_hypergraph(rng, rng.randint(2, 6), rng.randint(1, 6))
            pattern = random_hypergraph(rng, rng.randint(1, 3), rng.randint(1, 3))
            weak = find_weak_copies(pattern, host)
            strong = find_strong_copies(pattern, host)
            assert weak >= strong

    def test_two_uniform_weak_equals_strong(self):
        rng = random.Random(22)
        for _ in range(30):
            host = random_hypergraph(rng, rng.randint(3, 7), rng.randint(1, 8), 2, 2)
            pattern = random_hypergraph(rng, rng.randint(2, 4), rng.randint(1, 4), 2, 2)
            assert find_weak_copies(pattern, host) == find_strong_copies(pattern, host)


class TestBruteForceEquivalence:
    def test_random_instances(self):
        rng = random.Random(23)
        for _ in range(120):
            host = random_hypergraph(rng, rng.randint(2, 6), rng.randint(0, 6))
            pattern = random_hypergraph(rng, rng.randint(1, 4), rng.randint(0, 3))
            assert find_strong_copies(pattern, host) == brute_strong_count(
                pattern, host
            )
            assert find_weak_copies(pattern, host) == brute_weak_count(pattern, host)


class TestAutomorphisms:
    def test_single_5_edge(self):
        assert automorphism_count(Hypergraph(5, [(0, 1, 2, 3, 4)])) == 120

    def test_triangle(self):
        assert automorphism_count(TRIANGLE) == 6

    def test_path(self):
        assert automorphism_count(PATH3) == 2

    @pytest.mark.parametrize(
        "h, want",
        [
            (Hypergraph(12), math.factorial(12)),
            (Hypergraph(12, [tuple(range(12))]), math.factorial(12)),
            (Hypergraph(12, list(combinations(range(12), 2))), math.factorial(12)),
            (Hypergraph(12, [(i, (i + 1) % 12) for i in range(12)]), 24),
        ],
        ids=["12_isolated", "12_vertex_edge", "K12", "C12"],
    )
    def test_twelve_vertices_counted_without_listing(self, h, want):
        # at the 12-vertex guard, where listing 12! maps would take hours
        t0 = time.perf_counter()
        assert automorphism_count(h) == want
        assert time.perf_counter() - t0 < 1.0

    def test_divides_factorial_and_matches_brute(self):
        rng = random.Random(24)
        for _ in range(40):
            h = random_hypergraph(rng, rng.randint(1, 5), rng.randint(0, 5))
            a = automorphism_count(h)
            assert math.factorial(h.n) % a == 0
            assert a == brute_aut(h)


class TestEmptyPattern:
    """A pattern without vertices is a bad input, not a guard overrun."""

    @pytest.mark.parametrize("find", [find_strong_copies, find_weak_copies])
    @pytest.mark.parametrize("mode", ["exists", "count", "list"])
    def test_find(self, find, mode):
        with pytest.raises(InputError, match="at least one vertex"):
            find(Hypergraph(0), TRIANGLE, mode=mode)

    def test_automorphism_count(self):
        with pytest.raises(InputError, match="at least one vertex"):
            automorphism_count(Hypergraph(0))


@pytest.mark.parametrize("find", [find_strong_copies, find_weak_copies])
def test_bad_mode_is_an_input_error(find):
    # as a bad weight_mode is; InputError is still a ValueError
    with pytest.raises(InputError, match="mode must be exists/count/list, got 'all'"):
        find(EDGE2, TRIANGLE, mode="all")


class TestIsomorphic:
    def test_relabels(self):
        a = Hypergraph(4, [(0, 1), (1, 2), (0, 2, 3)])
        b = Hypergraph(4, [(3, 2), (2, 0), (3, 0, 1)])
        assert is_isomorphic(a, b)

    def test_distinguishes(self):
        assert not is_isomorphic(PATH3, TRIANGLE)
        assert not is_isomorphic(
            Hypergraph(3, [(0, 1)]), Hypergraph(3, [(0, 1), (1, 2)])
        )

    def test_profiles_decide_before_canonical_forms(self, monkeypatch):
        # C9 and P9 differ in their edge counts; no canonical form is built
        def refuse(h):
            raise AssertionError("canonical_form called")

        monkeypatch.setattr(import_module("hnp.isomorphism"), "canonical_form", refuse)
        c9 = Hypergraph(9, [(i, (i + 1) % 9) for i in range(9)])
        p9 = Hypergraph(9, [(i, i + 1) for i in range(8)])
        assert not is_isomorphic(c9, p9)

    def test_random_permutation_invariance(self):
        rng = random.Random(26)
        for _ in range(30):
            h = random_hypergraph(rng, rng.randint(1, 6), rng.randint(0, 6))
            perm = list(range(h.n))
            rng.shuffle(perm)
            relabelled = Hypergraph(h.n, [[perm[v] for v in e] for e in h.edges])
            assert is_isomorphic(h, relabelled)


def _cycle(n: int, start: int = 0) -> list:
    return [(start + i, start + (i + 1) % n) for i in range(n)]


def _petersen() -> Hypergraph:
    outer = _cycle(5)
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Hypergraph(10, outer + inner + [(i, i + 5) for i in range(5)])


SYMMETRIC = {
    "C10": Hypergraph(10, _cycle(10)),
    "C12": Hypergraph(12, _cycle(12)),
    "K8": Hypergraph(8, combinations(range(8), 2)),
    "K12": Hypergraph(12, combinations(range(12), 2)),
    "Petersen": _petersen(),
    "Q3": Hypergraph(8, [(a, b) for a, b in combinations(range(8), 2) if bin(a ^ b).count("1") == 1]),
    "K6,6": Hypergraph(12, [(a, b) for a in range(6) for b in range(6, 12)]),
    "Fano": Hypergraph(
        7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    ),
    "edge12": Hypergraph(12, [range(12)]),
}


class TestCanonicalForm:
    """Inputs with large colour classes: cycles, vertex-transitive graphs,
    twins (K_n, K_{a,b}, one big edge) and a projective plane. A walk over
    every labelling of each class would take about a minute for C10 and
    hours for each 12-vertex input."""

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_ignores_labels(self, name):
        h = SYMMETRIC[name]
        perm = list(range(h.n))
        random.Random(27).shuffle(perm)
        relabelled = Hypergraph(h.n, [[perm[v] for v in e] for e in h.edges])
        key = canonical_form(h)
        assert canonical_form(relabelled) == key
        assert key[0] == h.n
        assert sorted(map(len, key[1])) == sorted(map(len, h.edges))

    @pytest.mark.parametrize("n", [8, 12])
    def test_complete_graph_key(self, n):
        # every labelling of K_n gives the same edges
        assert canonical_form(SYMMETRIC[f"K{n}"]) == (n, tuple(combinations(range(n), 2)))

    def test_single_edge_key(self):
        assert canonical_form(SYMMETRIC["edge12"]) == (12, (tuple(range(12)),))

    def test_c10_is_not_two_c5(self):
        # equal degree and edge-size profiles: only the canonical form tells
        # them apart
        c10 = SYMMETRIC["C10"]
        two_c5 = Hypergraph(10, _cycle(5) + _cycle(5, 5))
        assert canonical_form(c10) != canonical_form(two_c5)
        assert not is_isomorphic(c10, two_c5)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(map(str, lines)).encode()).hexdigest()


class TestListOrderPinned:
    # the whole list output (mappings, witnesses and their order), hashed;
    # a change in the candidate order of the search changes it
    HOSTS = {
        1: (1216, "3f33e950cfcc7f6b05019b212b278f3e33e1ec636c2ef66fc304715cc0707cec"),
        2: (1253, "cea4213ce7be404719c19c5a40763b62c517ae3fdf7efde264147be7787e3912"),
    }
    PINNED = {
        1: {
            ("triangle", "strong"): (198, "ad7174d5a8c40c4a18467455f0fe7fe8771a6718f99e22b35be0d33fe6e00cf2"),
            ("triangle", "weak"): (2262, "e150332b27be83ed4e0a719b40137a79d2df07580ccd38bc8f9cdefe315cbb0e"),
            ("diamond", "strong"): (40, "8e53b35a77d5a9929f92f94370ec092e8fbecdbac408ea8223062352c57a69a5"),
            ("diamond", "weak"): (1164, "4ac7bf1edbda3152d268a3b1244acfca79ac8bded1edf176be91cfad9303e410"),
            ("loose_triangle", "strong"): (156, "a0dee7d7f32826725b0f603be880ebebb6830042d7c4ad40bf3ea3838b38ecbc"),
            ("loose_triangle", "weak"): (876, "556568d1ceafe20664333c7c8584992fae99eed96e6ceae4f094fcbeb9e3c8d2"),
        },
        2: {
            ("triangle", "strong"): (216, "c1429f5f8ad001e0e30a0530dfa81dee243bfcc733ea471b351983337485499a"),
            ("triangle", "weak"): (2598, "177c105d3b823fdc1cc8432e588e6d3d29c672ad58da25c168ffef719a658f8d"),
            ("diamond", "strong"): (8, "8182f345dda45f107408639ae664ab27014c61f61a114775acf67cc001b4a13c"),
            ("diamond", "weak"): (1616, "d0bb058efbaa0fcf6d030b336025e73302000d7b381f86fe50a02df25b52a06b"),
            ("loose_triangle", "strong"): (138, "2b5ac880e5044f6e8d495be26013fb18ae68b70097c12c221ed50220be196d66"),
            ("loose_triangle", "weak"): (954, "62fcf3df2cd59c20e272fe55e9bdfe9385dd08fec50e300b0c7bbb990a65b7b4"),
        },
    }

    @pytest.mark.parametrize("seed", [1, 2])
    def test_list_output_pinned(self, seed):
        n = 300
        host = sample(n, from_edge_counts(n, {2: 900, 3: 300, 4: 60}), seed=seed)
        assert (len(host.edges), _digest(host.edges)) == self.HOSTS[seed], (
            "the sampled host changed, not the search"
        )
        got = {}
        for label, pattern in (
            ("triangle", TRIANGLE),
            ("diamond", DIAMOND),
            ("loose_triangle", LOOSE_TRIANGLE),
        ):
            for kind, fn in (("strong", find_strong_copies), ("weak", find_weak_copies)):
                out = fn(pattern, host, mode="list")
                got[label, kind] = (len(out), _digest((e.mapping, e.witnesses) for e in out))
        assert got == self.PINNED[seed]
