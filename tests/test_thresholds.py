import hashlib
import json
import random
import time
from fractions import Fraction as F
from importlib import import_module
from itertools import combinations

import numpy as np
import pytest

from hnp import (
    Graph,
    GuardError,
    Hypergraph,
    InputError,
    ProbSequence,
    classify_induced_weak,
    classify_strong,
    classify_two_section,
    classify_weak,
    covering_weight_exponent,
    is_isomorphic,
    is_subedge_system,
    minimal_two_section_covers,
    pad_amount,
    padded_pattern,
    strong_exponent,
    weak_exponent,
)
from util import brute_family_minimum, brute_is_subedge, graph_classes, random_hypergraph

# the three hypergraphs sharing a 2-section: 4-cycle + chord, two 2-edges +
# one 3-edge, and two 3-edges
H1 = Hypergraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
H2 = Hypergraph(4, [(1, 2), (2, 3), (0, 1, 3)])
H3 = Hypergraph(4, [(0, 1, 3), (1, 2, 3)])
P_34_52 = ProbSequence(M=3, powerlaw={2: (1.0, F(3, 4)), 3: (1.0, F(5, 2))})

# mixed-size pattern: one 1-edge, two 2-edges, one 3-edge
HG = Hypergraph(4, [(2,), (0, 1), (1, 2), (0, 2, 3)])
PEX = ProbSequence(
    M=4,
    powerlaw={
        1: (1.0, F(3, 5)),
        2: (1.0, F(9, 10)),
        3: (1.0, F(17, 10)),
        4: (1.0, F(31, 10)),
    },
)

TRIANGLE = Graph(3, [(0, 1), (1, 2), (0, 2)])


def _random_powerlaw(rng, M=4):
    levels = {}
    for r in range(1, M + 1):
        if rng.random() < 0.85:
            levels[r] = (1.0, F(rng.randint(0, 45), 10))
    if not levels:
        levels[M] = (1.0, F(rng.randint(0, 45), 10))
    return ProbSequence(M=M, powerlaw=levels)


class TestExponents:
    def test_density_figure(self):
        p = ProbSequence(M=2, powerlaw={2: (1.0, F(9, 11))})
        g = Hypergraph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (2, 4)])
        gp = Hypergraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        assert strong_exponent(g, p) == F(1, 11)
        assert strong_exponent(gp, p) == F(-1, 11)

    def test_single_vertex(self):
        assert strong_exponent(Hypergraph(1), P_34_52) == F(1)

    def test_zero_level_is_neg_inf(self):
        p = ProbSequence(M=3, powerlaw={2: (1.0, F(1))})
        assert strong_exponent(Hypergraph(3, [(0, 1, 2)]), p) is None

    def test_exponents_are_exact_fractions(self):
        assert isinstance(strong_exponent(H1, P_34_52), F)
        assert isinstance(weak_exponent(H1, P_34_52), F)

    def test_covering_weight_exponent_single_level(self):
        p = ProbSequence(M=3, powerlaw={3: (1.0, F(5, 2))})
        assert covering_weight_exponent(p, 3) == F(-5, 2)
        assert covering_weight_exponent(p, 1) == F(2) - F(5, 2)

    def test_covering_weight_exponent_mixed(self):
        assert covering_weight_exponent(PEX, 1) == F(3, 10)
        assert covering_weight_exponent(PEX, 2) == F(-7, 10)
        assert covering_weight_exponent(PEX, 3) == F(-17, 10)

    def test_covering_weight_exponent_needs_a_positive_size(self):
        with pytest.raises(InputError, match="edge size 0 must be >= 1"):
            covering_weight_exponent(PEX, 0)

    def test_weak_equals_strong_for_single_level(self):
        p = ProbSequence(M=2, powerlaw={2: (1.0, F(9, 11))})
        h = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        assert weak_exponent(h, p) == strong_exponent(h, p)


class TestClassifyStrong:
    def test_figure_verdicts(self):
        assert classify_strong(H1, P_34_52).outcome == "aas_present"
        assert classify_strong(H3, P_34_52).outcome == "aas_absent"
        assert classify_strong(H2, P_34_52).outcome == "inconclusive"

    def test_h2_exponent_is_zero(self):
        v = classify_strong(H2, P_34_52)
        assert v.exponent == F(0)
        assert is_isomorphic(v.witness, H2)

    def test_witness_for_absence(self):
        v = classify_strong(H3, P_34_52)
        assert v.exponent == F(-1)
        assert is_isomorphic(v.witness, H3)

    def test_induced_flag(self):
        assert classify_strong(H1, P_34_52, induced=True).outcome == "aas_present"
        flat = ProbSequence(M=2, powerlaw={2: (1.0, F(0))})
        with pytest.raises(InputError):
            classify_strong(H1, flat, induced=True)

    def test_guard(self):
        with pytest.raises(GuardError):
            classify_strong(Hypergraph(11, [(0, 1)]), P_34_52)


class TestClassifyWeak:
    def test_mixed_pattern_weak_but_not_strong(self):
        assert classify_strong(HG, PEX).outcome == "aas_absent"
        assert classify_weak(HG, PEX).outcome == "aas_present"

    def test_two_uniform_matches_strong(self):
        p = ProbSequence(M=2, powerlaw={2: (1.0, F(3, 4))})
        for h in (H1, TRIANGLE):
            assert classify_weak(h, p).outcome == classify_strong(h, p).outcome

    def test_strong_present_implies_weak_present(self):
        rng = random.Random(31)
        hits = 0
        for _ in range(60):
            h = random_hypergraph(rng, rng.randint(1, 5), rng.randint(0, 5))
            p = _random_powerlaw(rng)
            if classify_strong(h, p).outcome == "aas_present":
                hits += 1
                assert classify_weak(h, p).outcome == "aas_present"
        assert hits > 3  # the property was actually exercised


class TestPadding:
    def test_pad_amounts_for_example_sequence(self):
        # argmax of i - alpha_{r+i}: for r=1 the winner is i=2
        # (2 - 1.7 = 0.3), for r=2 it is i=1 (1 - 1.7 = -0.7), for r=3 i=0
        assert pad_amount(PEX, 1) == 2
        assert pad_amount(PEX, 2) == 1
        assert pad_amount(PEX, 3) == 0
        assert pad_amount(PEX, 4) == 0

    def test_single_level_pads_nothing(self):
        p = ProbSequence(M=2, powerlaw={2: (1.0, F(1))})
        h = Hypergraph(3, [(0, 1), (1, 2)])
        assert padded_pattern(h, p) == h

    def test_only_top_level_pads_to_top(self):
        p = ProbSequence(M=3, powerlaw={3: (1.0, F(2))})
        h = Hypergraph(1, [(0,)])
        j = padded_pattern(h, p)
        assert j.edges == ((0, 1, 2),)

    def test_padded_strong_presence_certifies_weak(self):
        j = padded_pattern(HG, PEX)
        assert classify_strong(j, PEX).outcome == "aas_present"
        assert classify_weak(HG, PEX).outcome == "aas_present"

    def test_consistency_random(self):
        rng = random.Random(32)
        exercised = 0
        for _ in range(60):
            h = random_hypergraph(rng, rng.randint(1, 4), rng.randint(1, 4))
            p = _random_powerlaw(rng)
            try:
                j = padded_pattern(h, p)
            except InputError:
                continue
            if j.n > 10:  # classify guard
                continue
            if classify_strong(j, p).outcome == "aas_present":
                exercised += 1
                assert classify_weak(h, p).outcome == "aas_present"
        assert exercised > 3

    def test_missing_tail_rejected(self):
        p = ProbSequence(M=3, powerlaw={1: (1.0, F(1))})
        with pytest.raises(InputError):
            pad_amount(p, 2)

    @pytest.mark.parametrize("r", [2.5, True, "2"])
    def test_size_must_be_an_integer(self, r):
        for fn in (pad_amount, covering_weight_exponent):
            with pytest.raises(InputError, match=f"edge size must be an integer, got {r!r}"):
                fn(PEX, r)

    def test_size_read_as_an_integer(self):
        assert pad_amount(PEX, np.int64(1)) == 2
        assert covering_weight_exponent(PEX, np.int64(1)) == covering_weight_exponent(PEX, 1)


class TestClassifyInducedWeak:
    def test_blocked_by_missing_singletons(self):
        v = classify_induced_weak(HG, PEX)
        assert v.outcome == "aas_absent"
        assert v.exponent == F(3, 10)

    def test_present_after_adding_singletons(self):
        full = Hypergraph(4, [(0,), (1,), (2,), (3,), (0, 1), (1, 2), (0, 2, 3)])
        assert classify_induced_weak(full, PEX).outcome == "aas_present"

    def test_complete_pattern_equals_weak(self):
        from util import complete_hypergraph

        k3 = complete_hypergraph(3)
        p = ProbSequence(
            M=3, powerlaw={1: (1.0, F(1, 2)), 2: (1.0, F(1)), 3: (1.0, F(2))}
        )
        assert (
            classify_induced_weak(k3, p).outcome == classify_weak(k3, p).outcome
        )

    def test_no_vertex_guard_of_its_own(self):
        # the size-1 non-edge settles it: its covering weight grows like n^(1/4)
        path = Hypergraph(11, [(i, i + 1) for i in range(10)])
        v = classify_induced_weak(path, P_34_52)
        assert (v.outcome, v.exponent) == ("aas_absent", F(1, 4))

    def test_guard_of_the_weak_verdict_still_holds(self):
        # no non-edge is covered, so the weak verdict decides, with its guard
        path = Hypergraph(11, [(i, i + 1) for i in range(10)])
        p = ProbSequence(M=2, powerlaw={2: (1.0, F(3, 2))})
        with pytest.raises(GuardError, match="11 vertices, guard is 10"):
            classify_induced_weak(path, p)

    def test_scan_follows_edge_sizes_not_vertex_count(self):
        # only sizes up to M and sizes that have edges are scanned, so a
        # 10^5-vertex path is answered at once, as is its guard error
        n = 10**5
        path = Hypergraph(n, [(i, i + 1) for i in range(n - 1)])
        start = time.perf_counter()
        v = classify_induced_weak(path, P_34_52)
        assert (v.outcome, v.exponent) == ("aas_absent", F(1, 4))
        with pytest.raises(GuardError, match=f"{n} vertices, guard is 10"):
            classify_induced_weak(path, ProbSequence(M=2, powerlaw={2: (1.0, F(3, 2))}))
        assert time.perf_counter() - start < 2.0

    def test_rejects_numeric(self):
        for h in (HG, Hypergraph(2, [(0,), (1,), (0, 1)])):
            with pytest.raises(InputError, match="requires a power-law sequence"):
                classify_induced_weak(h, ProbSequence(M=2, numeric={2: 0.5}))

    def test_borderline_covering_weight_is_inconclusive(self):
        # the missing pair {0, 2} has covering weight n^0 and p_2 does not
        # vanish, so neither absence nor the weak verdict follows
        path = Hypergraph(3, [(0,), (1,), (2,), (0, 1), (1, 2)])
        v = classify_induced_weak(path, ProbSequence(M=2, powerlaw={2: (0.5, F(0))}))
        assert (v.outcome, v.exponent, v.witness) == ("inconclusive", 0, None)
        assert "borderline" in v.reason


class TestSubedgeSystems:
    def test_single_edge_in_superset_edge(self):
        # each 2-edge of a triangle is a subedge system of a single 3-edge
        assert is_subedge_system(Hypergraph(2, [(0, 1)]), Hypergraph(3, [(0, 1, 2)]))

    def test_triple_not_inside_graph(self):
        assert not is_subedge_system(
            Hypergraph(3, [(0, 1, 2)]), Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        )

    def test_identity(self):
        assert is_subedge_system(TRIANGLE, TRIANGLE)

    def test_edge_matching_is_injective(self):
        # three 2-edges cannot all shrink out of one 3-edge
        assert not is_subedge_system(TRIANGLE, Hypergraph(3, [(0, 1, 2)]))

    def test_edge_sizes_decide_before_the_search(self, monkeypatch):
        # each h1-edge needs its own h2-edge at least as large, so the k-th
        # largest h1-edge must fit in the k-th largest h2-edge; where one
        # does not, no embedding is searched for
        def refuse(*args, **kwargs):
            raise AssertionError("_embeddings called")

        monkeypatch.setattr(import_module("hnp.thresholds"), "_embeddings", refuse)
        misfits = [
            # two 3-edges against one 3-edge and three 2-edges
            (Hypergraph(4, [(0, 1, 2), (1, 2, 3)]), Hypergraph(5, [(0, 1, 2), (0, 3), (3, 4), (1, 4)])),
            # a 4-edge against three 3-edges
            (Hypergraph(4, [(0, 1, 2, 3)]), Hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 2, 3)])),
            # more h1-edges than h2-edges
            (TRIANGLE, Hypergraph(3, [(0, 1, 2)])),
        ]
        for h1, h2 in misfits:
            assert not brute_is_subedge(h1, h2)
            assert not is_subedge_system(h1, h2)
        # sizes that fit go on to the search
        with pytest.raises(AssertionError, match="_embeddings called"):
            is_subedge_system(Hypergraph(3, [(0, 1), (0, 1, 2)]), Hypergraph(4, [(0, 1, 2), (1, 2, 3)]))

    def test_vertex_guard(self):
        # the search engine itself accepts 12 vertices; subedge systems stop at 10
        big = Hypergraph(11, [(0, 1)])
        with pytest.raises(GuardError):
            is_subedge_system(Hypergraph(2, [(0, 1)]), big)
        with pytest.raises(GuardError):
            is_subedge_system(big, big)

    def test_matches_brute_force(self):
        rng = random.Random(33)
        agree_true = 0
        for _ in range(80):
            h2 = random_hypergraph(rng, rng.randint(2, 5), rng.randint(1, 4))
            h1 = random_hypergraph(rng, rng.randint(1, 4), rng.randint(1, 3))
            got = is_subedge_system(h1, h2)
            assert got == brute_is_subedge(h1, h2)
            agree_true += got
        assert agree_true > 5

    def test_monotonicity_of_weak_exponents(self):
        # spanning subedge system: same vertex set, edges shrunk/dropped
        rng = random.Random(34)
        exercised = 0
        for _ in range(80):
            n = rng.randint(2, 5)
            h2 = random_hypergraph(rng, n, rng.randint(1, 5))
            if not h2.edges:
                continue
            shrunk = []
            for e in h2.edges:
                if rng.random() < 0.3:
                    continue  # drop the edge entirely
                size = rng.randint(1, len(e))
                shrunk.append(tuple(sorted(rng.sample(e, size))))
            h1 = Hypergraph(n, shrunk)
            p = _random_powerlaw(rng)
            if classify_weak(h2, p).outcome == "aas_present":
                exercised += 1
                assert classify_weak(h1, p).outcome == "aas_present"
        assert exercised > 3


class TestMinimalCovers:
    def _classes(self, g):
        return minimal_two_section_covers(g)

    def test_triangle_two_classes(self):
        covers = self._classes(TRIANGLE)
        assert len(covers) == 2
        want_a = Hypergraph(3, [(0, 1, 2)])
        want_b = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        assert any(is_isomorphic(c, want_a) for c in covers)
        assert any(is_isomorphic(c, want_b) for c in covers)

    def test_single_edge(self):
        covers = self._classes(Graph(2, [(0, 1)]))
        assert len(covers) == 1
        assert covers[0] == Hypergraph(2, [(0, 1)])

    def test_path_two_classes(self):
        covers = self._classes(Graph(3, [(0, 1), (1, 2)]))
        assert len(covers) == 2
        assert any(is_isomorphic(c, Hypergraph(3, [(0, 1, 2)])) for c in covers)
        assert any(
            is_isomorphic(c, Hypergraph(3, [(0, 1), (1, 2)])) for c in covers
        )

    def test_matches_exhaustive_oracle_on_triangle(self):
        # oracle: every hypergraph on the 4 candidate subsets whose
        # 2-section covers K_3, reduced by brute subedge-minimality
        from itertools import combinations

        cands = [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
        members = []
        for mask in range(1, 16):
            edges = [cands[i] for i in range(4) if mask >> i & 1]
            cover = set()
            for e in edges:
                cover.update(combinations(e, 2))
            if len(cover) == 3:
                members.append(Hypergraph(3, edges))
        minimal = [
            h
            for h in members
            if not any(
                brute_is_subedge(other, h) and not brute_is_subedge(h, other)
                for other in members
            )
        ]
        classes = []
        for h in minimal:
            if not any(is_isomorphic(h, c) for c in classes):
                classes.append(h)
        got = self._classes(TRIANGLE)
        assert len(got) == len(classes) == 2

    def test_rejects_isolated_vertices(self):
        with pytest.raises(InputError):
            minimal_two_section_covers(Graph(3, [(0, 1)]))

    def test_only_covers_that_can_be_minimal_are_canonicalised(self, monkeypatch):
        # the branching keeps a partial cover only if every member is the
        # union of its private g-edges (those no other member covers); a
        # cover that fails is dominated, so it never reaches canonical_form
        # (the irredundancy test alone lets 549 K5 covers and 430 C6 covers
        # through)
        thresholds = import_module("hnp.thresholds")
        original, calls = thresholds.canonical_form, []

        def counting(h):
            calls.append(h)
            return original(h)

        monkeypatch.setattr(thresholds, "canonical_form", counting)
        k5 = Graph(5, combinations(range(5), 2))
        covers = minimal_two_section_covers(k5)
        assert len(calls) == 167
        for cover in covers:
            for e in cover.edges:
                others = [set(o) for o in cover.edges if o != e]
                private = [set(f) for f in k5.edges if set(f) <= set(e) and not any(set(f) <= o for o in others)]
                assert set().union(*private) == set(e)
        calls.clear()
        minimal_two_section_covers(Graph(6, [(i, (i + 1) % 6) for i in range(6)]))
        assert len(calls) == 68

    def test_k7_guard(self):
        # K6 takes about a second; K7 takes minutes
        with pytest.raises(GuardError, match="7 vertices, guard is 6"):
            minimal_two_section_covers(Graph(7, combinations(range(7), 2)))


class TestClassifyTwoSection:
    def test_triangle_present_via_triples(self):
        p = ProbSequence(M=3, powerlaw={3: (1.0, F(19, 10))})
        v = classify_two_section(TRIANGLE, p)
        assert v.outcome == "aas_present"

    def test_triangle_absent(self):
        p = ProbSequence(M=3, powerlaw={2: (1.0, F(5)), 3: (1.0, F(5))})
        assert classify_two_section(TRIANGLE, p).outcome == "aas_absent"

    def test_single_edge_present(self):
        p = ProbSequence(M=2, powerlaw={2: (1.0, F(1, 2))})
        assert classify_two_section(Graph(2, [(0, 1)]), p).outcome == "aas_present"


class TestAsymptoticClass:
    """The verdict follows the sign of the governing exponent."""

    def test_verdict_matches_exponent_sign(self):
        rng = random.Random(35)
        for _ in range(40):
            h = random_hypergraph(rng, rng.randint(1, 4), rng.randint(0, 4))
            p = _random_powerlaw(rng)
            for v in (classify_strong(h, p), classify_weak(h, p)):
                if v.exponent is None or v.exponent < 0:
                    assert v.outcome == "aas_absent"
                elif v.exponent > 0:
                    assert v.outcome == "aas_present"
                else:
                    assert v.outcome == "inconclusive"


PINNED_PATTERNS = [(str(g.edges), g) for g in graph_classes()] + [
    ("loose_triangle", Hypergraph(6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])),
    ("loose_c4", Hypergraph(8, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 0)])),
    ("c8", Graph(8, [(i, (i + 1) % 8) for i in range(8)])),
]
PINNED_LAWS = [
    ("pex", PEX),
    # levels 1 and 3 identically zero
    ("gaps", ProbSequence(M=4, powerlaw={2: (1.0, F(1)), 4: (2.0, F(5, 2))})),
    # M below the 3-edges of the loose cycles and of larger covers
    ("low_m", ProbSequence(M=2, powerlaw={1: (1.0, F(1, 2)), 2: (1.0, F(4, 3))})),
]
# recorded before the threshold layer stated each rule once; re-recorded when
# the cover-search guard went from 7 to 6 vertices, which changes only c8's
# three "8 vertices, guard is ..." messages
PINNED_VERDICTS_SHA256 = "c9c9a180ea54facfb9794c899e3da033ddb055400b04055fe41ff24ad66bb4c0"


class TestPinnedVerdicts:
    def test_digest(self):
        rows = []
        for label, h in PINNED_PATTERNS:
            for law, p in PINNED_LAWS:
                for fn in (classify_strong, classify_weak, classify_induced_weak,
                           classify_two_section):
                    try:
                        v = fn(h, p)
                        witness = None if v.witness is None else [v.witness.n, v.witness.edges]
                        got = [v.outcome, None if v.exponent is None else str(v.exponent),
                               witness, v.reason]
                    except (GuardError, InputError) as exc:
                        got = [type(exc).__name__, str(exc)]
                    rows.append([label, law, fn.__name__, got])
        outcomes = {row[3][0] for row in rows}
        assert {"aas_present", "aas_absent", "inconclusive", "GuardError", "InputError"} <= outcomes
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == PINNED_VERDICTS_SHA256


@pytest.mark.parametrize("law, p", PINNED_LAWS, ids=[law for law, _ in PINNED_LAWS])
def test_k6_matches_brute(law, p):
    # 15 edges: every one of the 2^15 edge subsets against the vertex-set walk
    k6 = Hypergraph(6, list(combinations(range(6), 2)))
    for classify, weak in ((classify_strong, False), (classify_weak, True)):
        v = classify(k6, p)
        exponent, witness = brute_family_minimum(k6, p, weak)
        assert (v.exponent, v.witness.n, v.witness.edges) == (exponent, witness.n, witness.edges)
