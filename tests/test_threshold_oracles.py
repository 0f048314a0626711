"""The cover search, the subgraph-family minimum and the dominant level of
a power law against the unpruned and brute-force oracles in util.py."""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnp import (
    Graph,
    GuardError,
    Hypergraph,
    InputError,
    ProbSequence,
    canonical_form,
    classify_strong,
    classify_weak,
    covering_weight_exponent,
    enumerate_strong_subgraphs,
    minimal_two_section_covers,
    pad_amount,
)
from hnp.isomorphism import _edge_subsets
from util import (
    brute_covering_weight,
    brute_family_minimum,
    brute_is_subedge,
    brute_pad_amount,
    brute_two_section_covers,
    graph_classes,
)


def _graph_classes():
    """The 33 graph classes on 2..5 vertices, then C6."""
    return graph_classes() + [Graph(6, [(i, (i + 1) % 6) for i in range(6)])]


@pytest.mark.parametrize("g", _graph_classes(), ids=lambda g: str(g.edges))
def test_covers_match_unpruned_search(g):
    # classes, their order and every representative's labelled edges
    got = [(c.n, c.edges) for c in minimal_two_section_covers(g)]
    assert got == [(c.n, c.edges) for c in brute_two_section_covers(g)]


def _all_hypergraphs(n):
    subsets = [s for r in range(1, n + 1) for s in combinations(range(n), r)]
    for mask in range(1 << len(subsets)):
        yield Hypergraph(n, [subsets[i] for i in range(len(subsets)) if mask >> i & 1])


def _mutual_subedge_means_isomorphic(h1, h2):
    if brute_is_subedge(h1, h2) and brute_is_subedge(h2, h1):
        assert canonical_form(h1) == canonical_form(h2)


def test_mutual_subedge_systems_on_three_vertices_are_isomorphic():
    # why one direction of the subedge test decides cover domination
    hs = list(_all_hypergraphs(3))
    for h1 in hs:
        for h2 in hs:
            if len(h1.edges) == len(h2.edges):  # otherwise one direction fails
                _mutual_subedge_means_isomorphic(h1, h2)


@st.composite
def hypergraphs(draw, min_n=1, max_n=4, max_edges=6):
    n = draw(st.integers(min_n, max_n))
    edges = draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=max_edges)
    )
    return Hypergraph(n, edges)


@settings(deadline=None)
@given(hypergraphs(), st.data())
def test_mutual_subedge_systems_are_isomorphic(h1, data):
    # a relabelled copy with edges shrunk or swapped for a superset edge
    perm = data.draw(st.permutations(range(h1.n)))
    h2 = Hypergraph(h1.n, [tuple(perm[v] for v in e) for e in h1.edges])
    other = data.draw(hypergraphs(min_n=h1.n, max_n=h1.n))
    for h in (h2, other):
        _mutual_subedge_means_isomorphic(h1, h)


@st.composite
def powerlaws(draw):
    """Power laws on sizes 1..M with some levels identically zero, possibly
    every level at and above some size."""
    M = draw(st.integers(1, 6))
    alphas = draw(
        st.lists(
            st.none() | st.fractions(0, 5, max_denominator=10), min_size=M, max_size=M
        )
    )
    levels = {r: (1.0, a) for r, a in enumerate(alphas, 1) if a is not None}
    return ProbSequence(M=M, powerlaw=levels or {M: (1.0, F(1))})


@settings(deadline=None)
@given(powerlaws())
def test_dominant_level_matches_brute(p):
    # sizes above M have no level at all
    for r in range(1, p.M + 2):
        want = brute_covering_weight(p, r)
        assert covering_weight_exponent(p, r) == want
        if want is None:
            # every level from r up is zero
            assert all(p.alpha(s) is None for s in range(r, p.M + 1))
            with pytest.raises(InputError):
                pad_amount(p, r)
        else:
            assert pad_amount(p, r) == brute_pad_amount(p, r)


def test_dominant_level_without_upper_levels():
    p = ProbSequence(M=4, powerlaw={1: (1.0, F(1, 2)), 2: (1.0, F(3, 2))})
    assert covering_weight_exponent(p, 3) is None
    with pytest.raises(InputError):
        pad_amount(p, 3)
    # a tie goes to the smaller pad
    p = ProbSequence(M=3, powerlaw={1: (1.0, F(1)), 2: (1.0, F(2))})
    assert (covering_weight_exponent(p, 1), pad_amount(p, 1)) == (F(-1), 0)


@settings(deadline=None, max_examples=60)
@given(hypergraphs(max_n=10, max_edges=10), powerlaws())
def test_family_minimum_matches_brute(h, p):
    for classify, weak in ((classify_strong, False), (classify_weak, True)):
        v = classify(h, p)
        exponent, witness = brute_family_minimum(h, p, weak)
        assert v.exponent == exponent
        assert (v.witness.n, v.witness.edges) == (witness.n, witness.edges)


def test_edge_subset_walk_guards_on_call():
    p = ProbSequence(M=2, powerlaw={2: (1.0, F(1))})
    # the guard fires before a -infinity term settles the minimum
    no_pairs = ProbSequence(M=2, powerlaw={1: (1.0, F(1))})
    wide = Hypergraph(11, [(0, 1)])
    dense = Hypergraph(7, list(combinations(range(7), 2))[:17])
    for h in (wide, dense):
        with pytest.raises(GuardError):
            _edge_subsets(h)
        for q in (p, no_pairs):
            with pytest.raises(GuardError):
                classify_strong(h, q)
        with pytest.raises(GuardError):
            enumerate_strong_subgraphs(h)
    # inside the guard the walk is lazy, in mask order
    walk = _edge_subsets(Hypergraph(7, list(combinations(range(7), 2))[:16]))
    assert next(walk) == [(0, 1)]
    assert next(walk) == [(0, 2)]
    assert next(walk) == [(0, 1), (0, 2)]
