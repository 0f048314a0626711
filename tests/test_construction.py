"""Every producer that skips the constructor's checks through
`Hypergraph._normalised` builds exactly what the checked constructor builds
from the same edges: same type, edge order, incidence lists and int ids."""

import math
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hnp import (
    Graph,
    Hypergraph,
    ProbSequence,
    induced_strong,
    induced_weak,
    minimal_two_section_covers,
    padded_pattern,
    read_edge_list,
    sample,
    two_section,
)
from hnp.core import _compacted
from hnp.model import _ENUMERATION_LIMIT
from util import graph_classes


def assert_as_validated(got, cls=Hypergraph):
    want = cls(got.n, got.edges)
    assert type(got) is cls
    assert got.edges == want.edges
    assert got.incidence == want.incidence
    assert all(type(v) is int for e in got.edges for v in e)


@st.composite
def hosts(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    edges = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=5), max_size=14))
    return Hypergraph(n, edges)


@settings(deadline=None)
@given(hosts(), st.data())
def test_relabelling_producers_match_the_checked_constructor(h, data):
    assert_as_validated(two_section(h), Graph)
    if h.edges:
        chosen = data.draw(st.sets(st.sampled_from(h.edges), min_size=1))
        assert_as_validated(_compacted(sorted(chosen, key=h.edges.index))[0])
    s = data.draw(st.sets(st.integers(0, h.n - 1)))
    assert_as_validated(induced_strong(h, s)[0])
    assert_as_validated(induced_weak(h, s)[0])


@settings(deadline=None, max_examples=50)
@given(hosts(max_n=5).filter(lambda h: len(h.edges) <= 5))
def test_padding_matches_the_checked_constructor(h):
    p = ProbSequence(M=6, powerlaw={r: (1.0, Fraction(r, 2)) for r in (2, 4, 6)})
    assert_as_validated(padded_pattern(h, p))


@settings(deadline=None)
@given(hosts(), st.data())
def test_read_edge_list_matches_the_checked_constructor(h, data):
    # shuffled labels, token order and line order, with repeated lines
    labels = data.draw(st.permutations([f"v{i}" for i in range(h.n)]))
    lines = [data.draw(st.permutations([labels[v] for v in e])) for e in h.edges]
    lines += data.draw(st.lists(st.sampled_from(lines), max_size=3)) if lines else []
    lines = data.draw(st.permutations(lines))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "h.edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(" ".join(line) + "\n" for line in lines)
        parsed = read_edge_list(path, max_edge_size=data.draw(st.sampled_from([None, 2, 3])))
    assert_as_validated(parsed.hypergraph)
    back = {i: tok for tok, i in parsed.token_to_id.items()}
    kept = {frozenset(labels[v] for v in e) for e in h.edges}
    got = {frozenset(back[v] for v in e) for e in parsed.hypergraph.edges}
    assert got <= kept


@settings(deadline=None)
@given(st.integers(1, 14), st.dictionaries(st.integers(1, 14), st.floats(0, 1), min_size=1),
       st.integers(0, 2**32))
def test_sample_by_index_matches_the_checked_constructor(n, probs, seed):
    p = ProbSequence(M=max(probs), numeric=probs)
    assert_as_validated(sample(n, p, seed))


@settings(deadline=None, max_examples=30)
@given(st.integers(118, 160), st.floats(0, 1e-3), st.integers(0, 2**32))
def test_sample_by_rejection_matches_the_checked_constructor(n, p3, seed):
    assert math.comb(n, 3) > _ENUMERATION_LIMIT
    h = sample(n, ProbSequence(M=3, numeric={2: 0.01, 3: p3}), seed)
    assert_as_validated(h)


def test_cover_representatives_match_the_checked_constructor():
    for g in graph_classes():
        if len(g.edges) <= 6:
            for cover in minimal_two_section_covers(g):
                assert_as_validated(cover)
