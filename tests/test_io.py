import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnp import Hypergraph, InputError, read_edge_list, write_edge_list


def test_round_trip(tmp_path):
    h = Hypergraph(4, [(0, 1), (1, 2, 3)])
    path = tmp_path / "h.edges"
    write_edge_list(h, str(path))
    back = read_edge_list(str(path)).hypergraph
    # token order is first-seen, which here matches canonical edge order
    assert len(back.edges) == 2
    assert sorted(len(e) for e in back.edges) == [2, 3]


def test_dedup_and_token_mapping(tmp_path):
    path = tmp_path / "toy.edges"
    path.write_text("b a\na b\nc a b\n", encoding="utf-8")
    parsed = read_edge_list(str(path))
    assert parsed.hypergraph.n == 3
    assert parsed.duplicate_edges == 1
    assert sorted(len(e) for e in parsed.hypergraph.edges) == [2, 3]
    # a plain dict, in first-seen order
    assert type(parsed.token_to_id) is dict
    assert list(parsed.token_to_id.items()) == [("b", 0), ("a", 1), ("c", 2)]


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.edges"
    path.write_text("# header\n\na b\n  \n  # indented\n\t#x y\n# trailing\nb c\nc #d\n", encoding="utf-8")
    parsed = read_edge_list(str(path))
    # only a line whose first token starts with '#' is a comment
    assert parsed.token_to_id == {"a": 0, "b": 1, "c": 2, "#d": 3}
    assert parsed.hypergraph.edges == ((0, 1), (1, 2), (2, 3))


def test_repeated_token_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("a b\nx y x\n", encoding="utf-8")
    with pytest.raises(InputError) as info:
        read_edge_list(str(path))
    assert str(info.value) == f"{path}:2: repeated token 'x' in hyperedge"


def test_oversize_dropped_and_counted(tmp_path):
    path = tmp_path / "big.edges"
    path.write_text("a b\np q r s t u\n", encoding="utf-8")
    parsed = read_edge_list(str(path), max_edge_size=5)
    assert parsed.dropped_oversize == 1
    assert parsed.hypergraph.n == 2  # tokens of the dropped line get no ids


@st.composite
def hosts(draw):
    n = draw(st.integers(1, 9))
    edges = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=6), max_size=14))
    return Hypergraph(n, edges)


@settings(deadline=None)
@given(hosts())
def test_truncation_at_ingestion(h):
    # the only truncation: edges above m are dropped, no vertex is isolated,
    # and truncating the result again at the same m changes nothing
    def host_edges(parsed):
        token = {i: int(t) for t, i in parsed.token_to_id.items()}
        return {tuple(sorted(token[v] for v in e)) for e in parsed.hypergraph.edges}

    with tempfile.TemporaryDirectory() as tmp:
        path, again = os.path.join(tmp, "h.edges"), os.path.join(tmp, "again.edges")
        write_edge_list(h, path)
        for m in range(1, 6):
            parsed = read_edge_list(path, max_edge_size=m)
            kept = {e for e in h.edges if len(e) <= m}
            assert host_edges(parsed) == kept
            assert parsed.dropped_oversize == len(h.edges) - len(kept)
            got = parsed.hypergraph
            assert all(got.incidence[v] for v in range(got.n))
            write_edge_list(got, again)
            twice = read_edge_list(again, max_edge_size=m)
            assert twice.dropped_oversize == 0
            assert twice.hypergraph.n == got.n and host_edges(twice) == set(got.edges)


def test_max_edge_size_must_be_positive(tmp_path):
    path = tmp_path / "one.edges"
    path.write_text("a\n", encoding="utf-8")
    for m in (0, -1):
        with pytest.raises(InputError, match=f"max_edge_size must be >= 1, got {m}"):
            read_edge_list(str(path), max_edge_size=m)
    assert read_edge_list(str(path), max_edge_size=1).hypergraph == Hypergraph(1, [(0,)])


@pytest.mark.parametrize("m", [2.5, True, "3"])
def test_max_edge_size_must_be_an_integer(tmp_path, m):
    path = tmp_path / "two.edges"
    path.write_text("a b\na b c\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"max_edge_size must be an integer, got {m!r}"):
        read_edge_list(str(path), max_edge_size=m)


def test_max_edge_size_read_as_an_integer(tmp_path):
    path = tmp_path / "two.edges"
    path.write_text("a b\na b c\n", encoding="utf-8")
    parsed = read_edge_list(str(path), max_edge_size=np.int64(2))
    assert parsed.hypergraph == Hypergraph(2, [(0, 1)]) and parsed.dropped_oversize == 1


def test_empty_file(tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("", encoding="utf-8")
    parsed = read_edge_list(str(path))
    assert parsed.hypergraph == Hypergraph(0)
    assert parsed.duplicate_edges == 0


def test_byte_order_mark_is_not_a_token(tmp_path):
    # Windows tools may start a UTF-8 file with a byte-order mark; read as
    # text, it would glue itself to the first token as a distinct vertex
    plain, marked = tmp_path / "plain.edges", tmp_path / "marked.edges"
    plain.write_text("0 1\n1 2\n0 2\n", encoding="utf-8")
    marked.write_text("0 1\n1 2\n0 2\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    parsed = read_edge_list(str(marked))
    assert parsed == read_edge_list(str(plain))
    assert parsed.token_to_id == {"0": 0, "1": 1, "2": 2}
    assert parsed.hypergraph == Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
