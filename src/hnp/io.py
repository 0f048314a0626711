"""Edge-list ingestion and serialization.

File format: UTF-8 text, one hyperedge per line as whitespace-separated
vertex tokens. Lines starting with '#' and blank lines are ignored. A
repeated token within a line is an error; duplicate lines (as sets) are
dropped and counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .core import Hypergraph
from .errors import InputError, _integer

__all__ = ["ParsedEdgeList", "read_edge_list", "write_edge_list"]


@dataclass
class ParsedEdgeList:
    """Result of parsing an edge-list file."""

    hypergraph: Hypergraph
    token_to_id: Dict[str, int]
    duplicate_edges: int
    dropped_oversize: int = 0


class _Ids(dict):
    """Token -> id map that gives each unseen token the next dense id."""

    __slots__ = ()

    def __missing__(self, token: str) -> int:
        self[token] = new = len(self)
        return new


def read_edge_list(path: str, max_edge_size: int | None = None) -> ParsedEdgeList:
    """Parse an edge-list file into a hypergraph.

    Tokens are mapped to dense ids in first-seen order; a UTF-8 byte-order
    mark at the start of the file is skipped. With max_edge_size
    set, larger lines are dropped (counted) before the hypergraph is built;
    isolated vertices left behind by the drop are not created since ids are
    assigned only for surviving lines. This is the package's only
    truncation of a host; a max_edge_size that is not an integer or is
    below 1 raises InputError.
    """
    if max_edge_size is not None and _integer(max_edge_size, "max_edge_size") < 1:
        raise InputError(f"max_edge_size must be >= 1, got {max_edge_size}")
    ids = _Ids()
    id_of = ids.__getitem__
    edges = set()
    duplicates = 0
    dropped = 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens or tokens[0][0] == "#":
                continue
            if len(set(tokens)) != len(tokens):
                seen = set()
                dup = next(t for t in tokens if t in seen or seen.add(t))
                raise InputError(f"{path}:{lineno}: repeated token {dup!r} in hyperedge")
            if max_edge_size is not None and len(tokens) > max_edge_size:
                dropped += 1
                continue
            # a repeated line (as a set) has all its tokens mapped already,
            # so it gives no new ids and the same sorted id tuple
            e = tuple(sorted(map(id_of, tokens)))
            if e in edges:
                duplicates += 1
                continue
            edges.add(e)
    return ParsedEdgeList(
        hypergraph=Hypergraph._normalised(len(ids), edges),
        token_to_id=dict(ids),
        duplicate_edges=duplicates,
        dropped_oversize=dropped,
    )


def write_edge_list(h: Hypergraph, path: str) -> None:
    """Write edges in canonical order, ids as decimal tokens.

    Isolated vertices are not representable in this format.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for e in h.edges:
            fh.write(" ".join(str(v) for v in e))
            fh.write("\n")
