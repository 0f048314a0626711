"""Spans around calls into hnp's public functions, for the traced run.

Each span has an id, a name, its parent span, a run id ("<process>/setup"
or "<process>/pass"), start and end times, and a few counts taken from the
call's arguments and result. A generator is drained into a list inside its
span, so the span holds only the time spent producing items and not the
consumer's work between them. A span's self time is its duration minus
the durations of its children.

The functions are wrapped by rebinding module attributes, both on the
package (the benchmark's own calls) and inside the hnp modules that call
them (census -> list_k_cliques, clustering_report -> intersecting_pairs,
classify_two_section -> minimal_two_section_covers -> canonical_form, ...).
Spans stay in memory and are written as JSON lines when the process ends.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "attrs")

    def __init__(self, sid, name, parent, run):
        self.id = sid
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = time.perf_counter()
        self.attrs = {}

    def to_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    def __init__(self, process: str):
        self.process = process
        self.phase = "setup"
        self.spans = []
        self.stack = []

    def _open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, f"{self.process}/{self.phase}")
        self.spans.append(span)
        return span

    def wrap_call(self, name, fn, counts):
        def traced(*args, **kwargs):
            span = self._open(name)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span.end = time.perf_counter()
            if counts is not None:
                span.attrs.update(counts(args, kwargs, result))
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _found(args, kwargs, result):
    mode = _arg(args, kwargs, 2, "mode", "count")
    return {"mode": mode, "found": len(result) if mode == "list" else int(result)}


# (span name, modules whose attribute is rebound, attribute, is generator, counts)
TARGETS = [
    ("model.sample", ["hnp"], "sample", False,
     lambda a, kw, r: {"edges": len(r.edges)}),
    ("core.two_section", ["hnp", "hnp.census"], "two_section", False,
     lambda a, kw, r: {"pairs": len(r.edges)}),
    ("io.write_edge_list", ["hnp"], "write_edge_list", False,
     lambda a, kw, r: {"bytes": os.path.getsize(_arg(a, kw, 1, "path"))}),
    ("io.read_edge_list", ["hnp"], "read_edge_list", False,
     lambda a, kw, r: {"bytes": os.path.getsize(_arg(a, kw, 0, "path"))}),
    ("census.census", ["hnp"], "census", False,
     lambda a, kw, r: {"k": _arg(a, kw, 1, "k"), "cliques": r.total_cliques}),
    ("census.list_k_cliques", ["hnp", "hnp.census"], "list_k_cliques", True,
     lambda a, kw, r: {"k": _arg(a, kw, 1, "k"), "items": len(r)}),
    ("census.observed_signature", ["hnp", "hnp.census"], "observed_signature", False, None),
    ("signatures.signature_weights", ["hnp", "hnp.signatures"], "signature_weights", False,
     lambda a, kw, r: {"k": _arg(a, kw, 0, "k")}),
    ("signatures.origination_distribution", ["hnp", "hnp.census"], "origination_distribution",
     False, lambda a, kw, r: {"k": _arg(a, kw, 0, "k")}),
    ("clustering.clustering_report", ["hnp"], "clustering_report", False,
     lambda a, kw, r: {"pairs": r["n_intersecting_pairs"]}),
    ("clustering.intersecting_pairs", ["hnp", "hnp.clustering"], "intersecting_pairs", True,
     lambda a, kw, r: {"items": len(r)}),
    ("isomorphism.find_strong_copies", ["hnp"], "find_strong_copies", False, _found),
    ("isomorphism.find_weak_copies", ["hnp"], "find_weak_copies", False, _found),
    ("isomorphism.canonical_form", ["hnp", "hnp.isomorphism", "hnp.thresholds"],
     "canonical_form", False, None),
    ("thresholds.classify_strong", ["hnp"], "classify_strong", False, None),
    ("thresholds.classify_weak", ["hnp"], "classify_weak", False, None),
    ("thresholds.classify_induced_weak", ["hnp"], "classify_induced_weak", False, None),
    ("thresholds.classify_two_section", ["hnp"], "classify_two_section", False, None),
    ("thresholds.minimal_two_section_covers", ["hnp", "hnp.thresholds"],
     "minimal_two_section_covers", False, lambda a, kw, r: {"covers": len(r)}),
]


def _drained(fn):
    def run(*args, **kwargs):
        return list(fn(*args, **kwargs))

    return run


def install(tracer: Tracer) -> None:
    """Rebind every target to a traced wrapper for the rest of the process."""
    for name, modules, attr, generator, counts in TARGETS:
        for modname in modules:
            module = importlib.import_module(modname)
            fn = getattr(module, attr)
            setattr(module, attr, tracer.wrap_call(name, _drained(fn) if generator else fn, counts))


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list) -> dict:
    """{span name: [calls, total s, self s]} over the given span dicts."""
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[(s["run"], s["parent"])] += duration(s)
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = out[s["name"]]
        row[0] += 1
        row[1] += duration(s)
        row[2] += duration(s) - children[(s["run"], s["id"])]
    return dict(out)


def layer_metrics(spans: list) -> dict:
    """Per-layer times (span durations, child spans included) and counts
    of one pass, from the span dicts of that pass."""

    def select(name, **attrs):
        return [s for s in spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def seconds(name, **attrs):
        return sum(duration(s) for s in select(name, **attrs))

    def total(name, key, **attrs):
        return sum(s["attrs"][key] for s in select(name, **attrs))

    finds = select("isomorphism.find_strong_copies") + select("isomorphism.find_weak_copies")
    classify = ("strong", "weak", "induced_weak", "two_section")
    return {
        "model.sample_s": seconds("model.sample"),
        "model.sample_calls": len(select("model.sample")),
        "model.edges_drawn": total("model.sample", "edges"),
        "core.two_section_s": seconds("core.two_section"),
        "core.two_section_pairs": total("core.two_section", "pairs"),
        "io.write_edge_list_s": seconds("io.write_edge_list"),
        "io.read_edge_list_s": seconds("io.read_edge_list"),
        "io.edge_list_bytes": total("io.write_edge_list", "bytes") + total("io.read_edge_list", "bytes"),
        "census.list_k_cliques_s.k4": seconds("census.list_k_cliques", k=4),
        "census.list_k_cliques_s.k5": seconds("census.list_k_cliques", k=5),
        "census.cliques.k4": total("census.list_k_cliques", "items", k=4),
        "census.cliques.k5": total("census.list_k_cliques", "items", k=5),
        "census.observed_signature_s": seconds("census.observed_signature"),
        "census.census_s": seconds("census.census"),
        "signatures.origination_s": seconds("signatures.origination_distribution"),
        "clustering.intersecting_pairs_s": seconds("clustering.intersecting_pairs"),
        "clustering.report_s": seconds("clustering.clustering_report"),
        "clustering.pairs": total("clustering.intersecting_pairs", "items"),
        "isomorphism.find_exists_s": sum(duration(s) for s in finds if s["attrs"]["mode"] == "exists"),
        "isomorphism.find_count_s": sum(duration(s) for s in finds if s["attrs"]["mode"] == "count"),
        "isomorphism.copies_found": sum(s["attrs"]["found"] for s in finds),
        "isomorphism.canonical_form_s": seconds("isomorphism.canonical_form"),
        "isomorphism.canonical_form_calls": len(select("isomorphism.canonical_form")),
        "thresholds.classify_s": sum(seconds(f"thresholds.classify_{c}") for c in classify),
        "thresholds.minimal_covers_s": seconds("thresholds.minimal_two_section_covers"),
        "thresholds.covers": total("thresholds.minimal_two_section_covers", "covers"),
    }
