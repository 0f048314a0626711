"""The three benchmark workloads: inputs made from a seed, the timed passes
that call hnp's public functions the way the README's library tour does,
and the checks on every output.

Each workload has a setup function (build inputs, fill the signature cache)
and a pass function. A pass times only the calls into hnp; digests and
invariants are computed outside the timed calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import defaultdict
from fractions import Fraction
from itertools import combinations

import numpy as np

import hnp
from reference import reference

DEFAULT_SEED = 1
REFERENCE_EVERY_S = 2.5
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# model_census: H(n, p) host at 10x the paper's email dataset
MODEL_N = 50440
MODEL_COUNTS = {2: 59750, 3: 21280, 4: 10340, 5: 5610}

# hub_census: heavy-tailed host with the paper-scale exact edge counts
HUB_N = 5044
HUB_COUNTS = {2: 5975, 3: 2128, 4: 1034, 5: 561}
HUB_GAMMA = 0.7
HUB_STRUCTURE_SEED = 5044

# threshold_mc: power laws around the triangle threshold at n=300
MC_N = 300
MC_TRIALS = 100
MC_SEQUENCE = hnp.ProbSequence(
    M=3, powerlaw={2: (1.0, Fraction(9, 10)), 3: (1.0, Fraction(2))}
)
COUNT_SEQUENCE = hnp.ProbSequence(
    M=3, powerlaw={2: (1.0, Fraction(3, 4)), 3: (1.0, Fraction(9, 5))}
)

TRIANGLE = hnp.Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
DIAMOND = hnp.Hypergraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
LOOSE_TRIANGLE = hnp.Hypergraph(6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
LOOSE_C4 = hnp.Hypergraph(8, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 0)])
C8 = hnp.Graph(8, [(i, (i + 1) % 8) for i in range(8)])
SEARCH_PATTERNS = (("triangle", TRIANGLE), ("diamond", DIAMOND), ("loose_triangle", LOOSE_TRIANGLE))
VERDICT_OUTCOMES = {"aas_present", "aas_absent", "inconclusive"}
GRAPH_CLASSES = 33  # graphs on 2..5 vertices without isolated vertices


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Pass:
    """Times one pass's calls into hnp and checks each output item.

    The fixed reference computation runs at the start, after every
    REFERENCE_EVERY_S of measured time, and at finish(); their times scale
    the pass to the nominal speed. An item fails when its invariant is
    false or, where a digest was recorded for this seed, when the sha256
    of its output differs.
    """

    def __init__(self, seed: int, golden: dict):
        self.seed = seed
        self.golden = golden
        self.stage_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.reference_s = [reference()]
        self._since_reference = 0.0
        self.complete = False

    def add(self, stage: str, seconds: float) -> None:
        self.stage_s[stage] += seconds
        self._since_reference += seconds
        if self._since_reference >= REFERENCE_EVERY_S:
            self.reference_s.append(reference())
            self._since_reference = 0.0

    def timed(self, stage: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.add(stage, time.perf_counter() - t0)
        return result

    def finish(self) -> None:
        self.reference_s.append(reference())
        self.complete = True

    def item(self, name: str, ok: bool, payload=None, seeded: bool = True) -> None:
        """Check one output. Seed-independent items (seeded=False) are
        compared with their recorded digest at every seed."""
        self.attempted += 1
        if payload is not None:
            self.digests[name] = digest(payload)
            if self.golden is not None and (self.seed == DEFAULT_SEED or not seeded):
                if self.golden.get(name) != self.digests[name]:
                    ok = False
        if not ok:
            self.failures.append(name)

    def wall_s(self) -> float:
        return sum(self.stage_s.values())


def _edges(h) -> list:
    return [list(e) for e in h.edges]


def fill_signature_cache() -> None:
    """Cold compute and write of the k=4 and k=5 weights into the empty
    private cache, as the first origination or census call would."""
    for k in (4, 5):
        hnp.signature_weights(k)


# -- census workloads ---------------------------------------------------------


def _census_and_clustering(run: Pass, h, p, n: int) -> None:
    for k in (4, 5):
        report = run.timed("census", hnp.census, h, k, p, n=n)
        total = sum(row.observed_count for row in report.rows)
        run.item(f"census_k{k}", total == report.total_cliques > 0, report.to_dict())
        run.counts["cliques"] += report.total_cliques
    report = run.timed("clustering", hnp.clustering_report, h)
    ok = (
        sum(report["hc_local_histogram"]) == h.n
        and 0.0 <= report["hc_global"] <= 1.0
        and report["n_intersecting_pairs"] > 0
    )
    run.item("clustering", ok, report)
    run.counts["pairs"] += report["n_intersecting_pairs"]


def setup_model_census(seed: int, workdir: str) -> dict:
    fill_signature_cache()
    return {
        "seed": seed,
        "p": hnp.from_edge_counts(MODEL_N, MODEL_COUNTS),
        "path": os.path.join(workdir, "model.edges"),
    }


def pass_model_census(run: Pass, inputs: dict) -> None:
    p, path = inputs["p"], inputs["path"]
    h = run.timed("sample", hnp.sample, MODEL_N, p, inputs["seed"])
    run.item("sample", len(h.edges) > 0, _edges(h))
    run.timed("write_edge_list", hnp.write_edge_list, h, path)
    parsed = run.timed("read_edge_list", hnp.read_edge_list, path)
    h2 = parsed.hypergraph
    back = {i: int(tok) for tok, i in parsed.token_to_id.items()}
    same = {tuple(sorted(back[v] for v in e)) for e in h2.edges} == set(h.edges)
    run.item("round_trip", same, _edges(h2))
    del h, parsed
    g = run.timed("two_section", hnp.two_section, h2)
    bound = sum(len(e) * (len(e) - 1) // 2 for e in h2.edges)
    run.item("two_section", 0 < len(g.edges) <= bound, _edges(g))
    del g
    _census_and_clustering(run, h2, p, MODEL_N)


def _hub_edges(seed: int) -> list:
    """Distinct edges with the exact HUB_COUNTS; each edge's vertices are
    drawn with weight rank^-HUB_GAMMA from HUB_STRUCTURE_SEED. The seed
    picks the vertex labels and the edge order.

    The structure is fixed because a few hubs decide the clique count, and
    with it the census work: across seeds it varies by 14% (quartile
    spread), which would hide regressions smaller than that."""
    rng = np.random.default_rng(HUB_STRUCTURE_SEED)
    weights = np.arange(1, HUB_N + 1, dtype=float) ** -HUB_GAMMA
    weights /= weights.sum()
    shuffle = np.random.default_rng(seed)
    label = shuffle.permutation(HUB_N)
    edges = []
    for r, m in sorted(HUB_COUNTS.items()):
        seen = set()
        while len(seen) < m:
            batch = rng.choice(HUB_N, size=(2 * (m - len(seen)) + 16, r), p=weights)
            batch.sort(axis=1)
            batch = batch[(batch[:, 1:] != batch[:, :-1]).all(axis=1)]
            for row in batch.tolist():
                t = tuple(row)
                if t not in seen:
                    seen.add(t)
                    edges.append(sorted(int(label[v]) for v in t))
                    if len(seen) == m:
                        break
    return [edges[i] for i in shuffle.permutation(len(edges))]


def setup_hub_census(seed: int, workdir: str) -> dict:
    fill_signature_cache()
    path = os.path.join(workdir, "hub.edges")
    with open(path, "w", encoding="utf-8") as fh:
        for e in _hub_edges(seed):
            fh.write(" ".join(map(str, e)) + "\n")
    return {"p": hnp.from_edge_counts(HUB_N, HUB_COUNTS), "path": path}


def pass_hub_census(run: Pass, inputs: dict) -> None:
    parsed = run.timed("read_edge_list", hnp.read_edge_list, inputs["path"])
    h = parsed.hypergraph
    run.item("read", dict(h.size_counts()) == HUB_COUNTS, _edges(h))
    _census_and_clustering(run, h, inputs["p"], HUB_N)


# -- threshold workload -------------------------------------------------------


def _labelled_graphs() -> list:
    """Every labelled graph on 2..5 vertices without isolated vertices."""
    out = []
    for v in range(2, 6):
        pairs = list(combinations(range(v), 2))
        for mask in range(1, 1 << len(pairs)):
            es = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if len(set().union(*es)) == v:
                out.append(hnp.Graph(v, es))
    return out


def setup_threshold_mc(seed: int, workdir: str) -> dict:
    fill_signature_cache()
    return {
        "graphs": _labelled_graphs(),
        "mc_p": MC_SEQUENCE.at(MC_N),
        "count_p": COUNT_SEQUENCE.at(MC_N),
        "trial_seeds": [1000 * seed + i for i in range(MC_TRIALS)],
        "count_seed": 1000 * seed + 999,
    }


def _verdict(v) -> list:
    return [v.outcome, None if v.exponent is None else str(v.exponent)]


def pass_threshold_mc(run: Pass, inputs: dict) -> None:
    classes = {}
    for g in inputs["graphs"]:
        classes.setdefault(run.timed("canonical_form", hnp.canonical_form, g), g)
    keys = sorted(classes)
    run.item("graph_classes", len(keys) == GRAPH_CLASSES, keys, seeded=False)
    forms = [run.timed("canonical_form", hnp.canonical_form, h) for h in (LOOSE_TRIANGLE, LOOSE_C4, C8)]
    run.item("canonical_forms", True, forms, seeded=False)

    patterns = [(f"g{i}", classes[key]) for i, key in enumerate(keys)]
    patterns += [("loose_triangle", LOOSE_TRIANGLE), ("loose_c4", LOOSE_C4), ("c8", C8)]
    for label, h in patterns:
        verdicts = [
            run.timed("classify", fn, h, MC_SEQUENCE)
            for fn in (hnp.classify_strong, hnp.classify_weak, hnp.classify_induced_weak)
        ]
        if h.is_uniform(2) and h.n <= 5:
            verdicts.append(run.timed("classify", hnp.classify_two_section, h, MC_SEQUENCE))
        run.counts["verdicts"] += len(verdicts)
        ok = all(v.outcome in VERDICT_OUTCOMES for v in verdicts)
        run.item(f"verdicts:{label}", ok, [_verdict(v) for v in verdicts], seeded=False)

    presence = []
    for trial_seed in inputs["trial_seeds"]:
        t0 = time.perf_counter()
        host = hnp.sample(MC_N, inputs["mc_p"], trial_seed)
        row = []
        for _, pat in SEARCH_PATTERNS:
            row.append(hnp.find_strong_copies(pat, host, mode="exists"))
            row.append(hnp.find_weak_copies(pat, host, mode="exists"))
        dt = time.perf_counter() - t0
        run.add("mc", dt)
        run.samples["trial_s"].append(dt)
        run.counts["trials"] += 1
        # a strong copy is always a weak copy
        run.item("trial", all(w or not s for s, w in zip(row[::2], row[1::2])))
        presence.append([len(host.edges)] + row)
    run.item("mc_presence", True, presence)

    host = run.timed("sample", hnp.sample, MC_N, inputs["count_p"], inputs["count_seed"])
    for label, pat in SEARCH_PATTERNS:
        for kind, fn in (("strong", hnp.find_strong_copies), ("weak", hnp.find_weak_copies)):
            exists = run.timed("find_exists", fn, pat, host, mode="exists")
            count = run.timed("find_count", fn, pat, host, mode="count")
            run.item(f"count:{label}:{kind}", exists == (count > 0), [exists, count])


WORKLOADS = {
    "model_census": (setup_model_census, pass_model_census),
    "hub_census": (setup_hub_census, pass_hub_census),
    "threshold_mc": (setup_threshold_mc, pass_threshold_mc),
}
