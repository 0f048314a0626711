"""Command-line surface: ingestion, generation, threshold verdicts, clique
census, origination tables, clustering, and Monte Carlo threshold checks.

Every subcommand is deterministic given its inputs, flags, and seed. Exit
codes: 0 success, 2 input error, 3 guard/budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .census import (
    census,
    write_census_csv,
    write_census_json,
    write_scatter_csv,
)
from .clustering import clustering_report
from .core import profiles
from .errors import GuardError, InputError
from .io import read_edge_list, write_edge_list
from .isomorphism import find_strong_copies, find_weak_copies
from .model import ProbSequence, from_edge_counts, sample
from .signatures import (
    origination_distribution,
    rank_signatures,
    write_origination_csv,
)
from .thresholds import (
    ContainmentVerdict,
    classify_induced_weak,
    classify_strong,
    classify_two_section,
    classify_weak,
)

__all__ = ["main"]

# the verdict of each --mode of thresholds and mc-threshold
_CLASSIFIERS = {
    "strong": classify_strong,
    "weak": classify_weak,
    "induced-weak": classify_induced_weak,
    "2section": classify_two_section,
}

# the sequence flags a subcommand takes, by the kind of sequence it needs
_SEQUENCE_FLAGS = {
    "numeric": ("--counts", "--probs"),
    "power-law": ("--powerlaw", "--probs"),
    "any": ("--powerlaw", "--probs", "--counts"),
}


# -- shared helpers ----------------------------------------------------------


def _parse_sizes(spec: str, kind: str, example: str, value) -> dict:
    """Parse "r=text,..." into {r: value(text)}; each size may appear once."""
    out = {}
    for part in spec.split(","):
        try:
            r, text = part.split("=")
            r, parsed = int(r), value(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad {kind} spec {spec!r} (want e.g. {example})") from exc
        if r in out:
            raise InputError(f"size {r} given twice in {kind} spec {spec!r}")
        out[r] = parsed
    return out


def _parse_counts(spec: str) -> Dict[int, int]:
    """Parse "2=5975,3=2128" into {2: 5975, 3: 2128}."""
    return _parse_sizes(spec, "counts", "2=5975,3=2128", int)


def _parse_level(text: str) -> Tuple[float, Fraction]:
    c, alpha = text.split("@") if "@" in text else (1.0, text)
    return float(c), Fraction(alpha)


def _parse_powerlaw(spec: str) -> ProbSequence:
    """Parse "1=3/5,2=9/10" (alpha per size, coefficient 1) or entries like
    "2=0.5@9/10" to set a coefficient."""
    levels = _parse_sizes(spec, "power-law", "2=3/4,3=5/2", _parse_level)
    return ProbSequence(M=max(levels), powerlaw=levels)


def _sequence(args, n: Optional[int]) -> Tuple[ProbSequence, Optional[Dict[int, int]]]:
    """The probability sequence of whichever of the subcommand's sequence
    flags was given (argparse lets at most one through), and the parsed
    --counts, which are expected edge counts on n vertices (else None)."""
    kind = args.sequence_kind
    if args.counts is not None:
        counts = _parse_counts(args.counts)
        return from_edge_counts(n, counts), counts
    if args.powerlaw is not None:
        return _parse_powerlaw(args.powerlaw), None
    if args.probs is None:
        raise InputError(f"give {' or '.join(_SEQUENCE_FLAGS[kind])}")
    with open(args.probs, "r", encoding="utf-8") as fh:
        p = ProbSequence.from_json(fh.read())
    if kind != "any" and p.is_numeric != (kind == "numeric"):
        raise InputError(f"this subcommand needs a {kind} sequence")
    return p, None


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _exponent_str(e) -> Optional[str]:
    if e is None:
        return "-inf"
    return f"{e.numerator}/{e.denominator}"


def _verdict_dict(pattern: str, mode: str, v: ContainmentVerdict) -> dict:
    witness = None
    if v.witness is not None:
        witness = {"n": v.witness.n, "edges": [list(e) for e in v.witness.edges]}
    return {
        "pattern": pattern,
        "mode": mode,
        "verdict": v.outcome,
        "witness_subgraph": witness,
        "exponent": _exponent_str(v.exponent),
        "reason": v.reason,
    }


def _wilson_interval(hits: int, trials: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959963984540054  # two-sided 95% standard normal quantile
    phat = hits / trials
    z2n = z * z / trials
    centre = (phat + z2n / 2) / (1 + z2n)
    half = z / (1 + z2n) * math.sqrt(phat * (1 - phat) / trials + z2n / (4 * trials))
    return max(0.0, centre - half), min(1.0, centre + half)


def _pmap(fn, items: list, parallel: Optional[int]) -> list:
    """Order-preserving map, across at most `parallel` processes (default:
    one per CPU); results are independent of the worker count. At most one
    worker per item: the pool starts all of its workers at the first
    submit."""
    workers = min(parallel or os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        chunk = max(1, len(items) // (workers * 4))
        return list(ex.map(fn, items, chunksize=chunk))


# -- subcommands -------------------------------------------------------------


def cmd_ingest(args) -> int:
    parsed = read_edge_list(args.input, max_edge_size=args.max_edge_size)
    h = parsed.hypergraph
    degree_hist, size_hist = profiles(h)
    stats = {
        "input": args.input,
        "n": h.n,
        "edges": len(h.edges),
        "m_by_size": {str(r): c for r, c in sorted(size_hist.items())},
        "duplicate_edges_dropped": parsed.duplicate_edges,
        "oversize_edges_dropped": parsed.dropped_oversize,
        "max_edge_size": args.max_edge_size,
        "degree_histogram": {str(d): c for d, c in sorted(degree_hist.items())},
        "size_histogram": {str(r): c for r, c in sorted(size_hist.items())},
    }
    _write_json(stats, _out_path(args, "stats.json"))
    _write_json(parsed.token_to_id, _out_path(args, "vertexmap.json"))
    write_edge_list(h, _out_path(args, "ingested.edges"))
    if parsed.duplicate_edges:
        print(
            f"warning: dropped {parsed.duplicate_edges} duplicate edge lines",
            file=sys.stderr,
        )
    print(json.dumps(stats))
    return 0


def cmd_generate(args) -> int:
    p, counts = _sequence(args, args.n)
    files = []
    for i in range(args.samples):
        seed_i = args.seed + i
        name = f"sample_{i:04d}.edges"
        h = sample(args.n, p, seed_i)
        write_edge_list(h, _out_path(args, name))
        files.append({"file": name, "seed": seed_i, "edges": len(h.edges)})
    manifest = {
        "n": args.n,
        "counts": {str(r): m for r, m in sorted(counts.items())} if counts else None,
        "probabilities": json.loads(p.to_json()),
        "seed": args.seed,
        "samples": args.samples,
        "files": files,
    }
    _write_json(manifest, _out_path(args, "manifest.json"))
    print(json.dumps({"samples": args.samples, "out": args.out}))
    return 0


def cmd_thresholds(args) -> int:
    if args.induced and args.mode != "strong":
        raise InputError(f"--induced applies to --mode strong only, got --mode {args.mode}")
    p, _ = _sequence(args, None)
    pattern = read_edge_list(args.pattern).hypergraph
    if args.induced:
        v = classify_strong(pattern, p, induced=True)
    else:
        v = _CLASSIFIERS[args.mode](pattern, p)
    doc = _verdict_dict(args.pattern, args.mode, v)
    if args.out:
        _write_json(doc, _out_path(args, "verdict.json"))
    print(json.dumps(doc))
    return 0


def cmd_census(args) -> int:
    parsed = read_edge_list(args.input, max_edge_size=args.max_edge_size)
    h = parsed.hypergraph
    n_theory = args.n if args.n is not None else h.n
    p, _ = _sequence(args, n_theory)
    report = census(h, args.k, p, n=n_theory, cap=args.clique_cap)
    write_census_json(report, _out_path(args, "census.json"))
    if args.format == "csv":
        write_census_csv(
            report,
            _out_path(args, "census_theory.csv"),
            _out_path(args, "census_observed.csv"),
        )
    write_scatter_csv(report, _out_path(args, "scatter.csv"))
    print(
        json.dumps(
            {
                "k": report.k,
                "total_cliques": report.total_cliques,
                "observed_signatures": len(report.rows),
                "spearman": report.spearman,
            }
        )
    )
    return 0


def cmd_origination(args) -> int:
    p, _ = _sequence(args, args.n)
    table = origination_distribution(args.k, p, args.n, weight_mode=args.weight_mode)
    ranks = rank_signatures(table)
    if args.format == "csv":
        write_origination_csv(table, _out_path(args, "origination.csv"))
    doc = {
        "k": table.k,
        "n": table.n,
        "weight_mode": table.weight_mode,
        "entries": [
            {
                "signature": list(sig),
                "weight": table.entries[sig][0],
                "probability": table.entries[sig][1],
                "rank": rank,
            }
            for sig, rank in ranks
        ],
    }
    _write_json(doc, _out_path(args, "origination.json"))
    print(json.dumps(doc["entries"][:5]))
    return 0


def _clustering_worker(task) -> Tuple[float, int]:
    n, p, seed = task
    h = sample(n, p, seed)
    rep = clustering_report(h)
    return rep["hc_global"], rep["n_intersecting_pairs"]


def cmd_clustering(args) -> int:
    if args.input:
        model_flags = ("n", "counts", "probs", "samples", "seed", "parallel")
        given = [f"--{name}" for name in model_flags if getattr(args, name) is not None]
        if given:
            raise InputError(f"--input takes no model flags, got {' '.join(given)}")
        parsed = read_edge_list(args.input, max_edge_size=args.max_edge_size)
        doc = clustering_report(parsed.hypergraph)
    else:
        if args.max_edge_size is not None:
            raise InputError("--max-edge-size applies to --input only")
        if args.samples is None or args.seed is None:
            raise InputError("model clustering requires --samples and --seed")
        if args.n is None:
            raise InputError("model clustering requires --n")
        p, _ = _sequence(args, args.n)
        tasks = [(args.n, p, args.seed + i) for i in range(args.samples)]
        results = _pmap(_clustering_worker, tasks, args.parallel)
        values = [hc for hc, _ in results]
        doc = {
            "n": args.n,
            "samples": args.samples,
            "seed": args.seed,
            "hc_global_mean": statistics.fmean(values),
            "hc_global_stdev": statistics.stdev(values) if len(values) > 1 else 0.0,
            "per_sample": [
                {"seed": args.seed + i, "hc_global": hc, "n_intersecting_pairs": np_}
                for i, (hc, np_) in enumerate(results)
            ],
        }
    _write_json(doc, _out_path(args, "clustering.json"))
    print(json.dumps({k: v for k, v in doc.items() if not isinstance(v, list)}))
    return 0


def _mc_worker(task) -> bool:
    pattern, n, p, seed, weak = task
    h = sample(n, p, seed)
    finder = find_weak_copies if weak else find_strong_copies
    return bool(finder(pattern, h, mode="exists"))


def cmd_mc_threshold(args) -> int:
    if args.n < 1:
        raise InputError(f"--n must be >= 1 to sample hosts, got {args.n}")
    pattern = read_edge_list(args.pattern).hypergraph
    p, _ = _sequence(args, args.n)
    symbolic = None
    if not p.is_numeric:
        v = _CLASSIFIERS[args.mode](pattern, p)
        symbolic = {"verdict": v.outcome, "exponent": _exponent_str(v.exponent)}
        p = p.at(args.n)
    tasks = [
        (pattern, args.n, p, args.seed + i, args.mode == "weak")
        for i in range(args.trials)
    ]
    hits = _pmap(_mc_worker, tasks, args.parallel)
    freq = sum(hits) / len(hits)
    low, high = _wilson_interval(sum(hits), len(hits))
    doc = {
        "pattern": args.pattern,
        "mode": args.mode,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "presence_frequency": freq,
        "presence_wilson_95": {"low": low, "high": high},
        "symbolic": symbolic,
    }
    if args.out:
        _write_json(doc, _out_path(args, "mc_threshold.json"))
    print(json.dumps(doc))
    return 0


# -- parser ------------------------------------------------------------------


def _int_at_least(lo: int):
    """argparse type: an int that is at least lo, else a usage error."""

    def parse(value: str) -> int:
        v = int(value)
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {v}")
        return v

    parse.__name__ = "int"  # argparse names the type in its bad-value message
    return parse


def _add_common(sp, *, seed=False, fmt=False, max_edge=False) -> None:
    sp.add_argument("--out", default=".", help="output directory")
    if seed:
        sp.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    if fmt:
        sp.add_argument("--format", choices=("csv", "json"), default="json")
    if max_edge:
        sp.add_argument(
            "--max-edge-size",
            type=_int_at_least(2),
            default=None,
            help="drop larger edges (must be >= 2)",
        )


def _add_sequence(sp, kind: str) -> None:
    """Register the _SEQUENCE_FLAGS[kind] of a subcommand needing a `kind`
    sequence, as one group of which at most one flag can be given."""
    helps = {
        "--counts": "expected edge counts, e.g. 2=5975,3=2128",
        "--powerlaw": "e.g. 2=3/4,3=5/2 (alpha per size)",
        "--probs": "ProbSequence JSON file",
    }
    group = sp.add_mutually_exclusive_group()
    for flag in _SEQUENCE_FLAGS[kind]:
        group.add_argument(flag, help=helps[flag])
    sp.set_defaults(counts=None, powerlaw=None, probs=None, sequence_kind=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnp", description="Non-uniform random hypergraph toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="parse an edge-list file, write stats")
    sp.add_argument("--input", required=True)
    _add_common(sp, max_edge=True)
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("generate", help="sample model hypergraphs to files")
    sp.add_argument("--n", type=_int_at_least(0), required=True)
    _add_sequence(sp, "numeric")
    sp.add_argument("--samples", type=_int_at_least(0), default=1)
    _add_common(sp, seed=True)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("thresholds", help="asymptotic containment verdict")
    sp.add_argument("--pattern", required=True, help="pattern edge-list file")
    _add_sequence(sp, "power-law")
    sp.add_argument("--mode", choices=tuple(_CLASSIFIERS), default="strong")
    sp.add_argument(
        "--induced",
        action="store_true",
        help="strong verdict as induced (needs p_r < 1; --mode strong only)",
    )
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_thresholds)

    sp = sub.add_parser("census", help="K_k census of an edge-list file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--k", type=int, required=True)
    _add_sequence(sp, "numeric")
    sp.add_argument("--n", type=_int_at_least(0), default=None, help="theory n (default: input n)")
    sp.add_argument("--clique-cap", type=_int_at_least(0), default=100_000_000)
    _add_common(sp, fmt=True, max_edge=True)
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("origination", help="theoretical signature distribution")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=_int_at_least(0), required=True)
    _add_sequence(sp, "numeric")
    sp.add_argument("--weight-mode", choices=("labelled", "aut"), default="labelled")
    _add_common(sp, fmt=True)
    sp.set_defaults(func=cmd_origination)

    sp = sub.add_parser("clustering", help="extra-overlap clustering coefficients")
    sp.add_argument("--input", help="edge-list file (else model mode)")
    sp.add_argument("--n", type=_int_at_least(0), default=None)
    _add_sequence(sp, "numeric")
    sp.add_argument("--samples", type=_int_at_least(1), default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--parallel", type=_int_at_least(1), default=None, help="worker cap")
    _add_common(sp, max_edge=True)
    sp.set_defaults(func=cmd_clustering)

    sp = sub.add_parser("mc-threshold", help="Monte Carlo presence frequency")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--mode", choices=("strong", "weak"), default="strong")
    sp.add_argument("--n", type=_int_at_least(0), required=True)
    sp.add_argument("--trials", type=_int_at_least(1), required=True)
    _add_sequence(sp, "any")
    sp.add_argument("--out", default=None)
    sp.add_argument("--parallel", type=_int_at_least(1), default=None, help="worker cap")
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=cmd_mc_threshold)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
