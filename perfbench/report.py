"""Run a workload untraced and then traced, and print every metric.

    python3 perfbench/report.py --workload NAME --seed N [--seconds S]

Prints each end-to-end metric (scaled and as measured, with the
workload-specific rates), then each per-layer metric, by name with its
unit and sample count, then the traced pass's span self times. The spans file stays under .perfbench/. Exits 1 when an
output check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import tracing


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in run.BENCHMARK["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=run.BENCHMARK["run_seconds"])
    args = ap.parse_args()
    run.require_checkout()

    untraced = run.run(args.workload, args.seed, args.seconds, trace=False)
    print("# end-to-end, untraced")
    run.print_table(untraced)
    traced = run.run(args.workload, args.seed, args.seconds, trace=True)
    print("# per-layer, traced")
    run.print_table(traced)

    with open(traced["spans"], "r", encoding="utf-8") as fh:
        spans = [s for s in map(json.loads, fh) if s["run"] == "traced/pass"]
    print("# spans of the traced pass")
    print(f"{'name':60s} {'calls':>8s} {'total s':>10s} {'self s':>10s}")
    for name, (calls, total, own) in sorted(tracing.self_times(spans).items()):
        print(f"{name:60s} {calls:8d} {total:10.4f} {own:10.4f}")
    return 0 if untraced["correct"] and traced["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
