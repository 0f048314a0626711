"""One benchmark process: set up a workload, run timed passes, check outputs.

Started by run.py as a fresh single-threaded interpreter with PYTHONPATH
pointing at the checkout's src/ and HNP_CACHE_DIR at a private, initially
empty directory. It prints "ready" once set-up is done (the parent times
fresh-interpreter-to-ready) and, as its last line, a JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from reference import reference  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="run further whole passes while they fit in this budget")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="trace hnp calls and append the spans to this file")
    ap.add_argument("--label", default="p", help="process tag in span run ids")
    args = ap.parse_args()

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer(args.label)
        tracing.install(tracer)
    import workloads

    setup, run_pass = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed, args.workdir)
    print("ready", flush=True)
    setup_reference_s = reference()

    golden = workloads.load_golden().get(args.workload)
    passes = []
    if not args.setup_only:
        if tracer is not None:
            tracer.phase = "pass"
        start = time.perf_counter()
        while True:
            run = workloads.Pass(args.seed, golden)
            passes.append(run)
            try:
                run_pass(run, inputs)
            except Exception as exc:  # a raising item is a failed item, not a crashed run
                traceback.print_exc()
                run.attempted += 1
                run.failures.append(f"raised {type(exc).__name__}")
                break
            run.finish()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
    if tracer is not None:
        tracer.write(args.spans)

    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_reference_s": setup_reference_s,
        "passes": [
            {
                "complete": run.complete,
                "wall_s": run.wall_s(),
                "stage_s": dict(run.stage_s),
                "counts": dict(run.counts),
                "samples": dict(run.samples),
                "attempted": run.attempted,
                "failures": run.failures,
                "digests": run.digests,
                "reference_s": run.reference_s,
            }
            for run in passes
        ],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
