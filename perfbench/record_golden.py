"""Record every item's output digest at the default seed into golden.json.

    python3 perfbench/record_golden.py

Run from the root of a checkout of the commit whose outputs are the
reference. Each workload runs one untraced pass in a fresh process; later
runs at the default seed fail any item whose digest differs.
"""

from __future__ import annotations

import json
import os
import sys

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for w in run.BENCHMARK["workloads"]:
        r = run.Runner(w["name"], workloads.DEFAULT_SEED)
        try:
            _, result = r.worker()
        finally:
            r.close()
        golden[w["name"]] = result["passes"][0]["digests"]
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
