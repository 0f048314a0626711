"""hnp benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every process runs sequentially and
single-threaded, with PYTHONPATH=src and a private HNP_CACHE_DIR under
.perfbench/ (removed at exit), so ~/.cache/hnp is never read or written.

--trace 0: SETUP_PROBES set-up-only processes and one measuring process,
each on its own empty cache dir. setup_s is the median fresh-interpreter-
to-ready time; the measuring process runs whole passes for --seconds.
--trace 1: one untraced pass, one traced pass on a fresh cache dir, then a
traced set-up on that same dir (the cache read path). Spans go to
.perfbench/spans-<workload>-seed<seed>.jsonl.

Prints a table of every metric with its unit and sample count, then, as
the last line, the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4
TIMEOUT_S = 170

sys.path.insert(0, HERE)
import tracing  # noqa: E402
from reference import NOMINAL_S  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


class Runner:
    """Starts worker processes one at a time, each on a fresh cache dir
    (unless given one), inside a private scratch dir under the checkout."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench"))
        self.deadline = time.monotonic() + TIMEOUT_S

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.scratch)

    def worker(self, *extra: str, cache_dir: str | None = None, seconds: float = 0.0):
        """Run one worker; returns (fresh-interpreter-to-ready seconds, result)."""
        cache_dir = cache_dir or self.fresh_dir()
        env = dict(os.environ)
        env.update(
            PYTHONPATH=os.path.join(ROOT, "src"),
            HNP_CACHE_DIR=cache_dir,
            XDG_CACHE_HOME=cache_dir,
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", str(seconds), "--workdir", self.fresh_dir(), *extra]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        try:
            # read the ready line unbuffered, so communicate() sees the rest
            first = b""
            while not first.endswith(b"\n"):
                remaining = self.deadline - time.monotonic()
                if not select.select([proc.stdout], [], [], max(0.0, remaining))[0]:
                    raise TimeoutError(f"worker {' '.join(extra)} not ready in time")
                byte = os.read(proc.stdout.fileno(), 1)
                if not byte:
                    break
                first += byte
            ready_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if first != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"worker {' '.join(extra)} failed with code {proc.returncode}")
        return ready_s, json.loads(rest.decode().strip().splitlines()[-1])


def _metric(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def _scale(p: dict) -> float:
    """Factor taking a pass's measured times to the reference's nominal
    speed (see reference.py)."""
    return NOMINAL_S / statistics.mean(p["reference_s"])


def _scaled_wall(p: dict) -> float:
    return p["wall_s"] * _scale(p)


def end_to_end(workload: str, setups: list, result: dict) -> dict:
    """Gated times are scaled to the reference's nominal speed; the
    *_raw_s values and workload-specific rates are as measured."""
    passes = [p for p in result["passes"] if p["complete"]]
    if not passes:
        failures = [f for p in result["passes"] for f in p["failures"]]
        raise RuntimeError(f"no pass completed; failed items: {failures}")
    n = len(passes)

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    stage, count = ("mc", "trials") if workload == "threshold_mc" else ("census", "cliques")
    m = {
        "setup_s": _metric(statistics.median(s * NOMINAL_S / r for s, r in setups), "s", len(setups)),
        "wall_s": _metric(med(_scaled_wall), "s", n),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB", 1),
        "throughput_per_s": _metric(
            med(lambda p: p["counts"][count] / (p["stage_s"][stage] * _scale(p))), "1/s", n),
        "setup_raw_s": _metric(statistics.median(s for s, _ in setups), "s", len(setups)),
        "wall_raw_s": _metric(med(lambda p: p["wall_s"]), "s", n),
        "reference_s": _metric(statistics.median(r for p in passes for r in p["reference_s"]), "s",
                               sum(len(p["reference_s"]) for p in passes)),
    }
    if workload == "threshold_mc":
        trials = [t for p in passes for t in p["samples"]["trial_s"]]
        m.update(
            mc_trials_per_s=_metric(med(lambda p: p["counts"]["trials"] / p["stage_s"]["mc"]), "1/s", n),
            mc_trial_s_p50=_metric(statistics.median(trials), "s", len(trials)),
            mc_trial_s_p90=_metric(statistics.quantiles(trials, n=10)[-1], "s", len(trials)),
            verdicts_per_s=_metric(med(lambda p: p["counts"]["verdicts"] / p["stage_s"]["classify"]), "1/s", n),
        )
    else:
        m.update(
            census_cliques_per_s=_metric(med(lambda p: p["counts"]["cliques"] / p["stage_s"]["census"]), "1/s", n),
            clustering_pairs_per_s=_metric(med(lambda p: p["counts"]["pairs"] / p["stage_s"]["clustering"]), "1/s", n),
        )
    return m


def run_untraced(r: Runner, seconds: float):
    probes = [r.worker("--setup-only") for _ in range(SETUP_PROBES)]
    main = r.worker(seconds=seconds)
    setups = [(ready_s, res["setup_reference_s"]) for ready_s, res in probes + [main]]
    return end_to_end(r.workload, setups, main[1]), main[1]["passes"]


def run_traced(r: Runner):
    spans_path = os.path.join(ROOT, ".perfbench", f"spans-{r.workload}-seed{r.seed}.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    _, untraced = r.worker()
    cache = r.fresh_dir()
    _, traced = r.worker("--spans", spans_path, "--label", "traced", cache_dir=cache)
    r.worker("--spans", spans_path, "--label", "reread", "--setup-only", cache_dir=cache)
    with open(spans_path, "r", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    by_run = {}
    for s in spans:
        by_run.setdefault(s["run"], []).append(s)

    def weights(run):
        return sum(tracing.duration(s) for s in by_run.get(run, [])
                   if s["name"] == "signatures.signature_weights")

    values = tracing.layer_metrics(by_run.get("traced/pass", []))
    values["signatures.weights_cold_s"] = weights("traced/setup")
    values["signatures.weights_disk_s"] = weights("reread/setup")
    values["trace.overhead_s"] = _scaled_wall(traced["passes"][0]) - _scaled_wall(untraced["passes"][0])
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = {name: _metric(values[name], units[name], 1) for name in units}
    return metrics, untraced["passes"] + traced["passes"], spans_path


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result with sample counts kept."""
    r = Runner(workload, seed)
    try:
        if trace:
            metrics, passes, spans_path = run_traced(r)
        else:
            metrics, passes = run_untraced(r, seconds)
            spans_path = None
    finally:
        r.close()
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    metrics["failed_ratio"] = _metric(len(failures) / attempted, "failed/attempted", attempted)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": sorted(set(failures)),
        "metrics": metrics,
        "spans": spans_path,
    }


def print_table(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']:<16s} n={m['n']}")
    if result["failures"]:
        print("failed items: " + ", ".join(result["failures"]))
    if result["spans"]:
        print(f"spans: {result['spans']}")


def require_checkout() -> None:
    """Exit with code 2 unless the hnp sources sit beside the benchmark."""
    if not os.path.isfile(os.path.join(ROOT, "src", "hnp", "__init__.py")):
        print(f"error: no hnp sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        sys.exit(2)


def main() -> int:
    # a terminated run still kills and reaps its worker in Runner.worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in BENCHMARK["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    require_checkout()

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(result)
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in BENCHMARK[section]]
    metrics = {k: {"value": result["metrics"][k]["value"], "unit": result["metrics"][k]["unit"]}
               for k in names}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
