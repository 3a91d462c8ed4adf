"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload orbit_statistics --seed 1 \
        --seconds 30 --trace 0

Every run starts fresh interpreters: SETUP_PROBES that only set up, then
worker.py, which sets up the same way and runs the workload's configs in
passes for about --seconds.  setup_s is the median set-up time of all of
them, measured from process start to the first op being ready; wall_s is
the median pass time; peak_rss_mb is the worker's maximum RSS.  With
--trace 1 the worker ends with one traced pass and the per-layer metrics
are printed instead.

Stdout ends with one JSON line: correct, attempted, failed and metrics.  An
op fails if it raises, misses a threshold declared in its config, fails an
output or certificate check, writes a CSV that differs from another pass or
run at the same seed, or (at the reference seed) moves away from
reference.json by more than its stated tolerance.  Runs are appended to
_out/results.jsonl with their metadata; compare.py reads them.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8
DEADLINE_S = 170.0


def _worker(args, budget):
    """Runs worker.py in a fresh interpreter; returns (start, result)."""
    # one client, no worker threads: keep numerical libraries single-threaded;
    # a fixed hash seed gives every run the same dict and set layouts
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, timeout=max(budget, 1.0))
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def _close(got, want, rtol, atol):
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _close(got[k], want[k], rtol, atol) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _close(g, w, rtol, atol) for g, w in zip(got, want))
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=rtol, abs_tol=atol)
    return got == want and type(got) is type(want)


def reference_mismatches(workload, seed, ops):
    """Indices of ops that differ from reference.json beyond tolerance."""
    ref = json.loads(REFERENCE.read_text())
    want = ref["workloads"].get(workload)
    if seed != ref["seed"] or want is None:
        return []
    if len(ops) != len(want):
        return list(range(len(ops)))
    return [i for i, (g, w) in enumerate(zip(ops, want))
            if not _close(g, w, ref["rtol"], ref["atol"])]


def record_reference(workload, ops):
    ref = json.loads(REFERENCE.read_text())
    ref["workloads"][workload] = ops
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as the reference "
                             "(only at the reference seed)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qdlab" / "__init__.py").is_file():
        print(f"run.py: no qdlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record_reference and \
            args.seed != json.loads(REFERENCE.read_text())["seed"]:
        print("run.py: record the reference at its seed", file=sys.stderr)
        return 2

    begin = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        start, probe = _worker(common + ["--setup-only"], DEADLINE_S)
        setups.append(probe["ready"] - start)
    budget = DEADLINE_S - (time.monotonic() - begin)
    start, res = _worker(common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], budget)
    setups.append(res["ready"] - start)

    mismatched = [] if args.record_reference else \
        reference_mismatches(args.workload, args.seed, res["ops"])
    problems = res["problems"] + [f"op {i} differs from reference.json"
                                  for i in mismatched]
    failed = min(res["failed"] + len(mismatched), res["attempted"])
    if args.trace:
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        values = res["per_layer"]
    else:
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
        values = {"wall_s": statistics.median(res["walls"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
    result = {"correct": failed == 0, "attempted": res["attempted"],
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}

    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"meta": res["meta"], "trace": args.trace,
                             "walls": res["walls"], "setups": setups,
                             "op_seconds": res["op_seconds"],
                             "problems": problems, "result": result}) + "\n")
    if args.record_reference:
        record_reference(args.workload, res["ops"])
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    print("meta " + json.dumps(res["meta"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
