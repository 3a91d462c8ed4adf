"""One benchmark process: set up, then run a workload's configs in passes.

Started by run.py in a fresh interpreter for every run, so set-up time
includes the imports.  One client runs the configs back to back through
``qdlab.experiments.run_experiment`` (a closed loop, no worker threads).
The last stdout line is a JSON object that run.py reads.

    python3 perfbench/worker.py --workload cocycle_scan --seed 1 \
        --seconds 30 --trace 0 [--setup-only]
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402


class SetupError(RuntimeError):
    pass


def import_qdlab():
    """Imports qdlab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qdlab" / "__init__.py").is_file():
        raise SetupError(f"no qdlab package under {src}")
    sys.path.insert(0, str(src))
    import qdlab
    import qdlab.experiments  # noqa: F401  (numpy, scipy, mpmath too)
    if Path(qdlab.__file__).resolve().parent != (src / "qdlab").resolve():
        raise SetupError(f"qdlab imported from {qdlab.__file__}")
    return qdlab


def setup(workload, seed, small=False):
    """Imports, generates and validates the configs; returns them."""
    import_qdlab()
    from qdlab.arithmetic import parse_frequency
    from qdlab.experiments import EXPERIMENT_KINDS

    # a JSON round trip, as configs read from files would have
    configs = json.loads(json.dumps(
        workloads.make_configs(workload, seed, small)))
    for cfg in configs:
        if cfg["experiment"] not in EXPERIMENT_KINDS:
            raise SetupError(f"unknown experiment {cfg['experiment']!r}")
        for tag in workloads.frequency_tags(cfg):
            parse_frequency(tag, bits=128)
    return configs


def run_pass(configs, outdir, tracer=None):
    """Runs every config once; returns (wall seconds, per-op results)."""
    from qdlab.experiments import run_experiment

    outdir.mkdir(parents=True, exist_ok=True)
    ops = []
    start = time.perf_counter()
    for i, cfg in enumerate(configs):
        kind = cfg["experiment"]
        cfg = dict(cfg, output=str(outdir / f"{i:02d}_{kind}.csv"))
        op_start = time.perf_counter()
        try:
            if tracer is None:
                record = run_experiment(cfg)
            else:
                record = tracer.call(f"experiments.{kind}", run_experiment,
                                     cfg)
        except Exception:
            ops.append({"experiment": kind,
                        "problems": [traceback.format_exc(limit=3)]})
            continue
        ops.append({"experiment": kind, "record": record,
                    "seconds": time.perf_counter() - op_start})
    wall = time.perf_counter() - start
    for op in ops:
        if "record" in op:
            _finish_op(op)
    return wall, ops


def _finish_op(op):
    record = op.pop("record")
    with open(record.output, "rb") as fh:
        op["digest"] = hashlib.sha256(fh.read()).hexdigest()
    op["summary"] = _plain(record.summary)
    op["rows"] = _plain(record.rows)
    op["problems"] = check_op(op["experiment"], record)


def _plain(value):
    """JSON-ready copy (tuples to lists, numpy scalars to Python)."""
    return json.loads(json.dumps(value, default=lambda o: o.item()))


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, float):
        yield value


def check_op(kind, record):
    """Output checks beyond the thresholds the runner already enforces."""
    problems = []
    if not record.passed:
        problems.append(f"{kind}: declared threshold failed {record.summary}")
    if not all(math.isfinite(v) for v in _numbers([record.rows,
                                                   record.summary])):
        problems.append(f"{kind}: non-finite output")
    if kind == "discrepancy_decay":
        for n, d_n, method, error_bound in record.rows:
            if not 0.0 < d_n <= 1.0:
                problems.append(f"D_{n} = {d_n} outside (0, 1]")
            if (method == "exact") != (error_bound == 0.0):
                problems.append(f"D_{n}: {method} with error bound "
                                f"{error_bound}")
    elif kind == "covering":
        for r, m_cover, _, certified in record.rows:
            if m_cover < 1 or certified != "yes":
                problems.append(f"r={r}: M={m_cover}, certified={certified}")
    return problems


def _stored_digests(workload, configs, digests):
    """Digests of an earlier run of these configs; stored on first use."""
    key = hashlib.sha256(json.dumps(configs).encode()).hexdigest()[:16]
    path = OUT / "digests" / f"{workload}-{key}.json"
    if path.is_file():
        return json.loads(path.read_text())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digests))
    return digests


def check_determinism(passes, stored):
    """Flags ops whose CSV differs from pass 0 or from an earlier run."""
    for ops in passes:
        for i, op in enumerate(ops):
            digest = op.get("digest")
            if digest is None:
                continue
            if digest != passes[0][i].get("digest") or (
                    i < len(stored) and digest != stored[i]):
                op["problems"].append(f"op {i}: CSV differs between runs")


def traced_metrics(tracer, traced_wall, untraced_walls, cpu_s):
    roots = {f"experiments.{k}" for k in metrics.EXPERIMENT_KINDS}
    layer_busy = sum(busy for (parent, _), (_, busy) in tracer.edges.items()
                     if parent in roots)
    tracer.counts["process.cpu_s"] = cpu_s
    tracer.counts["trace.overhead_s"] = \
        traced_wall - statistics.median(untraced_walls)
    tracer.counts["trace.layer_share"] = layer_busy / traced_wall
    return {name: metrics.layer_value(tracer, name)
            for name, _, _ in metrics.PER_LAYER}


def write_spans(tracer, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "spans": {name: {"calls": c, "busy_s": b, "self_s": s}
                  for name, (c, b, s) in sorted(tracer.stats.items())},
        "edges": [{"parent": p, "name": n, "calls": c, "busy_s": b}
                  for (p, n), (c, b) in sorted(
                      tracer.edges.items(), key=lambda kv: -kv[1][1])],
        "counts": dict(tracer.counts),
        "maxima": dict(tracer.maxima),
    }, indent=1))


def run_metadata(seed, workload):
    import numpy
    import scipy
    import qdlab

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qdlab").glob("*")):
        if path.suffix in (".py", ".pyx", ".c"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
            capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    return {"workload": workload, "seed": seed, "git_sha": git_sha,
            "src_sha256": digest.hexdigest(), "backend": qdlab.BACKEND,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def run_workload(workload, seed, seconds, trace):
    """Untraced passes (and one traced pass when trace); returns a dict."""
    configs = setup(workload, seed)
    ready = time.monotonic()
    tag = f"{workload}-{seed}"
    start = time.perf_counter()
    passes, walls = [], []
    # when tracing, keep room for the traced pass after the untraced ones
    room = 2 if trace else 1
    while True:
        wall, ops = run_pass(configs, OUT / "csv" / tag / f"pass{len(walls)}")
        walls.append(wall)
        passes.append(ops)
        elapsed = time.perf_counter() - start
        if elapsed + room * statistics.median(walls) > seconds:
            break
    per_layer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        cpu0 = time.process_time()
        try:
            wall, ops = run_pass(configs, OUT / "csv" / tag / "traced",
                                 tracer)
        finally:
            tracer.uninstall()
        cpu_s = time.process_time() - cpu0
        passes.append(ops)
        per_layer = traced_metrics(tracer, wall, walls, cpu_s)
        write_spans(tracer, OUT / "spans" / f"{tag}.json")
        if tracer.counts["transport.invalid_states"]:
            ops[0]["problems"].append("transport state failed certification")
        for name in metrics.EXERCISED[workload]:
            if not per_layer[name]:
                ops[0]["problems"].append(f"counter {name} read zero")

    check_determinism(passes, _stored_digests(
        workload, configs, [op.get("digest") for op in passes[0]]))
    problems = [p for ops in passes for op in ops for p in op["problems"]]
    return {
        "ready": ready,
        "walls": walls,
        "attempted": sum(len(ops) for ops in passes),
        "failed": sum(1 for ops in passes for op in ops if op["problems"]),
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "per_layer": per_layer,
        "ops": [{k: op.get(k) for k in ("experiment", "summary", "rows")}
                for op in passes[0]],
        "op_seconds": [[op.get("seconds") for op in ops] for ops in passes],
        "meta": run_metadata(seed, workload),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            setup(args.workload, args.seed)
            result = {"ready": time.monotonic()}
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except SetupError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
