"""Compares two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines run.py appends to _out/results.jsonl.  For every
workload and metric it prints the median and quartiles of each side and the
change of the medians as a share of the base median.  Runs whose backend
differs are not comparable, so any backend mismatch is refused.
"""

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    runs = defaultdict(lambda: defaultdict(list))
    backends = set()
    with open(path) as fh:
        for line in fh:
            run = json.loads(line)
            backends.add(run["meta"]["backend"])
            for name, metric in run["result"]["metrics"].items():
                runs[run["meta"]["workload"]][name].append(metric["value"])
    return runs, backends


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_backends), (new, new_backends) = load(argv[0]), load(argv[1])
    if len(base_backends | new_backends) != 1:
        print(f"refusing to compare backends {sorted(base_backends)} and "
              f"{sorted(new_backends)}", file=sys.stderr)
        return 2
    print(f"{'workload':20} {'metric':48} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'change':>8}")
    for workload in sorted(base.keys() & new.keys()):
        for name in sorted(base[workload].keys() & new[workload].keys()):
            b = quartiles(base[workload][name])
            n = quartiles(new[workload][name])
            change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
            print(f"{workload:20} {name:48} "
                  f"{'/'.join(f'{v:.4g}' for v in b):>32} "
                  f"{'/'.join(f'{v:.4g}' for v in n):>32} {change:>+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
