"""Command-line driver: run experiment configs and the acceptance suite.

Exit codes: 0 on success, 1 when a criterion or declared threshold fails,
2 on config errors.
"""

import argparse
import json
import sys

from .acceptance import acceptance_suite
from .experiments import ConfigError, EXPERIMENT_KINDS, load_config, \
    run_experiment


def _cmd_run(args):
    try:
        config = load_config(args.config)
        record = run_experiment(config)
    except (ConfigError, OSError) as exc:
        # an unreadable config (missing, a directory, no permission) is a
        # config error too; exit 1 is kept for failed thresholds
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "digest": record.digest,
        "rows": len(record.rows),
        "summary": record.summary,
        "passed": record.passed,
        "wall_time": round(record.wall_time, 3),
        "output": record.output,
    }, sort_keys=True))
    return 0 if record.passed else 1


def _cmd_accept(_args):
    return acceptance_suite()


def _cmd_list(_args):
    for kind, desc in sorted(EXPERIMENT_KINDS.items()):
        print(f"{kind}: {desc}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qdlab",
        description="numerical experiments for torus dynamics, cocycles, "
                    "and wavepacket transport")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("config", help="path to the config file")
    p_run.set_defaults(func=_cmd_run)
    p_acc = sub.add_parser("accept", help="run the acceptance suite")
    p_acc.set_defaults(func=_cmd_accept)
    p_list = sub.add_parser("list-experiments",
                            help="list available experiment kinds")
    p_list.set_defaults(func=_cmd_list)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
