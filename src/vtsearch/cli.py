"""Command-line entry point for the experiment runner.

Each subcommand builds an ExperimentConfig and runs it.  Exit status 0
means every record passed its checks, 1 that a record failed, and 2 that
the arguments were invalid (argparse's usage error; nothing ran).
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import OUTPUT_FORMATS, ExperimentConfig, run_experiment
from .instances import REGIMES

_KIND_OF = {
    "grover": "grover-weights",
    "simple-loop": "simple-loop",
    "general-loop": "general-loop",
    "bounds": "bounds-compare",
    "suite": "full-suite",
}


# list flags and the ExperimentConfig fields they fill; a repeated flag
# extends the list, and a flag left out keeps the config's default
_LIST_FIELDS = {"n": "n_list", "steps": "t_list", "workspace": "z_list",
                "regimes": "regimes", "format": "formats"}


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--seed", type=int, default=0,
                     help="base seed for the PCG64 generator")
    sub.add_argument("--num-seeds", type=int, default=10,
                     help="number of seeded repetitions where applicable")
    sub.add_argument("--n", type=int, nargs="+", action="extend", metavar="N",
                     help="domain sizes to sweep (default: 4 16)")
    sub.add_argument("--steps", type=int, nargs="+", action="extend",
                     help="subroutine step counts to sweep (default: 2 4)")
    sub.add_argument("--workspace", type=int, nargs="+", action="extend",
                     help="workspace sizes to sweep (default: 2 4)")
    sub.add_argument("--regimes", nargs="+", action="extend",
                     choices=list(REGIMES), metavar="REGIME",
                     help="weight regimes to exercise (default: all)")
    sub.add_argument("--out", default=None,
                     help="directory to write records and tables into")
    sub.add_argument("--format", nargs="+", action="extend",
                     choices=list(OUTPUT_FORMATS),
                     help="output formats (with --out; default: json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtsearch",
        description="Exact desk-scale experiments on variable-time search "
                    "compositions.")
    subs = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "grover": "query-weight accounting for the amplitude-rotation loop",
        "simple-loop": "unit-cost query loop instances with witness checks",
        "general-loop": "variable-time query loop instances across regimes",
        "bounds": "cost-bound comparison tables on random profiles",
        "suite": "all of the above with one config",
    }
    for name, kind in _KIND_OF.items():
        sub = subs.add_parser(name, help=descriptions[name])
        _add_common(sub)
        sub.set_defaults(kind=kind)
    return parser


def config_from_args(argv=None) -> ExperimentConfig:
    """The config the arguments describe; invalid values exit 2 via parser.error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    lists = {field: tuple(getattr(args, flag))
             for flag, field in _LIST_FIELDS.items()
             if getattr(args, flag) is not None}
    try:
        return ExperimentConfig(kind=args.kind, seed=args.seed,
                                num_seeds=args.num_seeds,
                                output_dir=args.out, **lists)
    except ValueError as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    config = config_from_args(argv)
    results = run_experiment(config)
    failures = [r for r in results.records if not r["passed"]]
    print(json.dumps({
        "kind": config.kind,
        "config_digest": config.digest(),
        "records": len(results.records),
        "failures": len(failures),
        "wall_time_s": round(results.wall_time_s, 3),
        "passed": results.passed,
    }, sort_keys=True))
    for record in failures:
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return 0 if results.passed else 1


if __name__ == "__main__":
    sys.exit(main())
