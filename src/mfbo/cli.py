"""Command line entry point.

    mfbo run --config FILE          run an experiment described by a config file
    mfbo bench --problem NAME ...   run a benchmark with inline options
    mfbo verify                     run the acceptance checks and print a table

Exit codes: 0 success, 1 runtime failure (a run or check failed), 2 usage
error (bad flags, unknown problem or policy, malformed config).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .benchmarks import PROBLEM_NAMES
from .harness import ConfigError, ExperimentConfig, parse_names, run_experiment
from .policy import POLICY_NAMES, SUBROUTINES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbo", description="budgeted multi-fidelity Bayesian optimization benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True, help="path to the config file")
    run_p.add_argument("--out", default=None, help="override the output directory")

    # bench flags have no defaults of their own: a flag left out is absent
    # from the namespace, so ExperimentConfig's default applies
    bench_p = sub.add_parser("bench", help="run a benchmark with inline options",
                             argument_default=argparse.SUPPRESS)
    bench_p.add_argument("--problem", required=True, help="one of: %s" % ", ".join(PROBLEM_NAMES))
    bench_p.add_argument("--budget-mult", type=float,
                         help="budget as a multiple of the target query cost")
    bench_p.add_argument("--seeds", dest="n_seeds", type=int, help="number of repetitions")
    bench_p.add_argument("--master-seed", type=int)
    bench_p.add_argument("--noise", type=float,
                         help="noise sd as a fraction of each fidelity's range")
    bench_p.add_argument("--policies",
                         help="comma-separated subset of: %s" % ", ".join(POLICY_NAMES))
    bench_p.add_argument("--subroutine", choices=SUBROUTINES)
    bench_p.add_argument("--candidates", dest="n_candidates", type=int,
                         help="candidate pool size (default scales with dimension)")
    bench_p.add_argument("--hyperfit-every", type=int)
    bench_p.add_argument("--out", default=None, help="output directory (default results/<problem>)")

    sub.add_parser("verify", help="run the acceptance checks")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    kwargs = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    if "policies" in kwargs:
        kwargs["policies"] = parse_names(kwargs["policies"])
    out = args.out if args.out is not None else "results/%s" % args.problem
    return ExperimentConfig(out_dir=out, **kwargs)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        from .verify import run_all

        return 0 if run_all(print) else 1

    try:
        if args.command == "run":
            cfg = ExperimentConfig.from_file(args.config)
            if args.out is not None:
                cfg = dataclasses.replace(cfg, out_dir=args.out)
        else:
            cfg = _config_from_args(args)
    except (ConfigError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    result = run_experiment(cfg, log=lambda s: print(s, file=sys.stderr))
    print("budget %.12g over %d seed(s), outputs in %s" % (
        result.budget, cfg.n_seeds, result.traces_path.rsplit("/", 1)[0]))
    for row in _final_rows(result):
        print("%-22s final mean simple regret %.6g (n=%d)" % row)
    if result.n_failed:
        print("error: %d run(s) failed" % result.n_failed, file=sys.stderr)
        return 1
    return 0


def _final_rows(result):
    return [(r[0], r[2], r[4]) for r in result.summary if r[1] == result.budget]


if __name__ == "__main__":
    sys.exit(main())
