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
from .harness import CONFIG_KEYS, ConfigError, ExperimentConfig, run_experiment
from .policy import POLICY_NAMES, SUBROUTINES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbo", description="budgeted multi-fidelity Bayesian optimization benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True, help="path to the config file")
    run_p.add_argument("--out", default=None, help="override the output directory")

    # each bench flag's dest is its config key: the flags given go through
    # ExperimentConfig.from_sections, as the keys of a config file do
    bench_p = sub.add_parser("bench", help="run a benchmark with inline options")
    bench_p.add_argument("--problem", required=True, help="one of: %s" % ", ".join(PROBLEM_NAMES))
    bench_p.add_argument("--budget-mult", help="budget as a multiple of the target query cost")
    bench_p.add_argument("--seeds", help="number of repetitions")
    bench_p.add_argument("--master-seed")
    bench_p.add_argument("--noise", help="noise sd as a fraction of each fidelity's range")
    bench_p.add_argument("--policies",
                         help="comma-separated subset of: %s" % ", ".join(POLICY_NAMES))
    bench_p.add_argument("--subroutine", help="one of: %s" % ", ".join(SUBROUTINES))
    bench_p.add_argument("--candidates",
                         help="candidate pool size (default scales with dimension)")
    bench_p.add_argument("--hyperfit-every")
    bench_p.add_argument("--out", help="output directory (default results/<problem>)")

    sub.add_parser("verify", help="run the acceptance checks")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    sections = {}
    for section, key in CONFIG_KEYS:
        if vars(args).get(key) is not None:
            sections.setdefault(section, {})[key] = vars(args)[key]
    sections[""].setdefault("out", "results/%s" % args.problem)
    return ExperimentConfig.from_sections(sections)


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
