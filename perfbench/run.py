"""mfbo benchmark: seeded policy comparisons, end to end or traced by layer.

    python3 perfbench/run.py --workload currin2_compare --seed 0 --seconds 20 --trace 0

--trace 0 sets the workload up several times in fresh processes, then
repeats the workload's calls (one `run_experiment`, plus the submodular
bound on hartmann6_explore) until --seconds have passed, and reports the
end-to-end metrics named in BENCHMARK.json. --trace 1 runs the calls
untraced, traced, then untraced again and reports the per-layer metrics;
--seconds does not apply to it. Every repetition's outputs are checked. The last line of
stdout is one JSON object; the lines before it are a readable report. The
process exits 1 if any check fails. Run outputs, spans and a full result
record go to perfbench/_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import mfbo and build the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
    return times


def environment(cfg) -> dict:
    """What the result depends on, as found; none of it is set here."""
    import numpy as np
    import scipy
    from mfbo import covops, harness

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    count = getattr(harness, "_worker_count", None)
    backend = getattr(covops, "active_backend", None)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name", "unknown"), blas.get("version", "")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MFBO_THREADS": os.environ.get("MFBO_THREADS"),
        "harness_workers": count(cfg) if count else None,
        "covops_backend": backend() if backend else None,
        "git_commit": commit,
    }


def final_regrets(summary_path, budget: float) -> dict:
    """Seed-mean final simple regret per policy, read from summary.csv."""
    out = {}
    with open(summary_path) as fh:
        next(fh)
        for line in fh:
            pol, cost, mean = line.strip().split(",")[:3]
            if abs(float(cost) - budget) <= 1e-9 * budget:
                out[pol] = float(mean)
    return out


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_times = measure_setup(args.workload, args.seed) if not args.trace else []

    import workloads as wl  # first: puts the checkout's src on sys.path
    import checks as ck

    w = wl.WORKLOADS[args.workload]
    out_root = fresh_dir(HERE / "_out" / w.name)
    problem, candidates = wl.build(w, args.seed)
    env = environment(wl.experiment_config(w, args.seed, out_root))
    print("# perfbench %s seed=%d seconds=%g trace=%d" % (w.name, args.seed, args.seconds, args.trace))
    print("# env " + json.dumps(env, sort_keys=True))

    checks = ck.Checks()
    rounds = []
    reference = None

    def one_round(tag):
        nonlocal reference
        out = fresh_dir(out_root / tag)
        r = wl.run_round(w, args.seed, problem, candidates, out)
        ck.check_runs(checks, r.result.outcomes, r.result.f_star)
        if w.gamma_bound:
            ck.check_bound(checks, r.result.outcomes, r.bound)
        hashes = ck.csv_hashes(out)
        if reference is None:
            reference = hashes
        else:
            ck.check_hashes(checks, reference, hashes)
        rounds.append(r)
        print("# %-8s wall %.3f s  cpu %.3f s  runs %.3f s%s" % (
            tag, r.wall, r.cpu, r.runs_wall,
            "  bound %.4f at beta %.6f" % (r.bound, r.beta) if r.bound is not None else ""))
        return r

    report = {}
    if args.trace:
        from layers import install, layer_metrics
        from tracer import Tracer

        # the first round in a process pays a warm-up of several percent, so
        # the overhead compares the traced round with a later untraced one
        one_round("cold")
        tracer = Tracer()
        install(tracer)
        try:
            traced = one_round("traced")
        finally:
            tracer.restore()
        plain = one_round("untraced")
        tracer.write_spans(out_root / "spans.csv")
        if tracer.missing:
            print("# not traced (name not found): " + ", ".join(tracer.missing))
        regrets = final_regrets(out_root / "traced" / "summary.csv", traced.result.budget)
        csv_bytes = sum(os.path.getsize(out_root / "traced" / n) for n in ck.CSV_NAMES)
        values = layer_metrics(
            tracer, traced.result.outcomes, traced.runs_wall,
            traced.wall / plain.wall - 1.0, csv_bytes, regrets,
        )
        wanted = spec["per_layer"]
    else:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            one_round("round%d" % (len(rounds) + 1))
        regrets = final_regrets(out_root / "round1" / "summary.csv", rounds[0].result.budget)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r.wall for r in rounds),
            "cpu_s": statistics.median(r.cpu for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
        # printed alongside but not bounded: failures are the result's own
        # fields, and regret varies too much from seed to seed
        report["failed_frac"] = (checks.failed / checks.attempted, "ratio")
        for pol in w.policies:
            report["regret." + pol] = (regrets.get(pol, float("nan")), "objective")
        report["setup_s.samples"] = (len(setup_times), "count")
        report["rounds"] = (len(rounds), "count")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit("metrics not computed: %s" % ", ".join(missing))
    report.update((m["name"], (values[m["name"]], m["unit"])) for m in wanted)
    for name, (value, unit) in report.items():
        print("# %-44s %14.6g %s" % (name, value, unit))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for what in checks.failures:
        print("# CHECK FAILED: " + what)
    print("# csv sha256 " + json.dumps(reference, sort_keys=True))

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=w.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, report=report, csv_sha256=reference,
                  check_failures=checks.failures, regrets=regrets)
    name = "result-seed%d-trace%d.json" % (args.seed, args.trace)
    (out_root / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
