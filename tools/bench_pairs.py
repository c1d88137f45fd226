"""Alternated parent/change pairs of the benchmark, written to BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --tag my_change \
        --workloads currin2_compare,borehole8_target --pairs 10 --seed 211

Each pair runs `perfbench/run.py --workload W --seed S --trace 0` once in
each checkout, the parent first in even pairs and the change first in odd
ones, so drift on a shared machine falls on both sides alike. Each checkout
runs its own perfbench and src, and run.py writes its outputs under that
checkout's perfbench/_out/. Per checkout, the record keeps the thread
count of each OpenBLAS its mfbo finds, outside and inside its
one_blas_thread() pin ("no pin" where mfbo.gp has none), read once in a
fresh process. It keeps every run (its end-to-end metrics, checks, CSV
hashes, the thread and BLAS environment run.py reports, the load average
when it started, and the wall and CPU time of each of its rounds, read
from run.py's `# roundN` lines) and, per workload and metric, each side's
median and quartiles and the change's wins, losses and ties over the
pairs. A gain holds when the change wins at least nine tenths of the
pairs and the medians lie further apart than the distance between the
parent's quartiles. A metric is within its bound (within_bound) when the
change's median is worse than the parent's by at most the metric's bound
in BENCHMARK.json, as a fraction of the parent's median: the rule a
change that claims no gain is held to. Per workload it also reports, for
wall and CPU time, each side's median over its runs of the run's fastest round, and the
change's wins over the pairs by that minimum, and each side's median
number of rounds per run, printed next to peak_rss_mb: run.py keeps every
round's results, so a side that fits more rounds in its seconds reads a
higher peak. Per workload it prints whether every run's CSV hashes
matched, or the first pair and side whose hashes differ from pair 1's
parent run. Exits 1 if any run failed a check or the CSV hashes differ
between runs of one workload. A run that prints no result or runs past
RUN_TIMEOUT_S ends the pairs: the record keeps the pairs finished so far
and, as failed_run, that run's workload, pair, side, checkout directory,
exit code (null for a timeout) and stderr tail, and the script exits 1.
The record is indented JSON with each run's rounds on one line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN_TIMEOUT_S = 900
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# run.py's report of one --trace 0 round: "# round3   wall 0.820 s  cpu 0.818 s ..."
ROUND_LINE = re.compile(r"# round\d+\s+wall (\S+) s\s+cpu (\S+) s")
# a run's rounds list as json.dumps(..., indent=1) spreads it; its rounds
# hold numbers only, so the first "]" closes it
ROUNDS_LIST = re.compile(r'"rounds": (\[[^\]]*\])')


class RunFailed(Exception):
    """A run that printed no result or ran past RUN_TIMEOUT_S."""

    def __init__(self, exit_code, stderr):
        if isinstance(stderr, bytes):  # what a timeout captured
            stderr = stderr.decode(errors="replace")
        self.exit_code = exit_code  # None: timed out
        self.stderr_tail = (stderr or "")[-2000:]
        what = ("timed out after %g s" % RUN_TIMEOUT_S if exit_code is None
                else "no result (exit %d)" % exit_code)
        super().__init__("%s\n%s" % (what, self.stderr_tail))


def run_once(checkout: Path, workload: str, seed: int, seconds) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    load = os.getloadavg()[0]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(None, exc.stderr) from None
    lines = proc.stdout.strip().splitlines()
    env = hashes = result = None
    rounds = []
    for line in lines:
        m = ROUND_LINE.match(line)
        if m:
            rounds.append({"wall_s": float(m.group(1)), "cpu_s": float(m.group(2))})
        elif line.startswith("# env "):
            env = json.loads(line[len("# env "):])
        elif line.startswith("# csv sha256 "):
            hashes = json.loads(line[len("# csv sha256 "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is None:
        raise RunFailed(proc.returncode, proc.stderr)
    return {
        "exit": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "csv_sha256": hashes,
        "env": env,
        "loadavg_1m": load,
        "rounds": rounds,
    }


BLAS_PROBE = """
import json, sys
sys.path.insert(0, "src")
try:
    from mfbo.gp import _blas_controls, one_blas_thread
except ImportError:
    print(json.dumps("no pin"))
else:
    outside = [get() for get, _ in _blas_controls()]
    with one_blas_thread():
        inside = [get() for get, _ in _blas_controls()]
    print(json.dumps({"outside": outside, "inside": inside}))
"""


def blas_threads(checkout: Path):
    """Thread counts of each OpenBLAS the checkout's mfbo.gp finds, outside
    and inside one_blas_thread(), or "no pin" if it lacks them."""
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], cwd=checkout,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode:
        raise SystemExit("%s: BLAS probe failed\n%s" % (checkout, proc.stderr[-2000:]))
    return json.loads(proc.stdout)


def commit_of(checkout: Path):
    """HEAD of the checkout if it is the top of a git work tree, else None."""
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=checkout,
                          capture_output=True, text=True, timeout=30)
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != checkout:
        return None
    return lines[1]


def quartiles(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs, spec) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        ties = sum(c == p for p, c in zip(par, chg))
        ps, cs = quartiles(par), quartiles(chg)
        gain = (ps["median"] - cs["median"]) if lower else (cs["median"] - ps["median"])
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m.get("bound"),
            "parent": ps,
            "change": cs,
            "change_over_parent": cs["median"] / ps["median"] if ps["median"] else None,
            "wins": wins,
            "losses": len(pairs) - wins - ties,
            "ties": ties,
            "gain_holds": wins >= 0.9 * len(pairs) and gain > ps["q3"] - ps["q1"],
            "within_bound": None if m.get("bound") is None
            else -gain <= m["bound"] * ps["median"],
        }
    return out


def round_minima(pairs) -> dict:
    """Per round metric, each side's median over runs of the run's fastest
    round, their ratio, and the change's wins, losses and ties over the
    pairs by that minimum (lower is better)."""
    out = {}
    for name in ("wall_s", "cpu_s"):
        fastest = {side: [min(r[name] for r in p[side]["rounds"]) for p in pairs]
                   for side in ("parent", "change")}
        par, chg = (statistics.median(fastest[s]) for s in ("parent", "change"))
        wins = sum(c < p for p, c in zip(fastest["parent"], fastest["change"]))
        ties = sum(c == p for p, c in zip(fastest["parent"], fastest["change"]))
        out[name] = {
            "parent": par,
            "change": chg,
            "change_over_parent": chg / par if par else None,
            "wins": wins,
            "losses": len(pairs) - wins - ties,
            "ties": ties,
        }
    return out


def csv_match(pairs) -> tuple[bool, str]:
    """Whether every run wrote the CSV hashes of pair 1's parent run, and a
    line saying so or naming the first pair and side that differ, and in
    which files."""
    ref = pairs[0]["parent"]["csv_sha256"] or {}
    for k, pair in enumerate(pairs, 1):
        for side in ("parent", "change"):
            got = pair[side]["csv_sha256"] or {}
            if got != ref:
                names = sorted(n for n in ref.keys() | got.keys() if got.get(n) != ref.get(n))
                return False, "pair %d %s differs from pair 1 parent in %s" % (
                    k, side, ", ".join(names))
    return True, "every run's CSV hashes match (%d runs)" % (2 * len(pairs))


def round_counts(pairs) -> dict:
    """Each side's median over runs of the run's number of rounds."""
    return {side: statistics.median(len(p[side]["rounds"]) for p in pairs)
            for side in ("parent", "change")}


def dump_record(record) -> str:
    """record as indented JSON with sorted keys, each run's rounds on one line."""
    text = json.dumps(record, indent=1, sort_keys=True)
    return ROUNDS_LIST.sub(lambda m: '"rounds": %s' % json.dumps(
        json.loads(m.group(1)), sort_keys=True), text) + "\n"


def report_workload(record, w, pairs, spec, n_pairs) -> bool:
    """Summarize workload w's pairs into record and print the summary;
    whether every run passed its checks and wrote the same CSV hashes."""
    runs = [p[s] for p in pairs for s in ("parent", "change")]
    same_csv, csv_line = csv_match(pairs)
    all_correct = all(r["correct"] and r["exit"] == 0 for r in runs)
    record["workloads"][w] = {
        "all_correct": all_correct,
        "csv_identical": same_csv,
        "summary": summarize(pairs, spec),
        "round_minima": round_minima(pairs),
        "round_counts": round_counts(pairs),
        "runs": pairs,
    }
    print("# %-18s csv: %s" % (w, csv_line), flush=True)
    counts = record["workloads"][w]["round_counts"]
    for name, s in record["workloads"][w]["summary"].items():
        rounds = ""
        if name == "peak_rss_mb":
            rounds = "  rounds parent %g change %g" % (counts["parent"], counts["change"])
        print("# %-18s %-12s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  "
              "wins %d/%d  within bound: %s  gain holds: %s%s" % (
                  w, name, s["parent"]["median"], s["parent"]["q1"], s["parent"]["q3"],
                  s["change"]["median"], s["change"]["q1"], s["change"]["q3"],
                  s["wins"], n_pairs, s["within_bound"], s["gain_holds"], rounds), flush=True)
    for name, s in record["workloads"][w]["round_minima"].items():
        print("# %-18s fastest round %-6s parent %.4g  change %.4g  ratio %.3f  wins %d/%d" % (
            w, name, s["parent"], s["change"], s["change_over_parent"], s["wins"],
            n_pairs), flush=True)
    return same_csv and all_correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="passed to run.py; unset: the benchmark's run_seconds")
    ap.add_argument("--out", type=Path, default=None, help="default: BENCH_<tag>.json here")
    args = ap.parse_args(argv)
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    known = {w["name"] for w in spec["workloads"]}
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in workloads if w not in known]
    if unknown:
        ap.error("unknown workload(s): %s" % ", ".join(unknown))

    record = {
        "tag": args.tag,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds if args.seconds is not None else spec["run_seconds"],
        "checkouts": {k: {"dir": v.name, "commit": commit_of(v), "blas_threads": blas_threads(v)}
                      for k, v in sides.items()},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workloads": {},
    }
    ok = True
    try:
        for w in workloads:
            pairs = []
            record["workloads"][w] = {"runs": pairs}  # the finished pairs, should a run fail
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side], w, args.seed, args.seconds)
                    print("%s pair %d %-6s %s" % (w, k + 1, side,
                                                  json.dumps(pair[side]["metrics"])), flush=True)
                pairs.append(pair)
            ok = report_workload(record, w, pairs, spec, args.pairs) and ok
    except RunFailed as exc:
        record["failed_run"] = {"workload": w, "pair": k + 1, "side": side,
                                "dir": sides[side].name, "exit": exc.exit_code,
                                "stderr_tail": exc.stderr_tail}
        print("# %s pair %d %s: %s" % (w, k + 1, side, exc), file=sys.stderr, flush=True)
        ok = False
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    out = args.out or Path.cwd() / ("BENCH_%s.json" % args.tag)
    out.write_text(dump_record(record))
    print("# wrote %s" % out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
