import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
]}


def pairs_of(parent, change, name="cpu_s"):
    return [{"parent": {"metrics": {"cpu_s": 1.0, "rate": 1.0, name: p}},
             "change": {"metrics": {"cpu_s": 1.0, "rate": 1.0, name: c}}}
            for p, c in zip(parent, change)]


def test_quartiles_interpolate_between_samples():
    q = bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert q == {"median": 3.0, "q1": 2.0, "q3": 4.0}


def test_gain_needs_nine_wins_in_ten_and_medians_apart_by_the_parent_iqr():
    parent = [1.0 + 0.01 * k for k in range(10)]
    half = [0.5 + 0.01 * k for k in range(10)]
    s = bench_pairs.summarize(pairs_of(parent, half), SPEC)["cpu_s"]
    assert (s["wins"], s["losses"], s["ties"]) == (10, 0, 0)
    assert s["gain_holds"] and s["change_over_parent"] == pytest.approx(0.545 / 1.045)

    # one loss and one tie leave 8 wins in 10
    mixed = half[:8] + [2.0, parent[9]]
    s = bench_pairs.summarize(pairs_of(parent, mixed), SPEC)["cpu_s"]
    assert (s["wins"], s["losses"], s["ties"]) == (8, 1, 1) and not s["gain_holds"]

    # every pair won, but by less than the parent's spread
    close = [p - 0.001 for p in parent]
    s = bench_pairs.summarize(pairs_of(parent, close), SPEC)["cpu_s"]
    assert s["wins"] == 10 and not s["gain_holds"]


def test_higher_is_better_counts_the_other_way():
    spec = {"end_to_end": [SPEC["end_to_end"][1]]}
    parent = [1.0 + 0.01 * k for k in range(10)]
    s = bench_pairs.summarize(pairs_of(parent, [2 * p for p in parent], "rate"), spec)["rate"]
    assert s["wins"] == 10 and s["gain_holds"]


@pytest.mark.parametrize("name, factor, within", [
    ("cpu_s", 1.20, True), ("cpu_s", 1.30, False), ("rate", 0.80, True), ("rate", 0.70, False),
])
def test_within_bound_allows_a_change_worse_by_at_most_the_bound(name, factor, within):
    # SPEC's bound is 0.25 for both metrics
    parent = [1.0 + 0.01 * k for k in range(10)]
    s = bench_pairs.summarize(pairs_of(parent, [factor * p for p in parent], name), SPEC)[name]
    assert s["within_bound"] is within and s["wins"] == 0


FAKE_GP = '''
import contextlib

count = [4]


def _blas_controls():
    return ((lambda: count[0], lambda n: count.__setitem__(0, n)),)


@contextlib.contextmanager
def one_blas_thread():
    saved = count[0]
    count[0] = 1
    try:
        yield
    finally:
        count[0] = saved
'''


def fake_checkout(root: Path, gp_source: str) -> Path:
    pkg = root / "src" / "mfbo"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "gp.py").write_text(gp_source)
    return root


def test_blas_probe_reads_the_checkouts_counts_outside_and_inside_the_pin(tmp_path):
    checkout = fake_checkout(tmp_path / "pinned", FAKE_GP)
    assert bench_pairs.blas_threads(checkout) == {"outside": [4], "inside": [1]}


def test_blas_probe_without_the_pin_says_so(tmp_path):
    checkout = fake_checkout(tmp_path / "unpinned", "import math\n")
    assert bench_pairs.blas_threads(checkout) == "no pin"


FAKE_RUN = '''
import json
print("# perfbench fake seed=0 seconds=1 trace=0")
print("# env " + json.dumps({"OPENBLAS_NUM_THREADS": None}))
print("# round1   wall 0.900 s  cpu 0.800 s  runs 0.900 s")
print("# round2   wall 0.600 s  cpu 0.550 s  runs 0.450 s  bound 284.5496 at beta 0.184202")
print("# round3   wall 0.700 s  cpu 0.650 s  runs 0.700 s")
print("# wall_s                                             0.7 s")
print("# csv sha256 " + json.dumps({"traces.csv": "ab"}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"wall_s": {"value": 0.7, "unit": "s"}}}))
'''


def test_run_once_keeps_each_rounds_wall_and_cpu(tmp_path):
    bench = tmp_path / "fake" / "perfbench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(FAKE_RUN)
    run = bench_pairs.run_once(tmp_path / "fake", "currin2_compare", 0, None)
    assert run["rounds"] == [{"wall_s": 0.9, "cpu_s": 0.8}, {"wall_s": 0.6, "cpu_s": 0.55},
                             {"wall_s": 0.7, "cpu_s": 0.65}]
    assert run["metrics"] == {"wall_s": 0.7} and run["csv_sha256"] == {"traces.csv": "ab"}


def rounds_of(*walls):
    return [{"wall_s": w, "cpu_s": 2 * w} for w in walls]


def test_round_minima_are_the_median_of_each_runs_fastest_round():
    pairs = [
        {"parent": {"rounds": rounds_of(1.0, 0.8, 3.0)}, "change": {"rounds": rounds_of(0.9, 0.7)}},
        {"parent": {"rounds": rounds_of(0.9)}, "change": {"rounds": rounds_of(2.0, 0.95)}},
        {"parent": {"rounds": rounds_of(1.2, 1.1)}, "change": {"rounds": rounds_of(1.1, 5.0)}},
    ]
    s = bench_pairs.round_minima(pairs)
    # fastest rounds: parent 0.8, 0.9, 1.1; change 0.7, 0.95, 1.1
    assert s["wall_s"]["parent"] == 0.9 and s["wall_s"]["change"] == 0.95
    assert s["wall_s"]["change_over_parent"] == pytest.approx(0.95 / 0.9)
    assert (s["wall_s"]["wins"], s["wall_s"]["losses"], s["wall_s"]["ties"]) == (1, 1, 1)
    assert s["cpu_s"]["parent"] == 1.8 and s["cpu_s"]["change"] == 1.9


def test_round_counts_are_each_sides_median_rounds_per_run():
    pairs = [
        {"parent": {"rounds": rounds_of(1.0, 1.0)}, "change": {"rounds": rounds_of(0.5, 0.5, 0.5)}},
        {"parent": {"rounds": rounds_of(1.0)}, "change": {"rounds": rounds_of(0.5, 0.5)}},
        {"parent": {"rounds": rounds_of(1.0, 1.0, 1.0)}, "change": {"rounds": rounds_of(0.5) * 4}},
    ]
    assert bench_pairs.round_counts(pairs) == {"parent": 2, "change": 3}


def hashed_pairs(*sides):
    """Pairs whose runs, parent then change, wrote these traces.csv hashes."""
    return [{"parent": {"csv_sha256": {"traces.csv": p, "curves.csv": "c"}},
             "change": {"csv_sha256": {"traces.csv": c, "curves.csv": "c"}}}
            for p, c in zip(sides[::2], sides[1::2])]


def test_csv_match_names_the_first_pair_and_side_that_differ():
    assert bench_pairs.csv_match(hashed_pairs("a", "a", "a", "a")) == (
        True, "every run's CSV hashes match (4 runs)")
    assert bench_pairs.csv_match(hashed_pairs("a", "a", "a", "b", "b", "a")) == (
        False, "pair 2 change differs from pair 1 parent in traces.csv")
    pairs = hashed_pairs("a", "a", "a", "a")
    pairs[1]["parent"]["csv_sha256"] = None  # run.py printed no hashes
    assert bench_pairs.csv_match(pairs) == (
        False, "pair 2 parent differs from pair 1 parent in curves.csv, traces.csv")


def test_record_keeps_every_key_and_writes_each_runs_rounds_on_one_line():
    run = {"rounds": rounds_of(0.9, 0.6), "metrics": {"cpu_s": 1.0}, "csv_sha256": {"a": "b"}}
    record = {"tag": "t", "workloads": {"w": {
        "round_minima": {"wall_s": {"parent": 0.6}},
        "runs": [{"first": "parent", "parent": run, "change": dict(run, rounds=[])}]}}}
    text = bench_pairs.dump_record(record)
    assert json.loads(text) == record and text.endswith("}\n")
    lines = [line for line in text.splitlines() if '"rounds"' in line]
    assert [json.loads("{%s}" % line.strip().rstrip(","))["rounds"] for line in lines] == [
        [], rounds_of(0.9, 0.6)]


# run.py that prints no result on its second call, in the checkout it runs
# in: it exits 3, or first sleeps past the timeout the test sets
FAILING_RUN = '''
import pathlib, sys, time
calls = pathlib.Path("calls")
n = int(calls.read_text()) + 1 if calls.exists() else 1
calls.write_text(str(n))
if n == 2:
    sys.stderr.write("Traceback: boom\\n")
    sys.stderr.flush()
    time.sleep(SLEEP)
    sys.exit(3)
''' + FAKE_RUN


@pytest.mark.parametrize("mode", ["no_result", "timeout"])
def test_a_failed_run_keeps_the_finished_pairs(tmp_path, monkeypatch, mode):
    spec = {"run_seconds": 1, "workloads": [{"name": "currin2_compare"}],
            "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    failing = FAILING_RUN.replace("SLEEP", "30" if mode == "timeout" else "0")
    for side, run in (("parent", FAKE_RUN), ("change", failing)):
        checkout = fake_checkout(tmp_path / side, FAKE_GP)
        (checkout / "perfbench").mkdir()
        (checkout / "perfbench" / "run.py").write_text(run)
        (checkout / "BENCHMARK.json").write_text(json.dumps(spec))
    if mode == "timeout":
        monkeypatch.setattr(bench_pairs, "RUN_TIMEOUT_S", 2)
    out = tmp_path / "BENCH_t.json"
    rc = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                           str(tmp_path / "change"), "--tag", "t", "--workloads",
                           "currin2_compare", "--seed", "0", "--out", str(out)])
    assert rc == 1
    record = json.loads(out.read_text())
    # pair 1 ran parent then change; pair 2 runs the change first, its second call
    (pair,) = record["workloads"]["currin2_compare"]["runs"]
    assert pair["parent"]["metrics"] == pair["change"]["metrics"] == {"wall_s": 0.7}
    assert record["failed_run"] == {
        "workload": "currin2_compare", "pair": 2, "side": "change", "dir": "change",
        "exit": None if mode == "timeout" else 3, "stderr_tail": "Traceback: boom\n"}
