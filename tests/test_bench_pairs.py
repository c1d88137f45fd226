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
