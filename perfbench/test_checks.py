"""Each output check fails on a doctored trace or CSV.

    python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402,F401  (first: puts the checkout's src on sys.path)
import checks as ck  # noqa: E402
from mfbo import harness  # noqa: E402


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    # a short currin2 comparison: Explore-LF selects in its first episode
    cfg = harness.ExperimentConfig(
        problem="currin2", budget_mult=12.0, n_seeds=1, master_seed=3,
        policies=("mf_mi_greedy", "sf_only"),
        out_dir=str(tmp_path_factory.mktemp("run")),
    )
    return harness.run_experiment(cfg)


def _failed(fn, *args) -> list[str]:
    c = ck.Checks()
    fn(c, *args)
    assert c.attempted > 0
    return c.failures


def _replace_trace(result, **changes):
    o = result.outcomes[0]
    return [dataclasses.replace(o, trace=dataclasses.replace(o.trace, **changes))]


def _exploring_episode(result):
    eps = result.outcomes[0].trace.episodes
    return next(i for i, ep in enumerate(eps) if ep.low_observations)


def test_real_run_passes(result):
    assert _failed(ck.check_runs, result.outcomes, result.f_star) == []
    gains = [ep.explore_info_gain for o in result.outcomes for ep in o.trace.episodes]
    assert _failed(ck.check_bound, result.outcomes, max(gains)) == []
    h = ck.csv_hashes(Path(result.traces_path).parent)
    assert _failed(ck.check_hashes, h, dict(h)) == []


def test_failed_run(result):
    failures = _failed(ck.check_runs, _replace_trace(result, failed=True), result.f_star)
    assert any("failed=True" in f for f in failures)
    o = dataclasses.replace(result.outcomes[0], trace=None, error="NumericalError: x")
    assert _failed(ck.check_runs, [o], result.f_star) == ["mf_mi_greedy seed 0: NumericalError: x"]


def test_overspent_run(result):
    tr = result.outcomes[0].trace
    failures = _failed(ck.check_runs, _replace_trace(result, spent=tr.budget + 1.0), result.f_star)
    assert any("spent" in f for f in failures)


def test_regret_decomposition_gap(result):
    # an episode whose cost no longer matches what it spent opens a gap
    eps = list(result.outcomes[0].trace.episodes)
    eps[-1] = dataclasses.replace(eps[-1], explore_cost=eps[-1].explore_cost + 0.5)
    failures = _failed(ck.check_runs, _replace_trace(result, episodes=tuple(eps)), result.f_star)
    assert any("decomposition gap" in f for f in failures)


def test_exploration_certificate(result):
    eps = list(result.outcomes[0].trace.episodes)
    i = _exploring_episode(result)
    eps[i] = dataclasses.replace(
        eps[i], explore_info_gain=0.5 * eps[i].explore_beta * eps[i].explore_cost
    )
    failures = _failed(ck.check_runs, _replace_trace(result, episodes=tuple(eps)), result.f_star)
    assert any("beta" in f for f in failures)


def test_bound_below_a_gain(result):
    gains = [ep.explore_info_gain for o in result.outcomes for ep in o.trace.episodes]
    assert any("exceeds bound" in f for f in _failed(ck.check_bound, result.outcomes, 0.5 * max(gains)))
    assert _failed(ck.check_bound, result.outcomes, None) == ["gamma_max_bound was not computed"]


def test_csv_bytes_differ(result, tmp_path):
    out = Path(result.traces_path).parent
    ref = ck.csv_hashes(out)
    for name in ck.CSV_NAMES:
        (tmp_path / name).write_bytes((out / name).read_bytes())
    with open(tmp_path / "summary.csv", "ab") as fh:
        fh.write(b" ")
    assert _failed(ck.check_hashes, ref, ck.csv_hashes(tmp_path)) == [
        "summary.csv differs between repetitions"
    ]
