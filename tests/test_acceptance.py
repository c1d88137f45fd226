"""End-to-end acceptance checks.

Each test runs one numbered criterion from mfbo.verify and records its
pass/fail line; conftest echoes the full table after the pytest summary.
The same checks back `mfbo verify`. Slow ones (6 to 9) share memoized
experiment runs inside the verify module, so ordering within this file
matters less than it looks.
"""

import dataclasses
import tempfile

import pytest

from mfbo import verify
from mfbo.benchmarks import BenchmarkProblem, single_fidelity_problem
from mfbo.harness import ExperimentConfig, ExperimentResult, RunOutcome
from mfbo.model import CandidateGains
from mfbo.policy import PolicyConfig, mf_mi_greedy, sf_only, trace_records
from mfbo.submodular import KS_GUARANTEE, gamma_max_bound
from mfbo.verify import (
    CRITERIA,
    criterion_additive_consistency,
    criterion_chain_rule,
    criterion_decomposition,
    criterion_degenerate_reduction,
    criterion_explore_certificate,
    criterion_gamma_max,
    criterion_gp_oracle,
    criterion_no_regret_trend,
    criterion_relative_performance,
    criterion_submodular,
    format_result,
    make_toy_problem,
    run_criterion,
)

from conftest import record_acceptance


@pytest.fixture(autouse=True)
def fresh_tempdir(tmp_path, monkeypatch):
    """Every temporary file or directory a criterion makes must be gone
    when it returns."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    yield
    assert list(tmp_path.iterdir()) == []


def _check(number: int):
    r = run_criterion(number)
    record_acceptance(format_result(r))
    assert r.passed, format_result(r)


@pytest.mark.parametrize(
    "number", [num for num, _, _ in CRITERIA], ids=[name for _, name, _ in CRITERIA]
)
def test_criterion(number, capsys):
    _check(number)
    # a row of the acceptance table is all a criterion may print
    assert capsys.readouterr() == ("", "")


# The criteria that check library identities must catch a fault in the
# function they check: each offset below is 10x the criterion's tolerance.

def test_gp_oracle_fails_on_an_offset_posterior(monkeypatch):
    real = CandidateGains.posterior

    def offset(self, y):
        mean, var = real(self, y)
        return mean + 1e-7, var

    monkeypatch.setattr(CandidateGains, "posterior", offset)
    passed, detail = criterion_gp_oracle()
    assert not passed, detail


def test_additive_consistency_fails_on_an_offset_posterior(monkeypatch):
    real = CandidateGains.posterior

    def offset(self, y):
        mean, var = real(self, y)
        return mean + 1e-9, var

    monkeypatch.setattr(CandidateGains, "posterior", offset)
    passed, detail = criterion_additive_consistency()
    assert not passed, detail


def test_chain_rule_fails_on_offset_gains(monkeypatch):
    # the offset goes into the per-fidelity formula that gains() and the
    # greedy step Explore-LF and gamma_max_bound rank by share
    real = CandidateGains._gain

    def offset(self, lev, degenerate):
        return real(self, lev, degenerate) + 1e-7

    monkeypatch.setattr(CandidateGains, "_gain", offset)
    passed, detail = criterion_chain_rule()
    assert not passed, detail


def test_submodular_fails_without_the_guarantee_factor(monkeypatch):
    # the bound with its 1/KS factor dropped: the greedy set's value alone
    monkeypatch.setattr("mfbo.verify.gamma_max_bound",
                        lambda *args: KS_GUARANTEE * gamma_max_bound(*args))
    passed, detail = criterion_submodular()
    assert not passed, detail


def test_harness_determinism_quotes_a_failed_bench(monkeypatch, capsys):
    monkeypatch.setattr(BenchmarkProblem, "evaluate", lambda self, action, rng: float("nan"))
    r = run_criterion(11)
    assert not r.passed
    assert r.detail == "bench exited with code 1: error: 9 run(s) failed"
    assert capsys.readouterr() == ("", "")


# Criteria 5 to 10 must fail on a doctored input. Those that read the
# memoized currin2 experiment get a small toy run in its place instead.

QUICK = PolicyConfig(n_candidates=16, hyperfit_every=0)


@pytest.fixture(scope="module")
def toy_trace():
    """mf_mi_greedy on the toy problem at 20x the target cost."""
    prob = make_toy_problem()
    return prob, mf_mi_greedy(prob, 20.0 * prob.model.target_cost, QUICK, seed=2718)


def _experiment(prob, trace, summary=()):
    """A one-run stand-in for currin_experiment's result."""
    return ExperimentResult(
        config=ExperimentConfig(problem="currin2"), budget=trace.budget, f_star=prob.f_star,
        outcomes=[RunOutcome(trace.policy, 0, trace, None, 0.0)], summary=list(summary))


def test_explore_certificate_fails_on_an_inflated_gain(monkeypatch):
    real = verify.explore_lf

    def inflated(*args):
        res = real(*args)
        return dataclasses.replace(res, cumulative_info_gain=1.01 * res.cumulative_info_gain)

    monkeypatch.setattr(verify, "explore_lf", inflated)
    passed, detail = criterion_explore_certificate()
    assert not passed
    assert "stored gain" in detail and "!= joint gain" in detail


def test_decomposition_fails_when_explore_cost_leaves_the_episode_cost(monkeypatch, toy_trace):
    prob, trace = toy_trace
    first = trace.episodes[0]
    assert first.explore_cost > 0
    doctored = dataclasses.replace(trace, episodes=(
        dataclasses.replace(first, explore_cost=first.explore_cost + 1.0),) + trace.episodes[1:])
    monkeypatch.setattr(verify, "_all_traces", lambda: [(trace, prob.f_star)])
    assert criterion_decomposition()[0]
    monkeypatch.setattr(verify, "_all_traces", lambda: [(doctored, prob.f_star)])
    passed, detail = criterion_decomposition()
    assert not passed
    assert detail.startswith("decomposition gap ") and detail.endswith(
        "> 1e-9 (mf_mi_greedy seed 2718)")


def test_degenerate_reduction_fails_on_a_shorter_log(monkeypatch):
    prob = single_fidelity_problem(make_toy_problem())
    mf = mf_mi_greedy(prob, 15.0, QUICK, seed=5)
    sf = sf_only(prob, 15.0, QUICK, seed=5)
    n = len(trace_records(mf))
    assert trace_records(sf) == trace_records(mf)
    shorter = dataclasses.replace(sf, episodes=sf.episodes[:-1])
    monkeypatch.setattr(verify, "m1_traces", lambda: (prob, mf, shorter))
    passed, detail = criterion_degenerate_reduction()
    assert not passed
    assert detail == "logs differ at row %d (%d vs %d rows)" % (n - 1, n, n - 1)


def test_relative_performance_fails_when_mf_trails_sf(monkeypatch, toy_trace):
    prob, trace = toy_trace
    summary = [(pol, trace.budget, mean, 0.01, 20) for pol, mean in
               [("mf_mi_greedy", 0.30), ("explore_then_exploit", 0.35), ("sf_only", 0.25)]]
    monkeypatch.setattr(verify, "currin_experiment",
                        lambda: (_experiment(prob, trace, summary), 1.0))
    passed, detail = criterion_relative_performance()
    assert not passed
    assert detail.startswith("mf 0.3000 vs 1.10*sf 0.2750 and ete 0.3500 (n=20")
    assert detail.endswith("; failed: mf > 1.10*sf")


@pytest.mark.parametrize("means, n, elapsed, failed", [
    ((0.30, 0.29, 0.28), 20, 1.0, "mf > ete"),
    ((0.25, 0.30, 0.25), 19, 1.0, "n != 20"),
    ((0.25, 0.30, 0.25), 20, 250.0, "CPU >= 200s"),
    ((0.30, 0.25, 0.25), 19, 1.0, "mf > 1.10*sf, mf > ete, n != 20"),
    ((0.25, 0.30, 0.25), 20, 1.0, None),
], ids=["ete", "n", "cpu", "three", "none"])
def test_relative_performance_names_each_failed_condition(
        monkeypatch, toy_trace, means, n, elapsed, failed):
    prob, trace = toy_trace
    policies = ("mf_mi_greedy", "explore_then_exploit", "sf_only")
    summary = [(pol, trace.budget, mean, 0.01, n) for pol, mean in zip(policies, means)]
    monkeypatch.setattr(verify, "currin_experiment",
                        lambda: (_experiment(prob, trace, summary), elapsed))
    passed, detail = criterion_relative_performance()
    head = "mf %.4f vs 1.10*sf %.4f and ete %.4f (n=%d, %.0fs CPU, limit 200s)" % (
        means[0], 1.10 * means[2], means[1], n, elapsed)
    assert passed is (failed is None)
    assert detail == (head if failed is None else head + "; failed: " + failed)


def test_no_regret_trend_fails_when_late_queries_fall_off(monkeypatch, toy_trace):
    # from the second half of the budget on, every target query is 10 below f*
    prob, trace = toy_trace
    spent = 0.0
    episodes = []
    for ep in trace.episodes:
        spent += ep.cost
        late = spent > trace.budget / 2
        episodes.append(dataclasses.replace(ep, target_true=prob.f_star - 10.0) if late else ep)
    doctored = dataclasses.replace(trace, episodes=tuple(episodes))
    monkeypatch.setattr(verify, "currin_experiment", lambda: (_experiment(prob, trace), 1.0))
    assert criterion_no_regret_trend()[0]
    monkeypatch.setattr(verify, "currin_experiment",
                        lambda: (_experiment(prob, doctored), 1.0))
    passed, detail = criterion_no_regret_trend()
    assert not passed
    assert detail.endswith("inversions 2")


def test_gamma_max_fails_on_a_bound_a_fifth_of_its_size(monkeypatch):
    # a quarter of the bound still covers every episode gain (criterion
    # 10's margin is about 4.2x), so the doctored bound is a fifth
    monkeypatch.setattr(verify, "gamma_max_bound",
                        lambda *args, **kw: gamma_max_bound(*args, **kw) / 5.0)
    passed, detail = criterion_gamma_max()
    assert not passed
    assert " < max episode gain " in detail
