"""End-to-end acceptance checks.

Each test runs one numbered criterion from mfbo.verify and records its
pass/fail line; conftest echoes the full table after the pytest summary.
The same checks back `mfbo verify`. Slow ones (6 to 9) share memoized
experiment runs inside the verify module, so ordering within this file
matters less than it looks.
"""

import tempfile

import pytest

from mfbo.benchmarks import BenchmarkProblem
from mfbo.model import CandidateGains
from mfbo.submodular import KS_GUARANTEE, gamma_max_bound
from mfbo.verify import (
    CRITERIA,
    criterion_additive_consistency,
    criterion_chain_rule,
    criterion_gp_oracle,
    criterion_submodular,
    format_result,
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
