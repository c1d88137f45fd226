"""End-to-end acceptance checks.

Each test runs one numbered criterion from mfbo.verify and records its
pass/fail line; conftest echoes the full table after the pytest summary.
The same checks back `mfbo verify`. Slow ones (6 to 9) share memoized
experiment runs inside the verify module, so ordering within this file
matters less than it looks.
"""

import tempfile

import pytest

from mfbo.model import CandidateGains
from mfbo.verify import (
    CRITERIA,
    criterion_additive_consistency,
    criterion_chain_rule,
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
def test_criterion(number):
    _check(number)


# The criteria that check library identities must catch a fault in the
# function they check: each offset below is 10x the criterion's tolerance.

def test_additive_consistency_fails_on_an_offset_posterior(monkeypatch):
    real = CandidateGains.posterior

    def offset(self, history):
        mean, var = real(self, history)
        return mean + 1e-9, var

    monkeypatch.setattr(CandidateGains, "posterior", offset)
    passed, detail = criterion_additive_consistency()
    assert not passed, detail


def test_chain_rule_fails_on_offset_gains(monkeypatch):
    real = CandidateGains.gains

    def offset(self):
        return {lev: g + 1e-7 for lev, g in real(self).items()}

    monkeypatch.setattr(CandidateGains, "gains", offset)
    passed, detail = criterion_chain_rule()
    assert not passed, detail
