"""End-to-end acceptance checks.

Each test runs one numbered criterion from mfbo.verify and records its
pass/fail line; conftest echoes the full table after the pytest summary.
The same checks back `mfbo verify`. Slow ones (7, 8, 9) share memoized
experiment runs inside the verify module, so ordering within this file
matters less than it looks.
"""

import tempfile

import pytest

from mfbo.verify import CRITERIA, format_result, run_criterion

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
