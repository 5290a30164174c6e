"""Acceptance gate: every numbered criterion must pass at its stated
tolerance and within its budget, run by the same `run_criterion` as
`gammacross selftest`.  Each test prints the one-line verdict so `pytest -s`
(or the captured output on failure) reads as the acceptance report."""

import pytest

from gammacross.acceptance import run_criterion


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(number):
    res = run_criterion(number)
    print(res.line)
    assert res.passed, res.line
