"""Acceptance suite: every verification check passes within its budget.

Run with -s to see one line per criterion:

    pytest tests/test_acceptance.py -v -s
"""

import pytest

from wildram.checks import registry, run_check

REGISTRY = registry()


@pytest.mark.parametrize("spec", REGISTRY, ids=[s.check_id for s in REGISTRY])
def test_acceptance(spec):
    result = run_check(spec)
    line = (
        f"{result.status.upper():4} {result.check_id:30} "
        f"{result.seconds:7.2f}s / {result.budget_seconds:g}s  {result.title}"
    )
    print(line)
    assert result.status == "pass", result.detail
    assert result.seconds < result.budget_seconds, (
        f"{result.check_id} took {result.seconds:.1f}s, budget {result.budget_seconds}s"
    )
