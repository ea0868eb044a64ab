import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from mwcp import geometry

# Hypothesis caches the constants of local modules in its home directory when
# it collects, even without a database; keep that cache out of the checkout
# for every test module.
HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(HYPOTHESIS_HOME.name)


class LPCalls(list):
    """The rhs of every ``geometry._convex_combination_feasible`` call, in
    order; ``running`` is true while one runs."""

    running = False


@pytest.fixture
def lp_calls(monkeypatch):
    """Record every run of the exact phase-I membership LP."""
    calls = LPCalls()
    feasible = geometry._convex_combination_feasible

    def counted(lp, rhs):
        calls.append(rhs)
        calls.running = True
        try:
            return feasible(lp, rhs)
        finally:
            calls.running = False

    monkeypatch.setattr(geometry, "_convex_combination_feasible", counted)
    return calls
