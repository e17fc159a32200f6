"""Shared test configuration: one deterministic hypothesis profile, and a
fixture that makes chosen scan solves fail.

Property tests run a fixed, derandomized set of examples with no example
database, so tier-1 reruns are reproducible and bounded in time.
"""

from dataclasses import replace

import pytest
from hypothesis import settings

import nlaa.phasescan as phasescan

settings.register_profile("nlaa", max_examples=12, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("nlaa")


@pytest.fixture
def fail_solves(monkeypatch):
    """fail_solves(cells): the scan's solves of the cells `cells` names end
    unconverged, as a solve that runs out of iterations does. `cells` is a
    set of (kind, U, Delta) or a predicate of those three."""
    def install(cells):
        fails = cells if callable(cells) else lambda *cell: cell in cells
        solve = phasescan.solve_state

        def solve_or_fail(params, kind, opts, start=None):
            sol = solve(params, kind, opts, start=start)
            return replace(sol, converged=False) if fails(
                kind, params.U, params.Delta) else sol

        monkeypatch.setattr(phasescan, "solve_state", solve_or_fail)
    return install
