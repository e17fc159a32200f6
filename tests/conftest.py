"""Shared test configuration: one deterministic hypothesis profile, a
fixture that makes chosen scan solves fail, and one that finds the Deltas
the transition refinement solves at.

Property tests run a fixed, derandomized set of examples with no example
database, so tier-1 reruns are reproducible and bounded in time.
"""

from dataclasses import replace

import pytest
from hypothesis import settings

import nlaa.phasescan as phasescan
from nlaa import transition_for_u

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


@pytest.fixture
def refinement_points():
    """refinement_points(L, deltas, kind, u): the Deltas, in order, at which
    transition_for_u refines the first bracket of the exact row (kind, U) on
    the grid `deltas`, from solves that do not fail. A scan refines the row
    at the same Deltas up to its first failure, because it refines each row
    as transition_for_u does, from bitwise the same grid r and bracket-end
    states. Call it before fail_solves."""
    def points(L, deltas, kind, u):
        visited = []
        point = phasescan._itp_point

        def spy(*args):
            visited.append(point(*args))
            return visited[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(phasescan, "_itp_point", spy)
            transition_for_u(u, kind, deltas, L=L)
        return visited
    return points
