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
from nlaa import SolverOptions, critical_r, detect_transition

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
    detect_transition refines the first bracket of the exact row (kind, U)
    on the grid `deltas`, from lone solves that do not fail. A scan refines
    the row at the same Deltas up to its first failure, because its r are
    bitwise the lone solves'. Call it before fail_solves."""
    def points(L, deltas, kind, u):
        visited = []

        def r_at(delta):
            return phasescan._cell_r(kind, L, u, float(delta), 0.0, "exact",
                                     SolverOptions())

        def refine(delta):
            visited.append(delta)
            return r_at(delta)

        detect_transition(deltas, [r_at(d) for d in deltas], critical_r(L, kind),
                          refine)
        return visited
    return points
