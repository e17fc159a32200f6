"""Transition detection, grid scans with persistence, phase labels."""

import json
import logging
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nlaa.phasescan as phasescan
from nlaa import (
    ModelParams,
    RampProtocol,
    ScanGrid,
    SolverOptions,
    classify_phase,
    critical_r,
    detect_transition,
    participation_ratio,
    scan_phase_diagram,
    solve_state,
    transition_for_u,
)
from nlaa.eigensolve import require_converged, warm_start
from nlaa.phasescan import BISECTION_TOL, cell_key


# -------------------------
# Critical value
# -------------------------

def test_critical_r_frozen_values():
    assert critical_r(21, "gs") == pytest.approx(0.1328250316042623, rel=1e-12)
    assert critical_r(21, "es") == pytest.approx(0.15751575829173994, rel=1e-12)


def test_critical_r_two_site_analytic():
    # L=2 at Delta/J=2, phi=0: eps = (2, 2 cos(2 pi beta)); r of the GS of
    # [[eps0, 1], [1, eps1]] in closed form via the eigenvector angle
    eps0, eps1 = 2.0, 2.0 * np.cos(2 * np.pi * (np.sqrt(5) - 1) / 2)
    th = 0.5 * np.arctan2(2.0, eps0 - eps1)
    n = np.array([np.sin(th) ** 2, np.cos(th) ** 2])
    r_exact = 1.0 / (2.0 * np.sum(n ** 2))
    assert critical_r(2, "gs") == pytest.approx(r_exact, rel=1e-12)
    assert critical_r(2, "gs") == pytest.approx(0.571054, abs=1e-5)


def test_critical_r_rejects_unknown_kind():
    with pytest.raises(ValueError):
        critical_r(21, "both")


# -------------------------
# Detection
# -------------------------

def test_detect_transition_grid_midpoint():
    deltas = np.array([1.0, 2.0, 3.0, 4.0])
    rs = np.array([0.9, 0.5, 0.1, 0.05])
    tr = detect_transition(deltas, rs, r_c=0.3)
    assert tr.found
    assert tr.crossings == [(2.0, 3.0)]
    assert tr.delta_c == pytest.approx(2.5)


def test_detect_transition_no_crossing():
    tr = detect_transition([1.0, 2.0], [0.9, 0.8], r_c=0.3)
    assert not tr.found
    assert tr.delta_c is None
    assert tr.crossings == []
    assert "no downward crossing" in tr.message


def test_detect_transition_reports_all_crossings_refines_first():
    deltas = np.linspace(0.0, 5.0, 11)
    rs = np.array([0.9, 0.8, 0.2, 0.7, 0.1, 0.05, 0.04, 0.03, 0.02, 0.01, 0.0])
    tr = detect_transition(deltas, rs, r_c=0.5)
    assert len(tr.crossings) == 2
    assert tr.delta_c == pytest.approx(0.5 * (deltas[1] + deltas[2]))


def test_detect_transition_bisection_on_analytic_curve():
    deltas = np.linspace(0.5, 3.5, 13)

    def r_of(d):
        return 1.0 / (1.0 + np.exp((d - 2.0) / 0.1))

    tr = detect_transition(deltas, r_of(deltas), r_c=0.5, refine=r_of)
    assert abs(tr.delta_c - 2.0) <= BISECTION_TOL


def _refine_rows(curves, brackets, r_cs):
    """detect_transition's many-row form on two-sample rows, each its bracket,
    refined on `curves`; returns the results and each row's visited Deltas."""
    visits = [[] for _ in curves]

    def refine(rows, xs):
        for i, x in zip(rows, xs):
            visits[i].append(x)
        return [curves[i](x) for i, x in zip(rows, xs)]

    results = detect_transition(brackets, [[f(lo), f(hi)] for f, (lo, hi)
                                           in zip(curves, brackets)], r_cs, refine)
    return results, visits


def _final_bracket(f, r_c, bracket, visited):
    """The bracket the refinement ends on: each visited point lies inside the
    bracket of its step, so the last lo is the largest point with r >= r_c
    and the last hi the smallest with r < r_c."""
    lo, hi = bracket
    for x in visited:
        lo, hi = (max(lo, x), hi) if f(x) >= r_c else (lo, min(hi, x))
    return lo, hi


_TANH_ROW = st.tuples(st.floats(0.0, 14.0),                  # lo
                      st.floats(1e-4, 2.0),                  # bracket width
                      st.floats(0.0, 0.99),                  # Delta* in it
                      st.floats(0.01, 0.5),                  # amplitude
                      st.floats(0.1, 1e3),                   # steepness
                      st.floats(0.05, 0.5))                  # r_c


@settings(max_examples=200)
@given(rows=st.lists(_TANH_ROW, min_size=2, max_size=6),
       steps=st.lists(st.floats(-0.3, 0.3).filter(lambda v: abs(v) > 1e-3),
                      min_size=2, max_size=8),
       step_lo=st.floats(0.0, 4.0), step_width=st.floats(1e-3, 1.0))
def test_itp_refines_many_rows_as_each_alone(rows, steps, step_lo, step_width):
    curves, brackets, r_cs, stars = [], [], [], []
    for lo, width, frac, a, b, r_c in rows:
        star = lo + frac * width
        curves.append(lambda x, a=a, b=b, star=star, r_c=r_c:
                      r_c + a * np.tanh(b * (star - x)))
        brackets.append((lo, lo + width))
        r_cs.append(r_c)
        stars.append(star)
    # a non-monotone step curve: r - r_c is steps[k] on the k-th of
    # len(steps) equal pieces of its bracket, positive on the first and
    # negative on the last
    levels = [abs(steps[0])] + steps[1:-1] + [-abs(steps[-1])]
    curves.append(lambda x: 0.3 + levels[min(int((x - step_lo) / step_width
                                                 * len(levels)), len(levels) - 1)])
    brackets.append((step_lo, step_lo + step_width))
    r_cs.append(0.3)
    results, visits = _refine_rows(curves, brackets, r_cs)
    for i, (f, bracket, r_c, tr) in enumerate(zip(curves, brackets, r_cs, results)):
        lo, hi = _final_bracket(f, r_c, bracket, visits[i])
        assert f(lo) >= r_c > f(hi) and hi - lo <= BISECTION_TOL
        assert tr.found and tr.delta_c == 0.5 * (lo + hi)
        assert tr.refine_solves == len(visits[i])
        alone, [visited] = _refine_rows([f], [bracket], [r_c])
        assert alone == [tr] and visited == visits[i]
        single = detect_transition(bracket, [f(bracket[0]), f(bracket[1])], r_c,
                                   refine=f)
        assert single == tr
        # at most one solve more than bisection, on the step curve too
        width = bracket[1] - bracket[0]
        bisection = max(math.ceil(math.log2(width / BISECTION_TOL)), 0)
        assert len(visits[i]) <= bisection + (width > BISECTION_TOL)
        if i < len(rows):                      # the tanh rows
            # up to rounding: the midpoint's, and r's next to Delta*, where
            # |r - r_c| < spacing(r_c) for |Delta - Delta*| up to
            # spacing(0.5) / (0.01 * 0.1) ~ 1e-13
            assert abs(tr.delta_c - stars[i]) <= BISECTION_TOL / 2 + 1e-12


def test_detect_transition_validates_grid():
    with pytest.raises(ValueError):
        detect_transition([2.0, 1.0], [0.9, 0.1], r_c=0.5)
    with pytest.raises(ValueError):
        detect_transition([1.0], [0.9], r_c=0.5)


def test_transition_for_u_linear_anchor():
    tr = transition_for_u(0.0, "gs", np.arange(0.0, 3.125, 0.25), L=21)
    assert tr.found
    assert tr.delta_c == pytest.approx(2.0, abs=0.05)


STEP = 0.25                                  # exact in binary: grid = k * STEP


def _stub_cells(mp, deltas, rs, r_c, fail_at=None):
    """Make _solve_cell read r off the curve through (deltas, rs), linear
    between grid points, uncertified, and raise at `fail_at`; return the
    Delta of every call."""
    calls = []

    def solve_cell(kind, L, u, delta, *rest, start=None):
        calls.append(delta)
        if delta == fail_at:
            raise RuntimeError("injected cell failure")
        return float(np.interp(delta, deltas, rs)), False, None

    mp.setattr(phasescan, "_solve_cell", solve_cell)
    mp.setattr(phasescan, "critical_r", lambda L, kind: r_c)
    return calls


@given(rs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=24),
       r_c=st.floats(0.05, 0.95))
def test_lazy_sweep_equals_full_grid_detection(rs, r_c):
    deltas = STEP * np.arange(len(rs))
    full = detect_transition(deltas, rs, r_c,
                             refine=lambda d: float(np.interp(d, deltas, rs)))
    with pytest.MonkeyPatch.context() as mp:
        calls = _stub_cells(mp, deltas, rs, r_c)
        tr = transition_for_u(0.3, "gs", deltas)
    assert (tr.found, tr.delta_c) == (full.found, full.delta_c)
    assert tr.crossings == full.crossings[:1]
    grid = [d for d in calls if d in deltas]
    if full.found:
        hi = full.crossings[0][1]
        assert grid == [d for d in deltas if d <= hi]   # nothing past the bracket
        assert max(calls) == hi
    else:
        assert grid == list(deltas)


def test_lazy_sweep_cell_failure_past_the_bracket_is_not_reached():
    deltas = STEP * np.arange(8)
    rs = [0.9, 0.8, 0.7, 0.2, 0.1, 0.6, 0.1, 0.05]     # brackets at 2 and 5
    with pytest.MonkeyPatch.context() as mp:
        _stub_cells(mp, deltas, rs, 0.5, fail_at=deltas[6])
        tr = transition_for_u(0.3, "gs", deltas)
    assert tr.found and tr.crossings == [(deltas[2], deltas[3])]
    with pytest.MonkeyPatch.context() as mp:
        _stub_cells(mp, deltas, rs, 0.5, fail_at=deltas[1])
        with pytest.raises(RuntimeError, match="injected"):
            transition_for_u(0.3, "gs", deltas)


# -------------------------
# Duality between the two solver paths
# -------------------------

def test_curve_duality_exact_form():
    # r_ES(Delta, U, phi) = r_GS(Delta, -U, phi + pi) cell by cell, hence
    # the detected transitions coincide when the same threshold is used
    deltas = np.arange(1.0, 3.01, 0.25)
    u = 0.25
    rs_es, rs_gs = [], []
    for d in deltas:
        es = solve_state(ModelParams(L=21, J=1.0, Delta=d, U=u), "es")
        gs = solve_state(ModelParams(L=21, J=1.0, Delta=d, phi=np.pi, U=-u),
                         "gs")
        rs_es.append(1.0 / (21 * np.sum(es.state.density ** 2)))
        rs_gs.append(1.0 / (21 * np.sum(gs.state.density ** 2)))
    assert np.allclose(rs_es, rs_gs, rtol=0, atol=1e-10)
    r_c = critical_r(21, "es")
    t1 = detect_transition(deltas, rs_es, r_c)
    t2 = detect_transition(deltas, rs_gs, r_c)
    assert t1.crossings == t2.crossings


# -------------------------
# Grid scan with persistence
# -------------------------

def test_scan_grid_validation():
    with pytest.raises(ValueError):
        ScanGrid(delta_over_j=(1.0, 0.5), u_over_j=(0.0,))
    with pytest.raises(ValueError):
        ScanGrid(delta_over_j=(1.0,), u_over_j=(0.0,), kind="middle")


SMALL = dict(delta_over_j=(1.6, 2.0, 2.4), u_over_j=(-0.3, 0.3), L=13)


def test_scan_shapes_and_determinism(tmp_path):
    grid = ScanGrid(kind="both", **SMALL)
    res1 = scan_phase_diagram(grid, results_path=str(tmp_path / "a.jsonl"))
    res2 = scan_phase_diagram(grid, results_path=str(tmp_path / "b.jsonl"))
    for kind in ("gs", "es"):
        assert res1.r[kind].shape == (2, 3)
        assert np.array_equal(res1.r[kind], res2.r[kind])
        assert np.all(np.isfinite(res1.r[kind]))
    assert res1.failures == []


def _records(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def _grid_records(path, grid):
    """Store records of the grid's cells; the others are bisection solves."""
    return [r for r in _records(path)
            if r["u"] in grid.u_over_j and r["delta"] in grid.delta_over_j]


def test_scan_resume_reuses_cells(tmp_path):
    path = tmp_path / "cells.jsonl"
    grid = ScanGrid(kind="gs", **SMALL)
    res1 = scan_phase_diagram(grid, results_path=str(path))
    n_lines = len(path.read_text().splitlines())
    assert len(_grid_records(path, grid)) == 6     # one record per cell
    res2 = scan_phase_diagram(grid, results_path=str(path))
    assert len(path.read_text().splitlines()) == n_lines   # nothing re-solved
    assert np.array_equal(res1.r["gs"], res2.r["gs"])


def test_scan_cell_records_carry_the_full_key(tmp_path):
    path = tmp_path / "cells.jsonl"
    grid = ScanGrid(kind="gs", **SMALL)
    res = scan_phase_diagram(grid, results_path=str(path))
    recs = _records(path)
    keys = {cell_key(ModelParams(L=r["L"], Delta=r["delta"], U=r["u"]),
                     r["kind"], r["preparation"], None, SolverOptions())
            for r in recs}
    assert len(keys) == len(recs)            # distinct, reconstructible keys
    assert keys == {r["key"] for r in recs}
    by_cell = {(r["u"], r["delta"]): r["r"] for r in recs}
    assert by_cell[(-0.3, 1.6)] == res.r["gs"][0, 0]
    assert all(r["ok"] for r in recs)


def test_scan_detects_transitions_per_u(tmp_path):
    grid = ScanGrid(delta_over_j=tuple(np.arange(1.0, 3.01, 0.25)),
                    u_over_j=(0.0,), L=21, kind="both")
    res = scan_phase_diagram(grid, results_path=str(tmp_path / "t.jsonl"))
    for kind in ("gs", "es"):
        tr = res.transitions[kind][0]
        assert tr.found
        assert tr.delta_c == pytest.approx(2.0, abs=0.05)
    assert res.phases is not None
    assert res.phases.shape == (1, 9)
    assert res.phases[0, 0] == "IV" and res.phases[0, -1] == "II"


def test_failed_bisection_solve_ends_only_that_detection(fail_solves,
                                                         refinement_points):
    # (gs, U = 0.25) fails at its second refinement solve. (gs, U = 0.75)
    # loses the grid cell 1.5, so its bracket is (1, 2); its regula-falsi
    # point lies within 0.2 widths of the midpoint, so ITP's first point is
    # that midpoint, the failed cell, whose record the refinement reads back
    deltas = np.arange(0.0, 4.01, 0.5)
    second = refinement_points(13, deltas, "gs", 0.25)[1]
    fail_solves({("gs", 0.25, second), ("gs", 0.75, 1.5)})
    grid = ScanGrid(delta_over_j=tuple(deltas), u_over_j=(0.0, 0.25, 0.75),
                    L=13, kind="gs")
    res = scan_phase_diagram(grid)
    found, at_second, on_cell = res.transitions["gs"]
    assert found.found
    assert (at_second.found, at_second.delta_c, at_second.crossings,
            at_second.refine_solves) == (False, None, [(1.5, 2.0)], 2)
    assert at_second.message.startswith(f"refinement failed at Delta={second:.6g}: "
                                        "solver did not converge")
    assert (on_cell.found, on_cell.delta_c, on_cell.crossings,
            on_cell.refine_solves) == (False, None, [(1.0, 2.0)], 1)
    assert on_cell.message.startswith("refinement failed at Delta=1.5: solver did "
                                      "not converge")
    assert [f[:3] for f in res.failures] == [("gs", 0.75, 1.5),
                                             ("gs", 0.25, second)]


# a (kind, U) grid at L = 13 whose rows' first brackets are (2.0, 2.25) for
# gs at U = 0, (1.25, 1.5) for gs at 0.4 and es at -0.4 and (1.75, 2.0) for
# es at 0; the other two rows have none
ORACLE = ScanGrid(delta_over_j=tuple(np.arange(1.0, 3.01, 0.25)),
                  u_over_j=(-0.4, 0.0, 0.4), L=13, kind="both")


def _lone_scan(grid, opts):
    """(r, transitions, failures) of scan_phase_diagram from lone solves: each
    (kind, U) row filled cell by cell, then detected alone with
    detect_transition(..., refine=lone solve). A refinement point is solved
    warm from the nearest solved Delta of its row (the lower on a tie) and,
    where the model the kind solves is focusing, also from the nearest on
    the other side, if those solves are certified; the first warm solve is
    kept if every one converges certified to the same r within 1e-8, and
    else the point is solved cold."""
    deltas = np.asarray(grid.delta_over_j)

    def solve_at(kind, u, delta, ends=()):
        params = ModelParams(L=grid.L, J=1.0, Delta=float(delta), phi=grid.phi, U=u)
        if ends and all(end.certified for end in ends):
            warm = [phasescan.solve_state(params, kind, opts, start=warm_start(
                params, kind, end.state.amplitudes.real)) for end in ends]
            if all(sol.converged and sol.certified and abs(
                    participation_ratio(sol.state) - participation_ratio(warm[0].state))
                   <= 1e-8 for sol in warm):
                return warm[0]
        return require_converged(phasescan.solve_state(params, kind, opts),
                                 params, kind)

    r, solved, transitions, failures = {}, {}, {}, []
    for kind in grid.kinds:
        r[kind] = np.full((len(grid.u_over_j), deltas.size), np.nan)
        for i, u in enumerate(grid.u_over_j):
            solved[kind, u] = {}
            for k, delta in enumerate(deltas):
                try:
                    sol = solved[kind, u][delta] = solve_at(kind, u, delta)
                    r[kind][i, k] = participation_ratio(sol.state)
                except RuntimeError as exc:
                    failures.append((kind, u, float(delta), str(exc)))
    for kind in grid.kinds:
        transitions[kind] = []
        r_c = critical_r(grid.L, kind)
        for i, u in enumerate(grid.u_over_j):
            valid = np.isfinite(r[kind][i])
            mids, row = [], solved[kind, u]

            def refine(delta, kind=kind, u=u, row=row):
                mids.append(delta)
                near = min(row, key=lambda d: (abs(d - delta), d))
                ends = [near]
                if (u > 0) == (kind == "gs") and u != 0:        # focusing
                    ends.append(min((d for d in row if (d > delta) == (near < delta)),
                                    key=lambda d: abs(d - delta)))
                row[delta] = solve_at(kind, u, delta, [row[d] for d in ends])
                return participation_ratio(row[delta].state)

            try:
                tr = detect_transition(deltas[valid], r[kind][i][valid], r_c, refine)
            except RuntimeError as exc:
                tr = replace(detect_transition(deltas[valid], r[kind][i][valid], r_c),
                             delta_c=None, found=False, refine_solves=len(mids),
                             message=f"refinement failed at Delta={mids[-1]:.6g}: {exc}")
                if (kind, u, mids[-1], str(exc)) not in failures:
                    failures.append((kind, u, mids[-1], str(exc)))
            transitions[kind].append(tr)
    return r, transitions, failures


def test_scan_equals_lone_detection_row_by_row(monkeypatch, refinement_points):
    # injected non-convergence: gs at U = 0 loses the grid cells 1.75 and 2.0,
    # so its bracket widens to (1.5, 2.25) and its refinement takes its own
    # course; es at U = -0.4 fails at its second refinement solve
    second = refinement_points(13, ORACLE.delta_over_j, "es", -0.4)[1]
    fail = {("gs", 0.0, 1.75), ("gs", 0.0, 2.0), ("es", -0.4, second)}
    inner = phasescan.solve_state

    def solve(params, kind, opts, start=None):
        sol = inner(params, kind, opts, start=start)
        if (kind, params.U, params.Delta) in fail:
            return replace(sol, converged=False)
        return sol

    monkeypatch.setattr(phasescan, "solve_state", solve)
    opts = SolverOptions()
    res = scan_phase_diagram(ORACLE, opts)
    r, transitions, failures = _lone_scan(ORACLE, opts)
    for kind in ("gs", "es"):
        assert res.r[kind].tobytes() == r[kind].tobytes()
        assert res.transitions[kind] == transitions[kind]
    assert res.failures == failures
    gs0, es_neg = res.transitions["gs"][1], res.transitions["es"][0]
    assert gs0.found and gs0.crossings == [(1.5, 2.25)]
    assert es_neg.message.startswith(f"refinement failed at Delta={second:.6g}: ")
    assert es_neg.refine_solves == 2
    assert [f[:3] for f in failures] == [("gs", 0.0, 1.75), ("gs", 0.0, 2.0),
                                         ("es", -0.4, second)]
    assert sum(tr.found for trs in res.transitions.values() for tr in trs) == 3


def _report_uncertified(monkeypatch, which):
    """Make the scan's solves for which which(kind, U, Delta, start) holds
    report certified=False, as solves that fail the certificate do."""
    inner = phasescan.solve_state

    def solve(params, kind, opts, start=None):
        sol = inner(params, kind, opts, start=start)
        return (replace(sol, certified=False)
                if which(kind, params.U, params.Delta, start) else sol)

    monkeypatch.setattr(phasescan, "solve_state", solve)


def _is_warm(start):
    """Whether a solve_state `start` is a warm_start: it has used no
    iterations (batched_starts' entries have used some)."""
    return start is not None and start[3] == 0


def test_fresh_scan_batches_the_grid_once_and_each_bisection_level_once(
        tmp_path, monkeypatch):
    # every solve reports uncertified, so no refinement point starts warm
    # and each level's points are solved cold, as one batch
    path = tmp_path / "cells.jsonl"
    _report_uncertified(monkeypatch, lambda *cell: True)
    batches = _count_calls(monkeypatch, "batched_starts")
    res = scan_phase_diagram(ORACLE, results_path=str(path))
    (grid_cells, grid_kinds, _), *levels = batches
    assert len(grid_cells) == 2 * 3 * 9
    assert grid_kinds == ["gs"] * 27 + ["es"] * 27
    # four brackets of width 0.25, which bisection halves to BISECTION_TOL in
    # 8 levels; ITP needs 3 steps for the two at 2 and 4 for the two at 1.5.
    # One batch per step, holding every refining row's point
    assert [t.found for trs in res.transitions.values() for t in trs] == [
        False, True, True, True, True, False]
    assert [t.refine_solves for trs in res.transitions.values() for t in trs] == [
        0, 3, 4, 4, 3, 0]
    assert [len(cells) for cells, *_ in levels] == [4, 4, 4, 2]
    assert all(len(set(kinds)) == 2 for _, kinds, _ in levels)
    assert not any("start" in rec or rec["certified"] for rec in _records(path))
    # a level whose points are all stored makes no call
    lines = path.read_text().splitlines(keepends=True)
    second = lines[54 + 4:54 + 2 * 4]
    path.write_text("".join(line for line in lines if line not in second))
    batches.clear()
    again = scan_phase_diagram(ORACLE, results_path=str(path))
    assert [sorted(p.Delta for p in cells) for cells, *_ in batches] == [
        sorted(json.loads(line)["delta"] for line in second)]
    assert again.transitions == res.transitions


def test_fresh_scan_refines_every_oracle_point_warm_from_its_nearer_end(
        tmp_path, monkeypatch):
    # ORACLE's bracket ends are certified and every warm solve is kept, so no
    # cold batch follows the grid's. Each refinement record chains the key of
    # the nearest Delta its row had solved (the lower on a tie) and, on the
    # focusing rows (gs at U = 0.4, es at U = -0.4), of the nearest on the
    # other side
    path = tmp_path / "cells.jsonl"
    batches = _count_calls(monkeypatch, "batched_starts")
    scan_phase_diagram(ORACLE, results_path=str(path))
    assert len(batches) == 1
    recs = _records(path)
    assert len(recs) == 54 + 14 and all(rec["certified"] for rec in recs)
    assert not any("start" in rec for rec in recs[:54])
    by_key = {rec["key"]: rec for rec in recs}
    for k, rec in enumerate(recs[54:], 54):
        row = [r for r in recs[:k] if (r["kind"], r["u"]) == (rec["kind"], rec["u"])]
        near = min(row, key=lambda r: (abs(r["delta"] - rec["delta"]), r["delta"]))
        ends = [near]
        if rec["u"] == (0.4 if rec["kind"] == "gs" else -0.4):
            ends.append(min((r for r in row if (r["delta"] > rec["delta"])
                             == (near["delta"] < rec["delta"])),
                            key=lambda r: abs(r["delta"] - rec["delta"])))
            assert by_key[rec["crosscheck"]] is ends[1]
        else:
            assert "crosscheck" not in rec
        params = ModelParams(L=ORACLE.L, Delta=rec["delta"], phi=ORACLE.phi, U=rec["u"])
        plain = cell_key(params, rec["kind"], "exact", None, SolverOptions())
        assert rec["warm"] and by_key[rec["start"]] is near
        assert rec["key"] == phasescan._chained(plain, *(r["key"] for r in ends))


def test_scan_interrupted_in_its_refinement_resumes_as_fresh(tmp_path, monkeypatch):
    path = tmp_path / "cells.jsonl"
    fresh = scan_phase_diagram(ORACLE, results_path=str(path))
    lines = path.read_text().splitlines(keepends=True)
    kept = 54 + 6          # the grid, the first level and half the second
    path.write_text("".join(lines[:kept]) + lines[kept][:40])     # then torn
    solves = _count_calls(monkeypatch, "solve_state")
    batches = _count_calls(monkeypatch, "batched_starts")
    again = scan_phase_diagram(ORACLE, results_path=str(path))
    assert path.read_text() == "".join(lines)
    for kind in ORACLE.kinds:
        assert again.r[kind].tobytes() == fresh.r[kind].tobytes()
    assert again.transitions == fresh.transitions
    # solved: each missing point once from each record it starts from, and
    # once each stored record whose state those need, for that state (a
    # stored warm point from its own start, which needs that one's state)
    recs = {rec["key"]: rec for rec in map(json.loads, lines)}
    missing = [json.loads(line) for line in lines[kept:]]
    stored = set()
    for rec in missing:
        for key in (rec["start"], rec.get("crosscheck")):
            while key and key not in {r["key"] for r in missing}:
                stored.add(key)
                key = recs[key].get("start")
    needed = ([r for r in missing for _ in range(1 + ("crosscheck" in r))]
              + [recs[k] for k in stored])
    assert sorted((p.Delta, p.U, kind) for p, kind, *_ in solves) == sorted(
        (r["delta"], r["u"], r["kind"]) for r in needed)
    assert batches == []


def test_scan_on_a_complete_store_solves_nothing(tmp_path, monkeypatch):
    path = tmp_path / "cells.jsonl"
    fresh = scan_phase_diagram(ORACLE, results_path=str(path))
    text = path.read_text()
    solves = _count_calls(monkeypatch, "solve_state")
    batches = _count_calls(monkeypatch, "batched_starts")
    again = scan_phase_diagram(ORACLE, results_path=str(path))
    assert solves == [] and batches == []
    assert path.read_text() == text
    for kind in ORACLE.kinds:
        assert again.r[kind].tobytes() == fresh.r[kind].tobytes()
    assert again.transitions == fresh.transitions


def _cold_detection(grid, kind, u):
    """detect_transition of the row (kind, U) from lone cold solves: the
    refinement as it ran before points started warm."""
    def r_at(delta):
        params = ModelParams(L=grid.L, Delta=float(delta), phi=grid.phi, U=u)
        return participation_ratio(solve_state(params, kind).state)

    deltas = np.asarray(grid.delta_over_j)
    return detect_transition(deltas, [r_at(d) for d in deltas],
                             critical_r(grid.L, kind), r_at)


def test_row_with_uncertified_ends_refines_cold_as_before(monkeypatch):
    # gs at U = 0.4 reports every solve uncertified: its points are solved
    # cold, bitwise as the cold refinement; the other rows still start warm
    _report_uncertified(monkeypatch, lambda kind, u, delta, start: (kind, u) == ("gs", 0.4))
    warm = _count_calls(monkeypatch, "warm_start")
    res = scan_phase_diagram(ORACLE)
    assert res.transitions["gs"][2] == _cold_detection(ORACLE, "gs", 0.4)
    assert not any((p.U, kind) == (0.4, "gs") for p, kind, _ in warm)
    assert len(warm) == 3 + 2 * 4 + 3            # es at U = -0.4 from both ends


def test_warm_solve_not_kept_is_stored_under_its_chained_key(tmp_path, monkeypatch):
    # every warm solve reports uncertified, so each point is solved cold, as
    # before; its chained record holds that outcome, which a resumed scan
    # reads back without solving
    path = tmp_path / "cells.jsonl"
    with pytest.MonkeyPatch.context() as mp:
        _report_uncertified(mp, lambda kind, u, delta, start: _is_warm(start))
        res = scan_phase_diagram(ORACLE, results_path=str(path))
    for i, u in enumerate(ORACLE.u_over_j):
        for kind in ORACLE.kinds:
            if res.transitions[kind][i].found:
                assert res.transitions[kind][i] == _cold_detection(ORACLE, kind, u)
    recs = _records(path)[54:]
    plain = [rec for rec in recs if "start" not in rec]
    chained = [rec for rec in recs if "start" in rec]
    assert len(plain) == len(chained) == 14
    for cold, rec in zip(plain, chained):
        assert "start" not in cold and not rec["warm"]
        ends = [rec["start"]] + ([rec["crosscheck"]] if "crosscheck" in rec else [])
        assert {k: v for k, v in rec.items()
                if k not in ("key", "start", "crosscheck", "warm")} == {
            k: v for k, v in cold.items() if k != "key"}
        assert rec["key"] == phasescan._chained(cold["key"], *ends)
    solves = _count_calls(monkeypatch, "solve_state")
    again = scan_phase_diagram(ORACLE, results_path=str(path))
    assert solves == [] and again.transitions == res.transitions


@settings(max_examples=60)
@given(L=st.integers(2, 34), delta=st.floats(0.25, 7.75), below=st.floats(1e-3, 0.25),
       above=st.floats(1e-3, 0.25), U=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
       kind=st.sampled_from(["gs", "es"]), phi=st.floats(0.0, 2.0 * np.pi))
@pytest.mark.filterwarnings("ignore:.*self-trapping")
def test_kept_warm_refinement_point_is_no_worse_than_cold(L, delta, below, above, U,
                                                         kind, phi):
    # a refinement point between two solved Deltas, where its warm solve is
    # kept: no higher in E than the cold solve (in the model the kind
    # solves), and at the same state unless it is strictly lower
    opts, store, row = SolverOptions(), phasescan._Store(None), {}
    for d in (delta - below, delta + above):
        cell = (kind, L, U, d, phi, "exact", opts)
        try:
            r, certified, state = phasescan._solve_cell(*cell)
        except RuntimeError:                     # unconverged: not a bracket end
            assume(False)
        row[d] = phasescan._Solved(phasescan._key_of(cell), cell, certified)
        store.states[row[d].key] = state
    rec, = phasescan._refine(store, [row])([0], [delta])
    assume(rec.get("warm"))
    p = ModelParams(L=L, Delta=delta, phi=phi, U=U)
    warm = solve_state(p, kind, start=warm_start(p, kind, store.states[rec["start"]]))
    cold = solve_state(p, kind)
    assert participation_ratio(warm.state) == rec["r"]
    sign = -1.0 if kind == "es" else 1.0
    assert sign * warm.energy <= sign * cold.energy + 1e-12
    if sign * warm.energy >= sign * cold.energy - 1e-12:
        assert abs(rec["r"] - participation_ratio(cold.state)) <= 1e-8


def test_refinement_solve_counts_are_pinned(monkeypatch):
    # machine-independent cost of the refinement: ORACLE's 54 grid cells plus
    # 3 + 4 + 4 + 3 ITP solves (bisection took 4 x 8 = 32), and one lazy
    # sweep's 7 grid cells up to its bracket (1.25, 1.5) plus 4 (it took 8).
    # Every refinement point starts warm and is kept; the focusing rows' (gs
    # at U = 0.4, es at U = -0.4) points each take two warm solves
    solves = _count_calls(monkeypatch, "solve_state")
    warm = _count_calls(monkeypatch, "warm_start")
    scan_phase_diagram(ORACLE)
    assert len(warm) == 3 + 2 * 4 + 2 * 4 + 3
    assert len(solves) == 54 + len(warm)
    solves.clear()
    warm.clear()
    tr = transition_for_u(0.4, "gs", STEP * np.arange(13), L=13)
    assert tr.crossings == [(1.25, 1.5)] and tr.refine_solves == 4
    assert len(warm) == 2 * 4 and len(solves) == 7 + len(warm)


def _count_calls(monkeypatch, name):
    """Count the calls phasescan makes to one of its solvers."""
    calls = []
    inner = getattr(phasescan, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(phasescan, name, counted)
    return calls


def test_cell_key_covers_every_input(monkeypatch):
    params = ModelParams(L=13, Delta=1.5, U=0.3)
    ramp, opts = RampProtocol(duration=2.0), SolverOptions()
    base = cell_key(params, "gs", "ramped", ramp, opts)
    assert cell_key(ModelParams(L=np.int64(13), Delta=np.float64(1.5), U=0.3),
                    "gs", "ramped", replace(ramp), SolverOptions()) == base
    variants = [cell_key(replace(params, **{name: value}), "gs", "ramped",
                         ramp, opts)
                for name, value in [("L", 15), ("J", 0.5), ("Delta", 1.5 + 1e-15),
                                    ("phi", 1.0), ("U", -0.3)]]
    variants += [cell_key(params, "es", "ramped", ramp, opts),
                 cell_key(params, "gs", "exact", None, opts)]
    variants += [cell_key(params, "gs", "ramped",
                          replace(ramp, **{name: value}), opts)
                 for name, value in [("duration", 3.0), ("hold", 0.5)]]
    variants += [cell_key(params, "gs", "ramped", ramp,
                          replace(opts, **{name: value}))
                 for name, value in [("residual_tol", 1e-9), ("max_iterations", 10)]]
    monkeypatch.setattr(phasescan, "__version__", "0.0.0")
    variants.append(cell_key(params, "gs", "ramped", ramp, opts))
    assert len(set(variants) | {base}) == len(variants) + 1


def test_ramped_resume_reads_every_ramp_back(tmp_path, monkeypatch):
    path = tmp_path / "cells.jsonl"
    grid = ScanGrid(delta_over_j=(0.5, 2.0), u_over_j=(0.0,), L=13, kind="gs",
                    preparation="ramped")
    fresh = scan_phase_diagram(grid, results_path=str(path))
    assert fresh.transitions["gs"][0].found
    ramps = _count_calls(monkeypatch, "ramp_prepare")
    again = scan_phase_diagram(grid, results_path=str(path))
    assert ramps == []
    assert np.array_equal(again.r["gs"], fresh.r["gs"])
    assert again.transitions["gs"][0].delta_c == fresh.transitions["gs"][0].delta_c


def test_torn_last_line_is_skipped_then_cut_off(tmp_path, monkeypatch, caplog):
    path = tmp_path / "cells.jsonl"
    grid = ScanGrid(kind="gs", **SMALL)
    fresh = scan_phase_diagram(grid, results_path=str(path), detect=False)
    text = path.read_text()
    path.write_text(text[:-40])                   # a kill during the last append
    solves = _count_calls(monkeypatch, "solve_state")
    with caplog.at_level(logging.WARNING, logger="nlaa.phasescan"):
        again = scan_phase_diagram(grid, results_path=str(path), detect=False)
    assert "torn last line 6" in caplog.text
    assert len(solves) == 1
    assert np.array_equal(again.r["gs"], fresh.r["gs"])
    assert path.read_text() == text               # torn piece replaced, not kept
    caplog.clear()
    scan_phase_diagram(grid, results_path=str(path), detect=False)
    assert caplog.text == "" and len(solves) == 1


def test_unterminated_last_record_is_used_and_terminated(tmp_path, monkeypatch):
    path = tmp_path / "cells.jsonl"
    grid = ScanGrid(kind="gs", **SMALL)
    scan_phase_diagram(grid, results_path=str(path), detect=False)
    path.write_text(path.read_text().rstrip("\n"))
    solves = _count_calls(monkeypatch, "solve_state")
    wider = replace(grid, delta_over_j=SMALL["delta_over_j"] + (2.8,))
    scan_phase_diagram(wider, results_path=str(path), detect=False)
    assert len(solves) == 2                       # only the new column
    assert len(_records(path)) == 8


def test_half_stored_row_solves_only_its_missing_cells(tmp_path, monkeypatch):
    grid = ScanGrid(delta_over_j=(0.4, 1.2, 2.0, 2.8), u_over_j=(0.3,), L=13,
                    kind="gs")
    full, half = tmp_path / "full.jsonl", tmp_path / "half.jsonl"
    fresh = scan_phase_diagram(grid, results_path=str(full), detect=False)
    lines = full.read_text().splitlines(keepends=True)
    half.write_text(lines[0] + lines[2])                 # Delta = 0.4 and 2.0
    batches = _count_calls(monkeypatch, "batched_starts")
    solves = _count_calls(monkeypatch, "solve_state")
    again = scan_phase_diagram(grid, results_path=str(half), detect=False)
    assert [[p.Delta for p in cells] for cells, *_ in batches] == [[1.2, 2.8]]
    assert [params.Delta for params, *_ in solves] == [1.2, 2.8]
    assert again.r["gs"].tobytes() == fresh.r["gs"].tobytes()
    assert half.read_text() == lines[0] + lines[2] + lines[1] + lines[3]


def test_failed_record_is_retried_and_replaced(tmp_path):
    path = tmp_path / "cells.jsonl"
    grid = ScanGrid(kind="gs", **SMALL)
    fresh = scan_phase_diagram(grid, results_path=str(path), detect=False)
    recs = _records(path)
    failed = {k: v for k, v in recs[2].items() if k != "r"}
    recs[2] = {**failed, "ok": False, "error": "injected"}
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    again = scan_phase_diagram(grid, results_path=str(path), detect=False)
    assert again.failures == []
    assert np.array_equal(again.r["gs"], fresh.r["gs"])
    last = _records(path)[-1]
    assert last["key"] == failed["key"] and last["ok"]


def test_records_of_older_versions_are_recomputed(tmp_path):
    path = tmp_path / "cells.jsonl"
    grid = ScanGrid(kind="gs", **SMALL)
    old = [{"kind": "gs", "L": 13, "u": u, "delta": d, "preparation": "exact",
            "ok": True, "r": 0.5}
           for u in SMALL["u_over_j"] for d in SMALL["delta_over_j"]]
    path.write_text("".join(json.dumps(r) + "\n" for r in old))
    res = scan_phase_diagram(grid, results_path=str(path), detect=False)
    fresh = scan_phase_diagram(grid, detect=False)
    assert np.array_equal(res.r["gs"], fresh.r["gs"])
    assert len(_records(path)) == 12


@given(deltas=st.lists(st.sampled_from([1.2, 1.6, 2.0, 2.4, 2.8]), min_size=2,
                       max_size=4, unique=True).map(sorted),
       us=st.lists(st.sampled_from([-0.4, 0.0, 0.4]), min_size=1, max_size=2,
                   unique=True).map(sorted),
       kind=st.sampled_from(["gs", "es", "both"]),
       phi=st.sampled_from([0.0, 0.5, np.pi]))
def test_resumed_scan_equals_fresh_and_solves_nothing(deltas, us, kind, phi):
    grid = ScanGrid(delta_over_j=tuple(deltas), u_over_j=tuple(us), L=13,
                    kind=kind, phi=phi)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "cells.jsonl")
        fresh = scan_phase_diagram(grid, results_path=path)
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_calls(mp, "solve_state")
            again = scan_phase_diagram(grid, results_path=path)
    assert calls == []
    for k in grid.kinds:
        assert np.array_equal(again.r[k], fresh.r[k])
        assert ([t.delta_c for t in again.transitions[k]]
                == [t.delta_c for t in fresh.transitions[k]])


# -------------------------
# Phase labels
# -------------------------

def test_classify_phase_rules():
    # below both curves -> IV, above both -> II
    assert classify_phase(1.0, 0.0, 2.0, 2.0) == "IV"
    assert classify_phase(3.0, 0.0, 2.0, 2.0) == "II"
    # between the curves: U > 0 has dc_gs < dc_es (GS localizes first) -> III
    assert classify_phase(1.9, 0.8, 1.5, 3.4) == "III"
    # between the curves: U < 0 has dc_es < dc_gs -> I
    assert classify_phase(2.2, -0.5, 2.8, 1.6) == "I"
