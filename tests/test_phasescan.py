"""Transition detection, grid scans with persistence, phase labels."""

import json
import logging
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
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
    scan_phase_diagram,
    solve_state,
    transition_for_u,
)
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


def test_detect_transition_validates_grid():
    with pytest.raises(ValueError):
        detect_transition([2.0, 1.0], [0.9, 0.1], r_c=0.5)
    with pytest.raises(ValueError):
        detect_transition([1.0], [0.9], r_c=0.5)


def test_transition_for_u_linear_anchor():
    tr = transition_for_u(0.0, "gs", L=21, delta_max=3.0, delta_step=0.25)
    assert tr.found
    assert tr.delta_c == pytest.approx(2.0, abs=0.05)


STEP = 0.25                                  # exact in binary: grid = k * STEP


def _stub_cells(mp, deltas, rs, r_c, fail_at=None):
    """Make _cell_r read r off the curve through (deltas, rs), linear between
    grid points, and raise at `fail_at`; return the Delta of every call."""
    calls = []

    def cell_r(kind, L, u, delta, *rest):
        calls.append(delta)
        if delta == fail_at:
            raise RuntimeError("injected cell failure")
        return float(np.interp(delta, deltas, rs))

    mp.setattr(phasescan, "_cell_r", cell_r)
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
        tr = transition_for_u(0.3, "gs", delta_max=deltas[-1], delta_step=STEP)
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
        tr = transition_for_u(0.3, "gs", delta_max=deltas[-1], delta_step=STEP)
    assert tr.found and tr.crossings == [(deltas[2], deltas[3])]
    with pytest.MonkeyPatch.context() as mp:
        _stub_cells(mp, deltas, rs, 0.5, fail_at=deltas[1])
        with pytest.raises(RuntimeError, match="injected"):
            transition_for_u(0.3, "gs", delta_max=deltas[-1], delta_step=STEP)


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
    g = ScanGrid(delta_over_j=(1.0,), u_over_j=(0.0,), preparation="ramped")
    assert g.ramp is not None                 # default protocol filled in


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


def test_scan_parallel_matches_serial(tmp_path):
    grid = ScanGrid(kind="gs", **SMALL)
    ser = scan_phase_diagram(grid, results_path=str(tmp_path / "s.jsonl"))
    par = scan_phase_diagram(grid, results_path=str(tmp_path / "p.jsonl"),
                             workers=2)
    assert np.array_equal(ser.r["gs"], par.r["gs"])
    assert ({r["key"]: r["r"] for r in _records(tmp_path / "s.jsonl")}
            == {r["key"]: r["r"] for r in _records(tmp_path / "p.jsonl")})
    assert (tmp_path / "s.jsonl").read_bytes() == (tmp_path / "p.jsonl").read_bytes()


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
                                    ("beta", 0.6), ("phi", 1.0), ("U", -0.3)]]
    variants += [cell_key(params, "es", "ramped", ramp, opts),
                 cell_key(params, "gs", "exact", None, opts)]
    variants += [cell_key(params, "gs", "ramped",
                          replace(ramp, **{name: value}), opts)
                 for name, value in [("duration", 3.0), ("hold", 0.5),
                                     ("target", "highest-excited")]]
    variants += [cell_key(params, "gs", "ramped", ramp,
                          replace(opts, **{name: value}))
                 for name, value in [("residual_tol", 1e-9), ("max_iterations", 10),
                                     ("imag_time_step", 0.1), ("mixing", 0.5)]]
    monkeypatch.setattr(phasescan, "__version__", "0.0.0")
    variants.append(cell_key(params, "gs", "ramped", ramp, opts))
    assert len(set(variants) | {base}) == len(variants) + 1


def test_ramped_resume_reads_every_ramp_back(tmp_path, monkeypatch):
    path = tmp_path / "cells.jsonl"
    grid = ScanGrid(delta_over_j=(0.5, 2.0), u_over_j=(0.0,), L=13, kind="gs",
                    preparation="ramped", ramp=RampProtocol(duration=1.0))
    fresh = scan_phase_diagram(grid, results_path=str(path))
    assert fresh.transitions["gs"][0].found
    ramps = _count_calls(monkeypatch, "ramp_prepare")
    again = scan_phase_diagram(grid, results_path=str(path))
    assert ramps == []
    assert np.array_equal(again.r["gs"], fresh.r["gs"])
    assert again.transitions["gs"][0].delta_c == fresh.transitions["gs"][0].delta_c
    faster = replace(grid, ramp=RampProtocol(duration=0.8))
    other = scan_phase_diagram(faster, results_path=str(path), detect=False)
    assert len(ramps) == 2
    assert np.array_equal(other.r["gs"],
                          scan_phase_diagram(faster, detect=False).r["gs"])


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
    batches = _count_calls(monkeypatch, "imag_time_starts")
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
