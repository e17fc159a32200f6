"""Real-time propagation: quenches, ramps, conservation, oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.special import jv

from nlaa import (
    LatticeState,
    ModelParams,
    RampProtocol,
    evolve,
    participation_ratio,
    quasiperiodic_potential,
    ramp_prepare,
    solve_state,
    transport_experiment,
)
from nlaa import dynamics
from nlaa.dynamics import EXPERIMENT_RAMP

# a short ramp keeps the batch tests fast; batching does not depend on length
SHORT_RAMP = RampProtocol(duration=0.4, hold=0.1)


def test_dt_validation():
    p = ModelParams(L=11, J=1.0)
    st = LatticeState.single_site(11, 5)
    for dt in (0.02, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt must lie in"):
            evolve(p, st, 1.0, dt=dt)
    for t_final in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="t_final must be finite"):
            evolve(p, st, t_final)


@pytest.mark.parametrize("kw, message", [
    (dict(duration=np.nan), "ramp duration"),
    (dict(duration=np.inf), "ramp duration"),
    (dict(duration=1.0, hold=np.nan), "hold time"),
    (dict(duration=1.0, hold=np.inf), "hold time"),
    (dict(duration=1.0, hold=-0.5), "hold time"),
], ids=["duration-nan", "duration-inf", "hold-nan", "hold-inf",
        "hold-negative"])
def test_ramp_protocol_rejects_non_finite_times(kw, message):
    with pytest.raises(ValueError, match=message):
        RampProtocol(**kw)


def test_empty_ramp_batch_is_rejected_like_an_empty_evolve():
    with pytest.raises(ValueError, match="a batch needs at least one chain"):
        ramp_prepare([], EXPERIMENT_RAMP)


@pytest.mark.parametrize("stride", [0, -1, 2.5])
def test_snapshot_stride_validation(stride):
    with pytest.raises(ValueError, match="snapshot stride"):
        evolve(ModelParams(L=11), LatticeState.single_site(11, 5), 1.0,
               snapshot_stride=stride)


def test_snapshot_grid():
    p = ModelParams(L=11, J=1.0, Delta=0.5)
    traj = evolve(p, LatticeState.single_site(11, 5), 1.0, dt=1e-3,
                  snapshot_stride=100)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.diff(traj.times), 0.1, atol=1e-12)
    assert len(traj.states) == traj.times.size


def test_norm_and_energy_conserved():
    p = ModelParams(L=21, J=1.0, Delta=1.0, U=0.8)
    traj = transport_experiment(p, 2.0)
    assert np.max(traj.norm_drift) < 1e-10
    assert np.max(np.abs(traj.energy - traj.energy[0])) < 1e-10


def test_time_reversal_roundtrip():
    # conjugation reverses the flow for the real potential, at U=0 and with
    # the density-dependent term alike
    for U in (0.0, 0.5):
        p = ModelParams(L=21, J=1.0, Delta=1.2, U=U)
        start = LatticeState.single_site(21, 10)
        fwd = evolve(p, start, 2.0).final_state()
        back = evolve(p, LatticeState(np.conj(fwd.amplitudes)), 2.0).final_state()
        fidelity = abs(np.vdot(np.conj(back.amplitudes), start.amplitudes))
        assert fidelity > 1.0 - 1e-8


def test_bessel_spreading_within_integrator_window():
    # free-lattice oracle |phi_j(t)| = |J_{j-j0}(2t)|; the open boundary
    # truncates the ideal infinite-chain solution, so the certified window
    # stops at t = 8.5 where the boundary terms are still below 1e-6
    L, j0, t_final = 61, 30, 8.5
    p = ModelParams(L=L, J=1.0, Delta=0.0)
    traj = evolve(p, LatticeState.single_site(L, j0), t_final, dt=1e-3,
                  snapshot_stride=100)
    orders = np.arange(L) - j0
    worst = 0.0
    for t, st in zip(traj.times, traj.states):
        exact = np.abs(jv(orders, 2.0 * t))
        worst = max(worst, float(np.max(np.abs(np.abs(st.amplitudes) - exact))))
    assert worst < 1e-6


@given(L=st.sampled_from((5, 13, 21)), delta=st.floats(0.0, 4.0),
       u=st.floats(-1.0, 1.0), t_final=st.floats(0.0, 2.0), data=st.data())
def test_constant_j_evolution_conserves_and_keeps_the_gauge(L, delta, u,
                                                           t_final, data):
    parts = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * L,
                               max_size=2 * L))
    amps = np.array(parts[:L]) + 1j * np.array(parts[L:])
    assume(np.linalg.norm(amps) > 1e-3)
    p = ModelParams(L=L, J=1.0, Delta=delta, U=u)
    traj = evolve(p, LatticeState(amps), t_final)
    assert np.max(traj.norm_drift) <= 1e-10
    assert np.max(np.abs(traj.energy - traj.energy[0])) <= 1e-10
    # J -> -J with phi_j -> (-1)^j phi_j is exact in floating point: every
    # product and sum flips sign together, and DOP853 only sees magnitudes
    sign = (-1.0) ** np.arange(L)
    gauged = evolve(replace(p, J=-1.0), LatticeState(sign * amps), t_final)
    for name in ("times", "r", "d", "energy", "norm_drift"):
        assert np.array_equal(getattr(gauged, name), getattr(traj, name)), name


def test_step_budget_scales_with_the_interval_and_fits_dop853(monkeypatch):
    # a budget of 30 steps per unit time lets a stride of 1000 grid steps
    # pass like a stride of 100; one step per interval, a budget blind to
    # the interval, passes the short stride and fails the long one
    p = ModelParams(L=13, J=1.0, Delta=1.0, U=0.5)
    start = LatticeState.single_site(13, 6)
    monkeypatch.setattr(dynamics, "MIN_STEP_BUDGET", 1)
    monkeypatch.setattr(dynamics, "STEPS_PER_TIME", 30)
    short = evolve(p, start, 1.0, snapshot_stride=100)
    long = evolve(p, start, 1.0, snapshot_stride=1000)
    assert np.array_equal(long.times, short.times[[0, -1]])
    assert abs(long.r[-1] - short.r[-1]) < 1e-8
    monkeypatch.setattr(dynamics, "STEPS_PER_TIME", 0)
    evolve(p, start, 1.0, snapshot_stride=100)
    with pytest.raises(RuntimeError, match="step budget spent"):
        evolve(p, start, 1.0, snapshot_stride=1000)
    # a budget past DOP853's 32-bit step counter is clipped, not an error
    monkeypatch.setattr(dynamics, "STEPS_PER_TIME", 1e300)
    assert np.array_equal(evolve(p, start, 1.0, snapshot_stride=1000).r, long.r)


# -------------------------
# Ramp protocol
# -------------------------

def test_experiment_ramp_default_duration():
    # v = 275 Hz/ms up to J/h = 275 Hz: 1 ms, the CLI's default ramp (its
    # velocity > 0 check is in test_cli)
    proto = EXPERIMENT_RAMP
    assert proto.duration == pytest.approx(2 * np.pi * 0.275, rel=1e-14)
    assert proto.hold == 0.0
    assert proto.target == "ground"
    with pytest.raises(ValueError):
        RampProtocol(duration=0.0)


def test_hopping_fraction_profile():
    proto = RampProtocol(duration=2.0, hold=1.0)
    assert proto.hopping_fraction(0.0) == 0.0
    assert proto.hopping_fraction(1.0) == 0.5
    assert proto.hopping_fraction(2.0) == 1.0
    assert proto.hopping_fraction(2.7) == 1.0    # flat during the hold


def test_ramp_starts_at_potential_minimum():
    p = ModelParams(L=21, J=1.0, Delta=1.3)
    eps = quasiperiodic_potential(p)
    _, traj = ramp_prepare(p, EXPERIMENT_RAMP)
    first = traj.states[0].density
    assert np.argmax(first) == np.argmin(eps)
    assert first[np.argmin(eps)] == pytest.approx(1.0, abs=1e-12)


def test_ramp_flat_potential_starts_at_lowest_index():
    # all eps equal: the tie breaks toward the lowest site index
    p = ModelParams(L=13, J=1.0, Delta=0.0)
    _, traj = ramp_prepare(p, EXPERIMENT_RAMP)
    assert np.argmax(traj.states[0].density) == 0


def test_ramp_excited_target_starts_at_potential_maximum():
    # the ES procedure runs on the negated model, so it starts where the
    # original potential is highest
    p = ModelParams(L=21, J=1.0, Delta=1.3)
    eps = quasiperiodic_potential(p)
    proto = EXPERIMENT_RAMP.for_kind("es")
    _, traj = ramp_prepare(p, proto)
    assert np.argmax(traj.states[0].density) == np.argmax(eps)


def test_slow_ramp_approaches_exact_state():
    # at Delta/J = 3 the default experimental ramp is nearly adiabatic
    p = ModelParams(L=21, J=1.0, Delta=3.0)
    final, _ = ramp_prepare(p, EXPERIMENT_RAMP)
    exact = solve_state(p, "gs")
    assert abs(participation_ratio(final)
               - participation_ratio(exact.state)) < 0.02


def test_hold_extends_total_time():
    p = ModelParams(L=13, J=1.0, Delta=1.0)
    # a 0.5 ms hold (test_cli checks that --hold-ms 0.5 gives this hold)
    proto = replace(EXPERIMENT_RAMP, hold=0.5 * EXPERIMENT_RAMP.duration)
    _, traj = ramp_prepare(p, proto)
    # the run ends on the time grid of step dt, so the endpoint rounds to dt/2
    assert traj.times[-1] == pytest.approx(proto.duration + proto.hold,
                                           abs=5e-4)


# ramp_prepare's final r at (L = 21, U = 0.3), as the fixed-step RK4
# integrator this module used before DOP853 gave it on the same time grid
# (dt = 1e-3). perfbench's ramp_fit reference holds such r at RK4_TOL = 1e-6.
RK4_RAMPED_R = [("gs", 0.2, 0.18923134933906144),
                ("gs", 1.8, 0.06526930392036258),
                ("gs", 3.4, 0.05400221100097506),
                ("es", 1.8, 0.06400197541388723)]


@pytest.mark.parametrize("kind, delta, r_rk4", RK4_RAMPED_R)
def test_ramped_r_matches_the_rk4_reference(kind, delta, r_rk4):
    p = ModelParams(L=21, J=1.0, Delta=delta, U=0.3)
    final, _ = ramp_prepare(p, EXPERIMENT_RAMP.for_kind(kind))
    assert abs(participation_ratio(final) - r_rk4) <= 1e-6


def test_for_kind_sets_the_target():
    proto = replace(EXPERIMENT_RAMP, hold=0.5 * EXPERIMENT_RAMP.duration)
    es = proto.for_kind("es")
    assert es.target == "highest-excited"
    assert (es.duration, es.hold) == (proto.duration, proto.hold)
    assert es.for_kind("gs") == proto
    with pytest.raises(ValueError):
        proto.for_kind("both")


# -------------------------
# Batched propagation
# -------------------------

def _assert_same_trajectory(a, b):
    for name in ("times", "r", "d", "energy", "norm_drift"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert len(a.states) == len(b.states)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.amplitudes, sb.amplitudes)
        assert sa.center == sb.center


@given(L=st.sampled_from((5, 13, 21)),
       deltas=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
       u=st.floats(-1.0, 1.0), kind=st.sampled_from(("gs", "es")),
       data=st.data())
def test_batched_ramp_rows_equal_lone_ramps_bitwise(L, deltas, u, kind, data):
    proto = SHORT_RAMP.for_kind(kind)
    params = [ModelParams(L=L, J=1.0, Delta=d, U=u) for d in deltas]
    order = data.draw(st.permutations(range(len(params))))
    finals, traj = ramp_prepare(params, proto)
    shuffled, shuffled_traj = ramp_prepare([params[i] for i in order], proto)
    assert traj.errors == [None] * len(params)
    for i, p in enumerate(params):
        lone, lone_traj = ramp_prepare(p, proto)
        j = order.index(i)
        assert np.array_equal(finals[i].amplitudes, lone.amplitudes)
        assert np.array_equal(shuffled[j].amplitudes, lone.amplitudes)
        _assert_same_trajectory(traj.rows[i], lone_traj)
        _assert_same_trajectory(shuffled_traj.rows[j], lone_traj)
    # the batch drift is the per-snapshot maximum over its rows
    assert np.array_equal(traj.norm_drift,
                          np.max([row.norm_drift for row in traj.rows], axis=0))


def test_batched_evolve_mixes_ground_and_negated_rows():
    # one batch may carry rows of either sign of J (ground and excited
    # preparations); each row is its lone evolution, bitwise
    p = ModelParams(L=15, J=1.0, Delta=0.8, U=0.3)
    rows = [p, p.negated(), ModelParams(L=15, J=0.5, Delta=1.1, U=-0.2)]
    starts = [LatticeState.single_site(15, j) for j in (7, 3, 12)]
    batch = evolve(rows, starts, 0.5, snapshot_stride=50)
    for params, start, row in zip(rows, starts, batch.rows):
        _assert_same_trajectory(row, evolve(params, start, 0.5, snapshot_stride=50))
    with pytest.raises(ValueError):
        evolve(rows, starts[:2], 0.5)                       # one state per row
    with pytest.raises(ValueError):
        evolve([p, ModelParams(L=13)],                      # one chain length
               [starts[0], LatticeState.single_site(13, 6)], 0.5)


def test_batched_ramp_reports_an_aborted_row_and_keeps_the_others():
    with pytest.warns(UserWarning, match="self-trapping"):
        wild = ModelParams(L=13, J=1.0, Delta=1.0, U=4e4)
    calm = [ModelParams(L=13, J=1.0, Delta=1.0, U=0.3),
            ModelParams(L=13, J=1.0, Delta=2.5, U=-0.5)]
    with pytest.raises(RuntimeError) as lone_error:
        ramp_prepare(wild, SHORT_RAMP)
    finals, traj = ramp_prepare([calm[0], wild, calm[1]], SHORT_RAMP)
    assert finals[1] is None and traj.rows[1] is None
    assert traj.errors == [None, str(lone_error.value), None]
    assert "at t=" in traj.errors[1]
    without, _ = ramp_prepare(calm, SHORT_RAMP)
    for final, alone, p in zip((finals[0], finals[2]), without, calm):
        lone, _ = ramp_prepare(p, SHORT_RAMP)
        assert np.array_equal(final.amplitudes, lone.amplitudes)
        assert np.array_equal(final.amplitudes, alone.amplitudes)
    # rows of different U and J under a drive, each scaling the ramp by its
    # own J: the abort of one row leaves the others their lone runs
    rows = [calm[0], wild, calm[1].negated()]
    starts = [LatticeState.single_site(13, j) for j in (6, 2, 9)]
    batch = evolve(rows, starts, 0.5, snapshot_stride=50, ramp=SHORT_RAMP)
    for p, start, row, error in zip(rows, starts, batch.rows, batch.errors):
        def lone():
            return evolve(p, start, 0.5, snapshot_stride=50, ramp=SHORT_RAMP)
        if p is wild:
            with pytest.raises(RuntimeError) as lone_error:
                lone()
            assert row is None and error == str(lone_error.value)
        else:
            assert error is None
            _assert_same_trajectory(row, lone())


def test_norm_drift_past_the_threshold_fails_only_its_row(monkeypatch):
    # at U/J = 400 the norm drifts by ~1e-8 over the short ramp, the calm
    # row by ~1e-12; with the threshold between them only the first aborts
    monkeypatch.setattr(dynamics, "NORM_ABORT", 1e-10)
    with pytest.warns(UserWarning, match="self-trapping"):
        drifting = ModelParams(L=13, J=1.0, Delta=1.0, U=400.0)
    calm = ModelParams(L=13, J=1.0, Delta=1.0, U=0.3)
    with pytest.raises(RuntimeError, match="norm drift .* exceeds 1e-10"):
        ramp_prepare(drifting, SHORT_RAMP)
    finals, traj = ramp_prepare([drifting, calm], SHORT_RAMP)
    assert finals[0] is None and "exceeds 1e-10" in traj.errors[0]
    assert traj.errors[1] is None
    assert np.array_equal(finals[1].amplitudes,
                          ramp_prepare(calm, SHORT_RAMP)[0].amplitudes)


def test_ramp_integration_stops_at_the_kink(monkeypatch):
    # the hopping's slope jumps at t = duration, off the snapshot grid for
    # the experiment's ramp: one integration interval ends there exactly
    stops = []

    class RecordingOde(dynamics.ode):
        def integrate(self, t, *args, **kwargs):
            stops.append(t)
            return super().integrate(t, *args, **kwargs)

    monkeypatch.setattr(dynamics, "ode", RecordingOde)
    _, traj = ramp_prepare(ModelParams(L=13, J=1.0, Delta=1.0), EXPERIMENT_RAMP)
    assert len(traj.times) == 2                  # by default t = 0 and the end
    assert EXPERIMENT_RAMP.duration not in traj.times
    assert stops == sorted(set(stops))
    assert set(stops) == set(traj.times[1:]) | {EXPERIMENT_RAMP.duration}
