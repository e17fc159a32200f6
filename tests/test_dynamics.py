"""Real-time propagation: quenches, ramps, conservation, oracles."""

import importlib.machinery
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import jv

from nlaa import (
    LatticeState,
    ModelParams,
    RampProtocol,
    evolve,
    momentum_width,
    participation_ratio,
    quasiperiodic_potential,
    ramp_prepare,
    solve_state,
    transport_experiment,
)
from nlaa import dynamics, eigensolve
from nlaa.dynamics import EXPERIMENT_RAMP
from nlaa.model import energy_of

# a short ramp keeps the abort tests fast; an abort comes within it
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
    _, traj = ramp_prepare(p, EXPERIMENT_RAMP, "gs")
    first = traj.states[0].density
    assert np.argmax(first) == np.argmin(eps)
    assert first[np.argmin(eps)] == pytest.approx(1.0, abs=1e-12)


def test_ramp_flat_potential_starts_at_lowest_index():
    # all eps equal: the tie breaks toward the lowest site index
    p = ModelParams(L=13, J=1.0, Delta=0.0)
    _, traj = ramp_prepare(p, EXPERIMENT_RAMP, "gs")
    assert np.argmax(traj.states[0].density) == 0


def test_ramp_excited_target_starts_at_potential_maximum():
    # the ES procedure runs on the negated model, so it starts where the
    # original potential is highest
    p = ModelParams(L=21, J=1.0, Delta=1.3)
    eps = quasiperiodic_potential(p)
    _, traj = ramp_prepare(p, EXPERIMENT_RAMP, "es")
    assert np.argmax(traj.states[0].density) == np.argmax(eps)


def test_slow_ramp_approaches_exact_state():
    # at Delta/J = 3 the default experimental ramp is nearly adiabatic
    p = ModelParams(L=21, J=1.0, Delta=3.0)
    final, _ = ramp_prepare(p, EXPERIMENT_RAMP, "gs")
    exact = solve_state(p, "gs")
    assert abs(participation_ratio(final)
               - participation_ratio(exact.state)) < 0.02


def test_hold_extends_total_time():
    p = ModelParams(L=13, J=1.0, Delta=1.0)
    # a 0.5 ms hold (test_cli checks that --hold-ms 0.5 gives this hold)
    proto = replace(EXPERIMENT_RAMP, hold=0.5 * EXPERIMENT_RAMP.duration)
    _, traj = ramp_prepare(p, proto, "gs")
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
    final, _ = ramp_prepare(p, EXPERIMENT_RAMP, kind)
    assert abs(participation_ratio(final) - r_rk4) <= 1e-6


@pytest.mark.parametrize("batch", [False, True], ids=["lone", "batch"])
@pytest.mark.parametrize("kind", ["gs", "es"])
def test_ramp_energies_are_those_of_the_model_asked_for(kind, batch):
    # es runs on the negated model, and E[phi] is odd under the negation:
    # the energies are negated back, as `solve --kind es` reports E
    targets = [ModelParams(L=13, J=1.0, Delta=d, U=0.3) for d in (1.0, 2.0)]
    targets = targets if batch else targets[:1]
    _, traj = ramp_prepare(targets if batch else targets[0], EXPERIMENT_RAMP,
                           kind, snapshot_stride=100)
    states = traj.states if batch else [[st] for st in traj.states]
    energy = traj.energy if batch else traj.energy[:, None]
    for row, p in enumerate(targets):
        eps = quasiperiodic_potential(p)
        for t, st, e in zip(traj.times, states, energy[:, row]):
            J_t = p.J * EXPERIMENT_RAMP.hopping_fraction(t)
            assert e == energy_of(J_t, eps, p.U, st[row].amplitudes)
        # all population starts on one site j, where E = eps_j - U/2
        site = np.argmin(eps) if kind == "gs" else np.argmax(eps)
        assert energy[0, row] == eps[site] - 0.5 * p.U


def test_ramp_prepare_rejects_a_kind_other_than_gs_or_es():
    with pytest.raises(ValueError, match="kind must be 'gs' or 'es', got 'both'"):
        ramp_prepare(ModelParams(L=13, Delta=1.0), EXPERIMENT_RAMP, "both")


# -------------------------
# Aborts
# -------------------------

def test_evolve_rejects_an_initial_state_of_another_length():
    with pytest.raises(ValueError, match="initial state has 13 sites"):
        evolve(ModelParams(L=15), LatticeState.single_site(13, 6), 0.5)


def test_ramp_that_the_integrator_cannot_follow_raises_at_its_time():
    with pytest.warns(UserWarning, match="self-trapping"):
        wild = ModelParams(L=13, J=1.0, Delta=1.0, U=4e4)
    with pytest.raises(RuntimeError, match="DOP853 failed at t="):
        ramp_prepare(wild, SHORT_RAMP, "gs")


def test_norm_drift_past_the_threshold_aborts_the_ramp(monkeypatch):
    # at U/J = 400 the norm drifts by ~1e-8 over the short ramp
    monkeypatch.setattr(dynamics, "NORM_ABORT", 1e-10)
    with pytest.warns(UserWarning, match="self-trapping"):
        drifting = ModelParams(L=13, J=1.0, Delta=1.0, U=400.0)
    with pytest.raises(RuntimeError, match="norm drift .* exceeds 1e-10"):
        ramp_prepare(drifting, SHORT_RAMP, "gs")


def test_ramp_integration_stops_at_the_kink(monkeypatch):
    # the hopping's slope jumps at t = duration, off the snapshot grid for
    # the experiment's ramp: one integration interval ends there exactly
    stops = []
    dopri853 = dynamics.dopri853

    def recording(fcn, x, y, xend, *args):
        stops.append(xend)
        return dopri853(fcn, x, y, xend, *args)

    monkeypatch.setattr(dynamics, "dopri853", recording)
    _, traj = ramp_prepare(ModelParams(L=13, J=1.0, Delta=1.0), EXPERIMENT_RAMP,
                            "gs")
    assert len(traj.times) == 2                  # by default t = 0 and the end
    assert EXPERIMENT_RAMP.duration not in traj.times
    assert stops == sorted(set(stops))
    assert set(stops) == set(traj.times[1:]) | {EXPERIMENT_RAMP.duration}


# -------------------------
# Batches: one DOP853 system of B chains
# -------------------------

BATCH_DELTAS = np.linspace(0.2, 3.4, 40)        # fit --synthesize's default


@pytest.mark.parametrize("kind", ["gs", "es"])
def test_a_one_row_batch_is_bitwise_the_lone_ramp(kind):
    p = ModelParams(L=21, J=1.0, Delta=1.7, U=0.3)
    lone_final, lone = ramp_prepare(p, EXPERIMENT_RAMP, kind, snapshot_stride=250)
    (final,), batch = ramp_prepare([p], EXPERIMENT_RAMP, kind, snapshot_stride=250)
    assert final.amplitudes.tobytes() == lone_final.amplitudes.tobytes()
    assert batch.times.tobytes() == lone.times.tobytes()
    for name in ("r", "d", "energy"):
        assert getattr(batch, name).shape == (lone.times.size, 1)
        assert getattr(batch, name)[:, 0].tobytes() == getattr(lone, name).tobytes()
    assert batch.norm_drift.tobytes() == lone.norm_drift.tobytes()
    for (row,), st in zip(batch.states, lone.states):
        assert row.amplitudes.tobytes() == st.amplitudes.tobytes()


@pytest.mark.parametrize("L", [13, 21, 34])
@pytest.mark.parametrize("kind", ["gs", "es"])
def test_each_row_of_a_batch_is_within_1e_9_of_its_lone_ramp(kind, L):
    # the batch runs at ODE_TOL / sqrt(40), so each row keeps the error
    # bound of a lone run; the rows need not take the lone runs' steps
    for U in (-0.5, 0.3, 1.0):
        targets = [ModelParams(L=L, J=1.0, Delta=float(d), U=U)
                   for d in BATCH_DELTAS]
        finals, traj = ramp_prepare(targets, EXPERIMENT_RAMP, kind)
        assert traj.r.shape == (2, 40) and traj.norm_drift.shape == (2,)
        assert np.max(traj.norm_drift) <= dynamics.NORM_ABORT
        for p, final, r in zip(targets, finals, traj.r[-1]):
            lone, _ = ramp_prepare(p, EXPERIMENT_RAMP, kind)
            assert r == participation_ratio(final)
            assert abs(r - participation_ratio(lone)) <= 1e-9, (U, p.Delta)


@pytest.mark.parametrize("kind", ["gs", "es"])
def test_a_row_past_the_norm_threshold_aborts_the_batch_naming_its_delta(
        monkeypatch, kind):
    # at U/J = 400 the norm drifts by ~1e-8 over the short ramp; the row's
    # Delta is that of the target, also where es integrates the negated model
    monkeypatch.setattr(dynamics, "NORM_ABORT", 1e-10)
    calm = ModelParams(L=13, J=1.0, Delta=1.0, U=0.3)
    with pytest.warns(UserWarning, match="self-trapping"):
        drifting = ModelParams(L=13, J=1.0, Delta=2.5, U=400.0)
        with pytest.raises(RuntimeError, match=r"^norm drift .* exceeds 1e-10 "
                                               r"in row 1 at Delta = 2\.5$"):
            ramp_prepare([calm, drifting], SHORT_RAMP, kind)


def test_a_batch_that_the_integrator_cannot_follow_raises():
    with pytest.warns(UserWarning, match="self-trapping"):
        wild = ModelParams(L=13, J=1.0, Delta=2.0, U=4e4)
    calm = ModelParams(L=13, J=1.0, Delta=1.0, U=0.3)
    with pytest.raises(RuntimeError, match="DOP853 failed at t="):
        ramp_prepare([calm, wild], SHORT_RAMP, "gs")


def test_a_batch_takes_one_initial_state_per_chain_of_one_length():
    st13, st15 = LatticeState.single_site(13, 6), LatticeState.single_site(15, 7)
    with pytest.raises(ValueError, match="one initial state per chain"):
        evolve([ModelParams(L=13)] * 2, [st13], 0.5)
    with pytest.raises(ValueError, match="one initial state per chain"):
        evolve([], [], 0.5)
    with pytest.raises(ValueError, match="share L"):
        evolve([ModelParams(L=13), ModelParams(L=15)], [st13, st15], 0.5)
    with pytest.raises(ValueError, match="initial state has 15 sites"):
        evolve([ModelParams(L=13)] * 2, [st13, st15], 0.5)


# -------------------------
# The compiled DOP853: bitwise scipy.integrate.ode's dop853
# -------------------------

def _through_ode(fcn, x, y, xend, rtol, atol, solout, iout, work, iwork,
                 nsteps, verbosity, f_params):
    """dynamics.dopri853's call made through scipy.integrate.ode's dop853,
    with ode's own work arrays; its counters are copied into `iwork`."""
    solver = scipy.integrate.ode(fcn).set_integrator(
        "dop853", rtol=rtol, atol=atol, nsteps=nsteps)
    solver.set_initial_value(y, x).set_f_params(*f_params)
    with warnings.catch_warnings():       # the return code reports a failure
        warnings.simplefilter("ignore")
        y = solver.integrate(xend)
    iwork[:] = solver._integrator.iwork
    return solver.t, y, solver.get_return_code()


def _propagation(rows, L, t_final, stride, duration, seed):
    """evolve's Trajectory of `rows` random chains from random states (a
    lone chain for rows = 1), under a ramp of `duration` unless None."""
    rng = np.random.default_rng(seed)
    params = [ModelParams(L=L, J=1.0, Delta=float(rng.uniform(0.0, 3.0)),
                          U=float(rng.uniform(-1.0, 1.0))) for _ in range(rows)]
    amps = rng.normal(size=(rows, L)) + 1j * rng.normal(size=(rows, L))
    starts = [LatticeState(a / np.linalg.norm(a)) for a in amps]
    if rows == 1:
        params, starts = params[0], starts[0]
    ramp = None if duration is None else RampProtocol(duration=duration)
    return evolve(params, starts, t_final, snapshot_stride=stride, ramp=ramp)


def _trajectory_bits(traj):
    states = [st if isinstance(st, list) else [st] for st in traj.states]
    return ([np.asarray(getattr(traj, name)).tobytes()
             for name in ("times", "r", "d", "energy", "norm_drift")]
            + [row.amplitudes.tobytes() for st in states for row in st]
            + [traj.rhs_calls, traj.steps])


@given(rows=st.integers(1, 3), L=st.sampled_from((5, 13)),
       t_final=st.floats(0.0, 1.5), stride=st.sampled_from((None, 100, 250)),
       duration=st.one_of(st.none(), st.floats(0.1, 1.2)),
       seed=st.integers(0, 2**32 - 1))
@example(rows=1, L=13, t_final=1.0, stride=100, duration=None, seed=0)
@example(rows=3, L=13, t_final=1.0, stride=100, duration=None, seed=1)
# the kink at 0.6283 lies between the snapshots at 0.5 and 0.75
@example(rows=2, L=13, t_final=1.2, stride=250, duration=0.6283, seed=2)
# the run ends at 0.55, between the snapshots at 0.5 and 0.75
@example(rows=1, L=5, t_final=0.55, stride=250, duration=None, seed=3)
def test_the_direct_call_is_bitwise_scipy_integrate_ode(rows, L, t_final, stride,
                                                       duration, seed):
    direct = _propagation(rows, L, t_final, stride, duration, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "dopri853", _through_ode)
        through_ode = _propagation(rows, L, t_final, stride, duration, seed)
    assert _trajectory_bits(direct) == _trajectory_bits(through_ode)


def test_dop853_is_loaded_from_its_file():
    assert dynamics.dopri853.__module__ == "scipy.integrate._dop"
    assert dynamics.dopri853 is not scipy.integrate._dop.dopri853


@pytest.mark.parametrize("hide", ["file", "load", "routine"])
def test_loader_falls_back_to_scipy_integrate_dop(monkeypatch, tmp_path, hide):
    names = ("dopri853",)
    if hide == "file":
        monkeypatch.setattr(eigensolve, "_scipy_extension_file", lambda *_: None)
    elif hide == "load":
        junk = tmp_path / ("_dop" + importlib.machinery.EXTENSION_SUFFIXES[0])
        junk.write_bytes(b"not a shared object")
        monkeypatch.setattr(eigensolve, "_scipy_extension_file",
                            lambda *_: str(junk))
    else:   # a routine the file lacks
        names += ("no_such_routine",)
    lib = eigensolve._load_scipy_extension("integrate", "_dop", names,
                                           "scipy.integrate._dop")
    assert lib is scipy.integrate._dop
    want = _trajectory_bits(_propagation(2, 13, 1.2, 250, 0.6283, 2))
    monkeypatch.setattr(dynamics, "dopri853", lib.dopri853)
    assert _trajectory_bits(_propagation(2, 13, 1.2, 250, 0.6283, 2)) == want


@pytest.mark.parametrize("rows", [1, 3])
def test_rhs_calls_count_every_right_hand_side_evaluation(monkeypatch, rows):
    calls = []
    apply_stencil = dynamics.apply_stencil

    def counting(*args):
        calls.append(1)
        return apply_stencil(*args)

    monkeypatch.setattr(dynamics, "apply_stencil", counting)
    traj = _propagation(rows, 13, 1.2, 250, 0.6283, 4)
    assert traj.rhs_calls == len(calls) > 0
    # each DOP853 step evaluates the right-hand side 11 or 12 times
    assert 0 < traj.steps < traj.rhs_calls


def test_a_failed_integration_reports_without_warning():
    with pytest.warns(UserWarning, match="self-trapping"):
        wild = ModelParams(L=13, J=1.0, Delta=2.0, U=4e4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="step budget spent"):
            evolve(wild, LatticeState.single_site(13, 6), 1.0)


@settings(max_examples=40, deadline=None)
@given(B=st.integers(1, 4), L=st.integers(5, 34), ramped=st.booleans(),
       kind=st.sampled_from(["gs", "es"]), lone=st.booleans(), data=st.data())
def test_trajectory_observables_are_those_of_each_snapshot_state(
        B, L, ramped, kind, lone, data):
    # r, <d> and E are computed once on all snapshots' rows: each value is
    # bit for bit the observable of the snapshot's state of its row, and
    # the norm drift that of the amplitudes the integrator stopped at
    lone = lone and B == 1
    targets = [ModelParams(L=L, J=1.0, Delta=data.draw(st.floats(0.0, 4.0)),
                           phi=data.draw(st.floats(0.0, 6.0)),
                           U=data.draw(st.floats(-1.0, 1.0))) for _ in range(B)]
    chains = [p.for_kind(kind) for p in targets]
    recorded, record = [], dynamics._Rows.record

    def spy(self, t, V, fraction):
        recorded.append((V.copy(), fraction))
        return record(self, t, V, fraction)

    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    initial = [LatticeState(rng.normal(size=L) + 1j * rng.normal(size=L))
               for _ in range(B)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics._Rows, "record", spy)
        if ramped:
            _, traj = ramp_prepare(targets[0] if lone else targets,
                                   RampProtocol(duration=0.033, hold=0.02), kind,
                                   snapshot_stride=10)
        else:
            traj = evolve(chains[0] if lone else chains,
                          initial[0] if lone else initial, 0.05, snapshot_stride=10)
    sign = -1.0 if ramped and kind == "es" else 1.0
    assert len(recorded) == len(traj.times) > 1
    for k, (V, fraction) in enumerate(recorded):
        states = [traj.states[k]] if lone else traj.states[k]
        want = {name: [] for name in ("r", "d", "energy")}
        for c, v, st_ in zip(chains, V, states):
            assert st_.amplitudes.tobytes() == LatticeState(v).amplitudes.tobytes()
            want["r"].append(participation_ratio(st_))
            want["d"].append(momentum_width(st_))
            want["energy"].append(sign * float(energy_of(
                c.J * fraction, quasiperiodic_potential(c), c.U, st_.amplitudes)))
        drift = [abs(np.sum(np.abs(v) ** 2) - 1.0) for v in V]
        for name, values in want.items():
            got = getattr(traj, name)[k]
            assert np.array(got).tobytes() == np.array(values[0] if lone else values).tobytes()
        assert np.float64(traj.norm_drift[k]).tobytes() == np.float64(max(drift)).tobytes()
