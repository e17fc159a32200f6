"""
Real-time propagation of the nonlinear AA model.

The equation of motion i d(phi)/dt = H[phi] phi is integrated by scipy's
compiled DOP853, the adaptive 8th-order Runge-Kutta method of Hairer,
Norsett & Wanner (Solving ODEs I, 1993), at rtol = atol = ODE_TOL; the
complex amplitudes pass through a float view. H[phi] phi is
model.apply_stencil with the diagonal eps - U |phi|^2, and the recorded
energy is model.energy_of.

Snapshots lie on a time grid of step dt (default 1e-3 in units of hbar/J):
one every `snapshot_stride` grid steps and one at the end, which is the grid
time round(t_final/dt) dt, not t_final itself. The integrator stops at each
snapshot and restarts from it, with a step budget proportional to the
interval. A ramp's hopping J(t) = J min(t/duration, 1) has a kink at
t = duration, where the integrator also stops and restarts. The norm is
monitored, never enforced: a drift beyond NORM_ABORT at a snapshot, or an
integrator that fails within its budget, aborts the chain.

`evolve` and `ramp_prepare` also take a sequence of chains of one length (a
synthetic measurement's ramps). The batch is a loop over lone propagations,
so every row is bitwise the chain evolved on its own; a row that aborts
holds the message a lone propagation raises, and the other rows go on.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import ode

from .model import (
    LatticeState,
    ModelParams,
    apply_stencil,
    energy_of,
    momentum_width,
    participation_ratio,
    quasiperiodic_potential,
)

DEFAULT_DT = 1e-3
NORM_ABORT = 1e-6
ODE_TOL = 1e-10
# DOP853's step budget per interval: proportional to the interval above a
# floor for tiny ones, so a long snapshot stride gets the budget per unit time
# of a short one (and needs fewer restarts). A run takes about 3|U/J| + 20
# steps per unit time, so U/J up to about 3e3 fits.
MIN_STEP_BUDGET = 50
STEPS_PER_TIME = 1e4
MAX_STEP_BUDGET = 2 ** 31 - 1       # DOP853 counts its steps in 32 bits
DOP853_FAILURES = {-1: "inconsistent input", -2: "step budget spent",
                   -3: "step size too small", -4: "problem probably stiff"}


@dataclass(frozen=True)
class RampProtocol:
    """Linear switch-on of the hopping, J(t) = J_target * t / duration.

    All fields are in internal units (time in hbar/J_target); the CLI maps
    the SI recipe J(t)/h = v t with v in Hz/ms. EXPERIMENT_RAMP is the
    experiment's: v = 275 Hz/ms up to J/h = 275 Hz takes 1 ms, i.e.
    tau_f = 2 pi x 0.275 in internal time.
    """
    duration: float
    hold: float = 0.0
    target: str = "ground"        # "ground" | "highest-excited"

    def __post_init__(self):
        if not 0 < self.duration < np.inf:
            raise ValueError(f"ramp duration must be finite and positive, "
                             f"got {self.duration}")
        if not 0 <= self.hold < np.inf:
            raise ValueError(f"hold time must be finite and nonnegative, "
                             f"got {self.hold}")
        if self.target not in ("ground", "highest-excited"):
            raise ValueError(f"unknown ramp target {self.target!r}")

    def for_kind(self, kind) -> "RampProtocol":
        """The same ramp aimed at the ground ("gs") or highest-excited ("es")
        state."""
        if kind not in ("gs", "es"):
            raise ValueError(f"kind must be 'gs' or 'es', got {kind!r}")
        return replace(self, target="ground" if kind == "gs" else "highest-excited")

    def hopping_fraction(self, t: float) -> float:
        """J(t)/J_target: linear up to 1 at t = duration, then flat."""
        return min(max(t, 0.0) / self.duration, 1.0)


EXPERIMENT_RAMP = RampProtocol(duration=2.0 * np.pi * 275.0 * 1e-3)


@dataclass
class Trajectory:
    """Snapshots of an evolution plus per-snapshot observables."""
    times: np.ndarray
    states: list                     # list[LatticeState]
    r: np.ndarray
    d: np.ndarray
    energy: np.ndarray
    norm_drift: np.ndarray

    def final_state(self) -> LatticeState:
        return self.states[-1]


@dataclass
class BatchTrajectory:
    """Outcome of a batched evolution, one entry per chain (row)."""
    rows: list                       # Trajectory per row; None where it failed
    errors: list                     # None per row, or its failure message
    norm_drift: np.ndarray           # per snapshot, the largest over live rows


class _Chain:
    """Snapshots of one chain, with the observables of a lone evolution."""

    def __init__(self, params, center):
        self.eps = quasiperiodic_potential(params)
        self.U = params.U
        self.center = center
        self.times, self.states, self.r, self.d = [], [], [], []
        self.energy, self.drift = [], []

    def record(self, t, v, J_now):
        """Append the snapshot at t, or return the norm-abort message."""
        drift = abs(np.sum(np.abs(v) ** 2) - 1.0)
        if not drift <= NORM_ABORT:           # False for NaN as well
            return f"norm drift {drift:.3e} at t={t:.4f} exceeds {NORM_ABORT}"
        st = LatticeState(v, center=self.center)
        self.times.append(t)
        self.states.append(st)
        self.r.append(participation_ratio(st))
        self.d.append(momentum_width(st))
        self.energy.append(float(energy_of(J_now, self.eps, self.U, st.amplitudes)))
        self.drift.append(drift)

    def trajectory(self) -> Trajectory:
        return Trajectory(times=np.array(self.times), states=self.states,
                          r=np.array(self.r), d=np.array(self.d),
                          energy=np.array(self.energy),
                          norm_drift=np.array(self.drift))


def _propagate(params, start, times, j_of_t, ramp):
    """Integrate one chain from t = 0 through the snapshot `times`, stopping
    at each and at the ramp's kink; `j_of_t` and `ramp` as in `evolve`.

    Returns (chain, error): the snapshots recorded and None, or those before
    the failure and its message."""
    chain = _Chain(params, start.center)
    J, kink = params.J, np.inf if ramp is None else ramp.duration
    hopping = ((lambda t: J * ramp.hopping_fraction(t)) if ramp is not None
               else j_of_t or (lambda t: J))
    # -i H[phi] phi with the -i folded into the stencil's inputs; the values
    # are exact, as times -i only swaps and negates a number's two parts
    eps_i, U_i = -1j * chain.eps, 1j * params.U

    def rhs(t, y):
        v = y.view(complex)
        diag = eps_i + U_i * (v.real ** 2 + v.imag ** 2)
        return apply_stencil(-1j * hopping(t), diag, v).view(float)

    chain.record(0.0, start.amplitudes, hopping(0.0))   # normalized: no abort
    y, t0 = start.amplitudes.view(float), 0.0
    for t in times:
        for stop in ((kink, t) if t0 < kink < t else (t,)):
            budget = max(MIN_STEP_BUDGET, STEPS_PER_TIME * (stop - t0))
            solver = ode(rhs).set_integrator(
                "dop853", rtol=ODE_TOL, atol=ODE_TOL,
                nsteps=int(min(budget, MAX_STEP_BUDGET)))
            solver.set_initial_value(y, t0)
            with warnings.catch_warnings():   # the failure is reported below
                warnings.filterwarnings("ignore", "dop853:", UserWarning)
                y = solver.integrate(stop)
            if not solver.successful():
                code = solver.get_return_code()
                return chain, (f"DOP853 failed at t={solver.t:.4f}: "
                               f"{DOP853_FAILURES.get(code, code)}")
            t0 = stop
        error = chain.record(t, y.view(complex), hopping(t))
        if error:
            return chain, error
    return chain, None


def evolve(params, initial, t_final, dt=DEFAULT_DT, snapshot_stride=100,
           j_of_t=None, ramp=None):
    """Propagate `initial` to the grid time round(t_final/dt) dt, recording a
    snapshot at t = 0, every `snapshot_stride` grid steps and at the end;
    `snapshot_stride=None` records none in between, which spares DOP853 a
    restart at each of them when only the final state is wanted.

    The hopping is params.J unless `j_of_t` (a callable t -> scalar J(t),
    shared by every row) or `ramp` (a RampProtocol: each row's hopping is
    its own J times ramp.hopping_fraction(t), with a restart at the kink)
    replaces it. Observables recorded per snapshot: participation ratio r,
    momentum width d (around initial.center), energy E[phi] (with the
    instantaneous J), and the norm drift |sum n - 1|. Returns a Trajectory;
    a norm drift past NORM_ABORT or a failed integration raises RuntimeError.

    Batched form: `params` a sequence of ModelParams sharing L and `initial`
    a sequence of as many LatticeStates. Returns a BatchTrajectory whose row
    b is bitwise the Trajectory of evolve(params[b], initial[b], ...); a row
    that would raise holds None and the message instead.
    """
    if not 0 < dt <= 0.01:
        raise ValueError(f"dt must lie in (0, 0.01] (units hbar/J), got {dt}")
    if not 0 <= t_final < np.inf:
        raise ValueError(f"t_final must be finite and nonnegative, "
                         f"got {t_final}")
    if snapshot_stride is not None and (
            not isinstance(snapshot_stride, (int, np.integer)) or snapshot_stride < 1):
        raise ValueError(f"snapshot stride must be an integer >= 1, "
                         f"got {snapshot_stride!r}")
    if j_of_t is not None and ramp is not None:
        raise ValueError("give j_of_t or ramp, not both")
    lone = isinstance(params, ModelParams)
    params, initial = ([params], [initial]) if lone else (list(params), list(initial))
    if not params or len(params) != len(initial):
        raise ValueError("a batch needs at least one chain and one initial "
                         "state per parameter set")
    if len({p.L for p in params} | {s.L for s in initial}) != 1:
        raise ValueError("batched chains must share the chain length L")
    n_steps = int(round(t_final / dt))
    stride = snapshot_stride or max(n_steps, 1)
    # the grid steps of the snapshots after t = 0: every stride-th and the last
    marks = range(stride, n_steps + stride, stride)

    chains, errors = zip(*(_propagate(p, s, (min(m, n_steps) * dt for m in marks),
                                      j_of_t, ramp)
                           for p, s in zip(params, initial)))
    if lone:
        if errors[0]:
            raise RuntimeError(errors[0])
        return chains[0].trajectory()
    snapshot_drift = [max(c.drift[i] for c in chains if i < len(c.drift))
                      for i in range(max(len(c.drift) for c in chains))]
    return BatchTrajectory(
        rows=[None if err else c.trajectory() for c, err in zip(chains, errors)],
        errors=list(errors), norm_drift=np.array(snapshot_drift))


def transport_experiment(params: ModelParams, t_final, dt=DEFAULT_DT,
                         snapshot_stride=100) -> Trajectory:
    """Quench from a single site at the chain center.

    Emits the (t, <d>, r) series describing spreading vs. localization of an
    initially center-loaded chain.
    """
    center = (params.L - 1) // 2
    initial = LatticeState.single_site(params.L, center)
    return evolve(params, initial, t_final, dt=dt, snapshot_stride=snapshot_stride)


def ramp_prepare(params_target, protocol: RampProtocol, dt=DEFAULT_DT,
                 snapshot_stride=None):
    """Finite-velocity preparation of the target eigenstate.

    The chain starts in the J=0 ground state, i.e. all population on the
    site minimizing eps_j (ties broken toward lower site energy, then lower
    index), and J is ramped linearly to its target over the protocol
    duration, followed by an optional hold. For target='highest-excited' the
    whole procedure runs on the negated model, whose ground state is the
    excited state of the original; the returned state is reported as-is
    (densities and r are negation-invariant).

    Returns (final LatticeState, Trajectory); the trajectory holds t = 0
    and the end unless a `snapshot_stride` asks for snapshots in between.
    Given a sequence of ModelParams sharing L, all ramps run as one batched
    `evolve` and the return is (list of final states, BatchTrajectory); a
    row that aborted has None as its final state and its message in
    `errors`.
    """
    lone = isinstance(params_target, ModelParams)
    targets = [params_target] if lone else list(params_target)
    chains = [p if protocol.target == "ground" else p.negated() for p in targets]
    initial = [LatticeState.single_site(
        p.L, int(np.argmin(quasiperiodic_potential(p))),   # lowest index on ties
        center=(p.L - 1) // 2) for p in chains]
    traj = evolve(chains, initial, protocol.duration + protocol.hold, dt=dt,
                  snapshot_stride=snapshot_stride, ramp=protocol)
    finals = [None if row is None else row.final_state() for row in traj.rows]
    if lone:
        if traj.errors[0]:
            raise RuntimeError(traj.errors[0])
        return finals[0], traj.rows[0]
    return finals, traj
