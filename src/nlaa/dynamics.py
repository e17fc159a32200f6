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
integrator that fails within its budget, raises RuntimeError.

scipy.integrate, with scipy.optimize and scipy.special behind it, is
imported on first use, in `_propagate`: on top of numpy and scipy.linalg it
costs about 0.2 s and 24 MB of RSS at import, which a default `scan`,
`phases` and `gaa-me` never need.
"""

import warnings
from dataclasses import dataclass

import numpy as np

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
    tau_f = 2 pi x 0.275 in internal time. The state it prepares is the
    `kind` given to ramp_prepare.
    """
    duration: float
    hold: float = 0.0

    def __post_init__(self):
        if not 0 < self.duration < np.inf:
            raise ValueError(f"ramp duration must be finite and positive, "
                             f"got {self.duration}")
        if not 0 <= self.hold < np.inf:
            raise ValueError(f"hold time must be finite and nonnegative, "
                             f"got {self.hold}")

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


class _Chain:
    """Snapshots of one chain and the observables recorded at each."""

    def __init__(self, params):
        self.eps = quasiperiodic_potential(params)
        self.U = params.U
        self.times, self.states, self.r, self.d = [], [], [], []
        self.energy, self.drift = [], []

    def record(self, t, v, J_now):
        """Append the snapshot at t; a norm drift past NORM_ABORT raises."""
        drift = abs(np.sum(np.abs(v) ** 2) - 1.0)
        if not drift <= NORM_ABORT:           # False for NaN as well
            raise RuntimeError(f"norm drift {drift:.3e} at t={t:.4f} "
                               f"exceeds {NORM_ABORT}")
        st = LatticeState(v)
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


def _propagate(params, start, times, ramp):
    """Integrate one chain from t = 0 through the snapshot `times`, stopping
    at each and at the ramp's kink; `ramp` as in `evolve`. Returns the
    Trajectory; an abort raises RuntimeError."""
    # imported here, not at module level: most subcommands never integrate
    from scipy.integrate import ode

    chain = _Chain(params)
    J, kink = params.J, np.inf if ramp is None else ramp.duration
    hopping = ((lambda t: J) if ramp is None
               else (lambda t: J * ramp.hopping_fraction(t)))
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
                raise RuntimeError(f"DOP853 failed at t={solver.t:.4f}: "
                                   f"{DOP853_FAILURES.get(code, code)}")
            t0 = stop
        chain.record(t, y.view(complex), hopping(t))
    return chain.trajectory()


def evolve(params, initial, t_final, dt=DEFAULT_DT, snapshot_stride=100,
           ramp=None):
    """Propagate `initial` to the grid time round(t_final/dt) dt, recording a
    snapshot at t = 0, every `snapshot_stride` grid steps and at the end;
    `snapshot_stride=None` records none in between, which spares DOP853 a
    restart at each of them when only the final state is wanted.

    The hopping is params.J unless `ramp` (a RampProtocol: the hopping is
    params.J times ramp.hopping_fraction(t), with a restart at the kink)
    replaces it. Observables recorded per snapshot: participation
    ratio r, momentum width d (around the center site), energy E[phi] (with
    the instantaneous J), and the norm drift |sum n - 1|. Returns a Trajectory;
    a norm drift past NORM_ABORT or a failed integration raises RuntimeError.
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
    if initial.L != params.L:
        raise ValueError(f"the initial state has {initial.L} sites, the "
                         f"chain L = {params.L}")
    n_steps = int(round(t_final / dt))
    stride = snapshot_stride or max(n_steps, 1)
    # the grid steps of the snapshots after t = 0: every stride-th and the last
    marks = range(stride, n_steps + stride, stride)

    return _propagate(params, initial, (min(m, n_steps) * dt for m in marks),
                      ramp)


def transport_experiment(params: ModelParams, t_final, dt=DEFAULT_DT,
                         snapshot_stride=100) -> Trajectory:
    """Quench from a single site at the chain center.

    Emits the (t, <d>, r) series describing spreading vs. localization of an
    initially center-loaded chain.
    """
    center = (params.L - 1) // 2
    initial = LatticeState.single_site(params.L, center)
    return evolve(params, initial, t_final, dt=dt, snapshot_stride=snapshot_stride)


def ramp_prepare(params_target, protocol: RampProtocol, kind, dt=DEFAULT_DT,
                 snapshot_stride=None):
    """Finite-velocity preparation of the ground ("gs") or highest-excited
    ("es") state of `params_target`.

    The chain starts in the J=0 ground state, i.e. all population on the
    site minimizing eps_j (ties broken toward lower site energy, then lower
    index), and J is ramped linearly to its target over the protocol
    duration, followed by an optional hold. For kind 'es' the whole
    procedure runs on the negated model, whose ground state is the excited
    state of the original; the returned state is reported as-is (densities
    and r are negation-invariant).

    Returns (final LatticeState, Trajectory); the trajectory holds t = 0
    and the end unless a `snapshot_stride` asks for snapshots in between.
    """
    if kind not in ("gs", "es"):
        raise ValueError(f"kind must be 'gs' or 'es', got {kind!r}")
    chain = params_target if kind == "gs" else params_target.negated()
    site = int(np.argmin(quasiperiodic_potential(chain)))   # lowest index on ties
    initial = LatticeState.single_site(chain.L, site)
    traj = evolve(chain, initial, protocol.duration + protocol.hold, dt=dt,
                  snapshot_stride=snapshot_stride, ramp=protocol)
    return traj.final_state(), traj
