"""
Real-time propagation of the nonlinear AA model.

The equation of motion i d(phi)/dt = H[phi] phi is integrated by scipy's
compiled DOP853, the adaptive 8th-order Runge-Kutta method of Hairer,
Norsett & Wanner (Solving ODEs I, 1993); the complex amplitudes pass through
a float view. H[phi] phi is model.apply_stencil with the diagonal
eps - U |phi|^2, and the recorded energy is model.energy_of.

`evolve` and `ramp_prepare` take one chain or a batch of B chains, the rows
of one ODE system of 2 B L real components. The rows share L, the snapshot
grid and the ramp; each keeps its own eps, J and U. DOP853's error norm is
the RMS over all components, so a batch runs at rtol = atol =
ODE_TOL / sqrt(B), which keeps each row under the error bound of a lone run;
a lone chain is the batch B = 1, at ODE_TOL.

Snapshots lie on a time grid of step dt (default 1e-3 in units of hbar/J):
one every `snapshot_stride` grid steps and one at the end, which is the grid
time round(t_final/dt) dt, not t_final itself. The integrator stops at each
snapshot and restarts from it, with a step budget proportional to the
interval. A ramp's hopping J(t) = J min(t/duration, 1) has a kink at
t = duration, where the integrator also stops and restarts. The norm is
monitored, never enforced: a row whose drift passes NORM_ABORT at a
snapshot, or an integrator that fails within its budget, raises
RuntimeError.

DOP853 is the routine dopri853 of scipy's compiled module
scipy/integrate/_dop, loaded from its file as eigensolve loads LAPACK and
called with the arguments scipy.integrate.ode passes it, so each result is
bitwise ode(f).set_integrator("dop853")'s. The scipy.integrate package, with
scipy.linalg, scipy.optimize and scipy.special behind it, is imported only
if that file is missing or does not load: it would cost about 0.45 s and
40 MB of RSS at start-up. The routine reports failure by its return code,
and counts its right-hand-side calls and its steps, which
Trajectory.rhs_calls and .steps sum over the stops.
"""

from dataclasses import dataclass

import numpy as np

from .eigensolve import _load_scipy_extension
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

dopri853 = _load_scipy_extension("integrate", "_dop", ("dopri853",),
                                 "scipy.integrate._dop").dopri853


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
    """Snapshots of an evolution plus per-snapshot observables.

    For a batch of B chains, each entry of `states` is the list of the B
    rows' states, r, d and energy are (snapshots, B) arrays, and norm_drift
    is the largest drift over the rows. rhs_calls and steps are DOP853's
    right-hand-side evaluations and computed (accepted and rejected) steps
    over the whole run, of the one system of all rows."""
    times: np.ndarray
    states: list                     # list[LatticeState], or of B-lists
    r: np.ndarray
    d: np.ndarray
    energy: np.ndarray
    norm_drift: np.ndarray
    rhs_calls: int
    steps: int

    def final_state(self) -> LatticeState:
        return self.states[-1]


class _RowAbort(RuntimeError):
    """The norm of batch row `row` drifted past NORM_ABORT."""

    def __init__(self, row, message):
        super().__init__(message)
        self.row = row


class _Rows:
    """Snapshots of the chains of a batch, and the observables of all rows
    of all snapshots, computed once on the stacked states."""

    def __init__(self, params):
        self.params = params
        self.eps = np.array([quasiperiodic_potential(p) for p in params])
        self.times, self.fractions, self.states, self.drift = [], [], [], []
        self.rhs_calls = self.steps = 0

    def record(self, t, V, fraction):
        """Append the snapshot at t of the rows V, at hopping fraction
        J(t)/J; a row whose norm drift passes NORM_ABORT raises."""
        drift = np.abs(np.sum(np.abs(V) ** 2, axis=-1) - 1.0)
        bad = np.flatnonzero(~(drift <= NORM_ABORT))     # NaN as well
        if bad.size:
            row = int(bad[0])
            where = f" in row {row}" if len(V) > 1 else ""
            raise _RowAbort(row, f"norm drift {drift[row]:.3e} at t={t:.4f} "
                                 f"exceeds {NORM_ABORT}{where}")
        self.times.append(t)
        self.fractions.append(fraction)
        self.states.append([LatticeState(v) for v in V])
        self.drift.append(drift)

    def trajectory(self, lone) -> Trajectory:
        """The Trajectory of row 0 if `lone`, else of the batch. r, d and E
        of each row are its own, bit for bit: each is computed on the
        (snapshots, B, L) amplitudes along contiguous rows, E with the
        row's J times the snapshot's hopping fraction."""
        amps = np.array([[st.amplitudes for st in states] for states in self.states])
        J = np.array([p.J for p in self.params])
        U = np.array([p.U for p in self.params])
        r, d = participation_ratio(amps), momentum_width(amps)
        energy = energy_of(np.array(self.fractions)[:, None] * J, self.eps, U, amps)
        drift = np.array(self.drift)
        counts = dict(rhs_calls=self.rhs_calls, steps=self.steps)
        if lone:
            return Trajectory(times=np.array(self.times),
                              states=[st[0] for st in self.states],
                              r=r[:, 0], d=d[:, 0], energy=energy[:, 0],
                              norm_drift=drift[:, 0], **counts)
        return Trajectory(times=np.array(self.times), states=self.states,
                          r=r, d=d, energy=energy, norm_drift=drift.max(axis=1),
                          **counts)


def _no_output(t, y):
    """DOP853's dense-output callback, which iout = 0 never calls."""
    return 1


def _propagate(params, starts, times, ramp):
    """Integrate the chains `params` (a list, one row each) from the states
    `starts` through the snapshot `times`, as one system, stopping at each
    snapshot and at the ramp's kink; `ramp` as in `evolve`. Returns the
    recorded _Rows; an abort raises RuntimeError."""
    rows = _Rows(params)
    B, L = rows.eps.shape
    kink = np.inf if ramp is None else ramp.duration
    fraction = (lambda t: 1.0) if ramp is None else ramp.hopping_fraction
    # a lone chain keeps scalars and (L,) arrays: broadcasting (1, 1)
    # columns would cost it about half again its time
    shape = (L,) if B == 1 else (B, L)

    def column(values):
        return values[0] if B == 1 else np.array(values)[:, None]

    J = column([p.J for p in params])
    # -i H[phi] phi with the -i folded into the stencil's inputs; the values
    # are exact, as times -i only swaps and negates a number's two parts
    eps_i, U_i = -1j * rows.eps.reshape(shape), column([1j * p.U for p in params])
    tol = ODE_TOL / np.sqrt(B)      # the RMS over B rows: each within ODE_TOL

    def rhs(t, y):
        v = y.view(complex).reshape(shape)
        diag = eps_i + U_i * (v.real ** 2 + v.imag ** 2)
        return apply_stencil(-1j * (J * fraction(t)), diag, v).view(float).ravel()

    V = np.array([st.amplitudes for st in starts])
    rows.record(0.0, V, fraction(0.0))              # normalized: no abort
    y, t0 = V.view(float).ravel(), 0.0
    for t in times:
        for stop in ((kink, t) if t0 < kink < t else (t,)):
            budget = max(MIN_STEP_BUDGET, STEPS_PER_TIME * (stop - t0))
            # scipy's dop853 defaults: safety 0.9, step-size factors 0.3 and 6,
            # no dense output, no messages; and ode's empty f_params, without
            # which the routine can crash
            work = np.zeros(11 * y.size + 21)
            work[1:4] = 0.9, 0.3, 6.0
            iwork = np.zeros(21, np.int32)
            x, y, code = dopri853(rhs, t0, y, stop, tol, tol, _no_output, 0,
                                  work, iwork, int(min(budget, MAX_STEP_BUDGET)),
                                  -1, ())
            # Hairer's IWORK(17) and (18): right-hand-side calls, computed steps
            rows.rhs_calls += int(iwork[16])
            rows.steps += int(iwork[17])
            if code < 0:
                raise RuntimeError(f"DOP853 failed at t={x:.4f}: "
                                   f"{DOP853_FAILURES.get(code, code)}")
            t0 = stop
        rows.record(t, y.view(complex).reshape(B, L), fraction(t))
    return rows


def evolve(params, initial, t_final, dt=DEFAULT_DT, snapshot_stride=100,
           ramp=None):
    """Propagate `initial` to the grid time round(t_final/dt) dt, recording a
    snapshot at t = 0, every `snapshot_stride` grid steps and at the end;
    `snapshot_stride=None` records none in between, which spares DOP853 a
    restart at each of them when only the final state is wanted.

    `params` and `initial` are a ModelParams and a LatticeState, or lists
    of them for a batch of chains of one L, integrated as one system (see
    the module docstring). The hopping is params.J unless `ramp` (a
    RampProtocol: the hopping is params.J times ramp.hopping_fraction(t),
    with a restart at the kink) replaces it. Observables recorded per
    snapshot: participation ratio r, momentum width d (around the center
    site), energy E[phi] (with the instantaneous J), and the norm drift
    |sum n - 1|. Returns a Trajectory; a norm drift past NORM_ABORT or a
    failed integration raises RuntimeError.
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
    lone = isinstance(params, ModelParams)
    params, initial = ([params], [initial]) if lone else (list(params), list(initial))
    if not params or len(initial) != len(params):
        raise ValueError(f"a batch needs one initial state per chain and at "
                         f"least one chain, got {len(initial)} states for "
                         f"{len(params)} chains")
    for p, st in zip(params, initial):
        if p.L != params[0].L:
            raise ValueError(f"the chains of a batch share L, got L = "
                             f"{params[0].L} and {p.L}")
        if st.L != p.L:
            raise ValueError(f"the initial state has {st.L} sites, the "
                             f"chain L = {p.L}")
    n_steps = int(round(t_final / dt))
    stride = snapshot_stride or max(n_steps, 1)
    # the grid steps of the snapshots after t = 0: every stride-th and the last
    marks = range(stride, n_steps + stride, stride)

    rows = _propagate(params, initial, (min(m, n_steps) * dt for m in marks),
                      ramp)
    return rows.trajectory(lone)


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
    ("es") state of `params_target`, a ModelParams or a list of them (of one
    L) ramped as one batch by `evolve`.

    Each chain starts in its J=0 ground state, i.e. all population on the
    site minimizing eps_j (ties broken toward lower site energy, then lower
    index), and J is ramped linearly to its target over the protocol
    duration, followed by an optional hold. It runs on the model
    ModelParams.for_kind gives: for kind 'es' the negated model, whose ground
    state is the excited state of the original. The state is reported as-is
    (densities and r are negation-invariant), and the energies are negated
    back to E[phi] of `params_target`. A row whose norm drift aborts raises
    its RuntimeError naming its Delta.

    Returns (final LatticeState, Trajectory), or the list of the final
    states and the batch's Trajectory; the trajectory holds t = 0 and the
    end unless a `snapshot_stride` asks for snapshots in between.
    """
    lone = isinstance(params_target, ModelParams)
    targets = [params_target] if lone else list(params_target)
    chains = [p.for_kind(kind) for p in targets]
    initial = [LatticeState.single_site(c.L, int(np.argmin(quasiperiodic_potential(c))))
               for c in chains]         # argmin: the lowest index on ties
    if lone:
        chains, initial = chains[0], initial[0]
    try:
        traj = evolve(chains, initial, protocol.duration + protocol.hold, dt=dt,
                      snapshot_stride=snapshot_stride, ramp=protocol)
    except _RowAbort as exc:
        raise RuntimeError(f"{exc} at Delta = {targets[exc.row].Delta}") from None
    if kind == "es":            # E[phi] is odd under the negation
        traj.energy = -traj.energy
    return traj.final_state(), traj
