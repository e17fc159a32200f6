"""
Real-time propagation of the nonlinear AA model.

The equation of motion i d(phi)/dt = H[phi] phi is integrated with the
classic explicit 4th-order Runge-Kutta stepper at a fixed step (default
dt = 1e-3 in units of hbar/J). The norm is monitored, never enforced:
norm drift is the accuracy diagnostic, and a drift beyond 1e-6 aborts with
advice to reduce dt.

Time-dependent hopping (the ramp protocol J(t) = 2 pi hbar v t) is handled
by freezing J over each step at its midpoint value J(t + dt/2), which is
second-order accurate in the drive and well below the integrator error at
the default step. H[phi] phi is model.apply_stencil with the diagonal
eps - U |phi|^2, and the recorded energy is model.energy_of.

The stepper works on (..., L) amplitude arrays, so `evolve` and
`ramp_prepare` also take a sequence of chains of one length and propagate
them as a single array: one RK4 step of B chains costs about what one step
of a single chain does, since at L ~ 21 a step is mostly numpy call
overhead. A lone chain is a batch of one. Each row sees exactly the
elementwise arithmetic of a lone propagation, so every row of a batch is
bitwise equal to the chain evolved on its own, whatever the batch around it
or its position in it. A row whose norm drift passes the abort threshold is
dropped from the batch and reported with the message a lone propagation
raises; the other rows go on.
"""

from dataclasses import dataclass, replace

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
    rows: list                       # Trajectory per row; None where it aborted
    errors: list                     # None per row, or its norm-abort message
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
        st = LatticeState(v, center=self.center)
        self.times.append(t)
        self.states.append(st)
        self.r.append(participation_ratio(st))
        self.d.append(momentum_width(st))
        self.energy.append(float(energy_of(J_now, self.eps, self.U, st.amplitudes)))
        self.drift.append(abs(np.sum(np.abs(v) ** 2) - 1.0))
        return self.drift[-1]

    def trajectory(self) -> Trajectory:
        return Trajectory(times=np.array(self.times), states=self.states,
                          r=np.array(self.r), d=np.array(self.d),
                          energy=np.array(self.energy),
                          norm_drift=np.array(self.drift))


def _column(values):
    """Per-row values as one scalar when all rows share it, else a (B, 1)
    column. A shared scalar spares every step the broadcast of a column; the
    elementwise arithmetic is the same either way. No rows give an empty
    column, so that `evolve` reports the empty batch."""
    values = np.array(values, dtype=float)
    if values.size and np.all(values == values[0]):
        return float(values[0])
    return values[:, None]


def _rhs(eps, U, J, v):
    """-i H[phi] phi on (L,) or (B, L) amplitudes, eps of the same shape; U
    and J are scalars or (B, 1) columns."""
    return -1j * apply_stencil(J, eps - U * np.abs(v) ** 2, v)


def _abort_message(drift, t):
    return f"norm drift {drift:.3e} at t={t:.4f} exceeds {NORM_ABORT}; reduce dt"


def evolve(params, initial, t_final, dt=DEFAULT_DT, snapshot_stride=100,
           j_of_t=None):
    """Propagate `initial` to t_final; snapshots every `snapshot_stride` steps.

    `j_of_t` optionally replaces the constant hopping with J(t); it is
    sampled once per step at the midpoint. Observables recorded per snapshot:
    participation ratio r, momentum width d (around initial.center), energy
    E[phi] (with the instantaneous J), and the norm drift |sum n - 1|.
    Returns a Trajectory; a norm drift past NORM_ABORT raises RuntimeError.

    Batched form: `params` a sequence of ModelParams sharing L and `initial`
    a sequence of as many LatticeStates. All B chains step as one (B, L)
    array, and `j_of_t(t)` returns a scalar or a (B, 1) column of per-row
    hoppings. Returns a BatchTrajectory whose row b is bitwise the
    Trajectory of evolve(params[b], initial[b], ...); a row that would
    raise is dropped at that step and holds the message instead. A lone
    chain is propagated as a batch of one.
    """
    if not 0 < dt <= 0.01:
        raise ValueError(f"dt must lie in (0, 0.01] (units hbar/J), got {dt}")
    if not 0 <= t_final < np.inf:
        raise ValueError(f"t_final must be finite and nonnegative, "
                         f"got {t_final}")
    if not isinstance(snapshot_stride, (int, np.integer)) or snapshot_stride < 1:
        raise ValueError(f"snapshot stride must be an integer >= 1, "
                         f"got {snapshot_stride!r}")
    lone = isinstance(params, ModelParams)
    params, initial = ([params], [initial]) if lone else (list(params), list(initial))
    if not params or len(params) != len(initial):
        raise ValueError("a batch needs at least one chain and one initial "
                         "state per parameter set")
    if len({p.L for p in params} | {s.L for s in initial}) != 1:
        raise ValueError("batched chains must share the chain length L")
    chains = [_Chain(p, s.center) for p, s in zip(params, initial)]
    eps = np.stack([c.eps for c in chains])
    U = _column([p.U for p in params])
    J = _column([p.J for p in params])
    v = np.stack([s.amplitudes for s in initial])
    B = len(chains)
    if B == 1:                  # a lone chain steps as 1-D arrays, whose numpy
        eps, v = eps[0], v[0]   # calls cost less than those on (1, L) arrays
    live = np.arange(B)                   # batch rows still propagated
    errors = [None] * B
    snapshot_drift = []
    n_steps = int(round(t_final / dt))

    def hopping(t):
        """J(t) of the live rows: a scalar or a column."""
        J_t = J if j_of_t is None else j_of_t(t)
        return J_t if np.ndim(J_t) == 0 or len(J_t) == live.size else J_t[live]

    def record(t, v):
        J_t = np.broadcast_to(hopping(t), (live.size, 1))
        rows = np.atleast_2d(v)
        snapshot_drift.append(max(chains[b].record(t, rows[i], J_t[i, 0])
                                  for i, b in enumerate(live)))

    record(0.0, v)
    for k in range(n_steps):
        t = k * dt
        J_mid = hopping(t + 0.5 * dt)
        k1 = _rhs(eps, U, J_mid, v)
        k2 = _rhs(eps, U, J_mid, v + 0.5 * dt * k1)
        k3 = _rhs(eps, U, J_mid, v + 0.5 * dt * k2)
        k4 = _rhs(eps, U, J_mid, v + dt * k3)
        v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = abs((np.abs(v) ** 2).sum(axis=-1) - 1.0)
        ok = drift <= NORM_ABORT          # False for NaN as well
        if not ok.all():
            drift, ok = np.atleast_1d(drift, ok)
            for i in np.flatnonzero(~ok):
                errors[live[i]] = _abort_message(drift[i], t + dt)
            live, v, eps = live[ok], np.atleast_2d(v)[ok], np.atleast_2d(eps)[ok]
            U = U if np.ndim(U) == 0 else U[ok]
            if not live.size:
                break
        if (k + 1) % snapshot_stride == 0 or k == n_steps - 1:
            record((k + 1) * dt, v)

    rows = [None if err else c.trajectory() for c, err in zip(chains, errors)]
    if lone:
        if errors[0]:
            raise RuntimeError(errors[0])
        return rows[0]
    return BatchTrajectory(rows=rows, errors=errors,
                           norm_drift=np.array(snapshot_drift))


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
                 snapshot_stride=100):
    """Finite-velocity preparation of the target eigenstate.

    The chain starts in the J=0 ground state, i.e. all population on the
    site minimizing eps_j (ties broken toward lower site energy, then lower
    index), and J is ramped linearly to its target over the protocol
    duration, followed by an optional hold. For target='highest-excited' the
    whole procedure runs on the negated model, whose ground state is the
    excited state of the original; the returned state is reported as-is
    (densities and r are negation-invariant).

    Returns (final LatticeState, Trajectory). Given a sequence of
    ModelParams sharing L, all ramps run as one batched `evolve` and the
    return is (list of final states, BatchTrajectory); a row that aborted
    has None as its final state and its message in `errors`.
    """
    lone = isinstance(params_target, ModelParams)
    targets = [params_target] if lone else list(params_target)
    chains = [p if protocol.target == "ground" else p.negated() for p in targets]
    initial = [LatticeState.single_site(
        p.L, int(np.argmin(quasiperiodic_potential(p))),   # lowest index on ties
        center=(p.L - 1) // 2) for p in chains]
    J = _column([p.J for p in chains])

    def j_of_t(t):
        return J * protocol.hopping_fraction(t)

    traj = evolve(chains, initial, protocol.duration + protocol.hold, dt=dt,
                  snapshot_stride=snapshot_stride, j_of_t=j_of_t)
    finals = [None if row is None else row.final_state() for row in traj.rows]
    if lone:
        if traj.errors[0]:
            raise RuntimeError(traj.errors[0])
        return finals[0], traj.rows[0]
    return finals, traj
