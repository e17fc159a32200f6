"""
Eigenstates of the (non)linear AA lattice model.

Linear spectra come from dense symmetric tridiagonal diagonalization. The
nonlinear ground state is found variationally on the unit sphere:

  stage A  normalized imaginary-time gradient flow from the linear ground
           state (robust far from the solution; energy is monotone under
           the accepted steps, with adaptive step halving),
  stage B  self-consistent refinement: the density is relaxed with linear
           mixing against the ground state of the frozen-density Hamiltonian,
           which converges fast near a focusing solution,
  stage C  a bordered Newton solve of the stationarity system
           (H[phi] phi - mu phi = 0, ||phi||^2 = 1), which reaches residuals
           near machine precision in a few quadratic steps. Newton output is
           accepted only if it does not raise the energy, so the cascade
           cannot be pulled away from the variational basin.

Stage B alone can limit-cycle when the interaction is defocusing and the
low-energy landscape has several competing wells (density "sloshes" between
them); the cascade detects the stall and lets stages A/C finish the job.

Many cells that share L, J and U (a scan row) can run attempt 0's stage A
as one (B, L) array: imag_time_starts returns each cell's `start`, and
solve_state(..., start=...) runs the rest of its cascade alone. The
stencil, energy and residual kernels act on (..., L) arrays, so each row of
the batch is computed bit for bit as the lone 1-D solve computes it.

The highest excited state is the ground state of the negated model
(J, Delta, U) -> (-J, -Delta, -U), computed by the same solver and reported
with mu and E negated back.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz, dstein

from .model import LatticeState, ModelParams, quasiperiodic_potential


@dataclass(frozen=True)
class SolverOptions:
    residual_tol: float = 1e-10
    max_iterations: int = 50_000
    imag_time_step: float = 0.05
    mixing: float = 0.3

    def __post_init__(self):
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0):
            raise ValueError(f"residual_tol must be positive and finite, "
                             f"got {self.residual_tol!r}")
        if not (math.isfinite(self.imag_time_step) and self.imag_time_step > 0):
            raise ValueError(f"imag_time_step must be positive and finite, "
                             f"got {self.imag_time_step!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if not (0.0 < self.mixing <= 1.0):
            raise ValueError("mixing must lie in (0, 1]")


@dataclass
class EigenSolution:
    state: LatticeState
    mu: float
    energy: float
    residual: float
    iterations: int
    converged: bool
    kind: str                     # "ground" | "highest-excited"


# -------------------------
# Linear diagonalization
# -------------------------

def linear_spectrum(L, J, potential):
    """All eigenpairs of the linear chain, eigenvalues ascending.

    `potential` is the length-L on-site vector; the off-diagonal is the
    uniform hopping J. Eigenvectors are columns, normalized, with the sign
    fixed so the largest-magnitude component is positive.
    """
    eps = np.asarray(potential, dtype=float)
    if eps.shape != (L,):
        raise ValueError(f"potential length {eps.shape} does not match L={L}")
    w, v = eigh_tridiagonal(eps, np.full(L - 1, float(J)))
    for k in range(L):
        i = np.argmax(np.abs(v[:, k]))
        if v[i, k] < 0:
            v[:, k] = -v[:, k]
    return w, v


def _linear_edge_state(eps, off, which):
    """Single extreme eigenpair (which = 0 for lowest, -1 for highest) of the
    float64 tridiagonal matrix with diagonal `eps` and off-diagonal `off`.

    Calls LAPACK bisection (dstebz) and inverse iteration (dstein) with the
    arguments eigh_tridiagonal(select="i") passes them: the same pair, bit
    for bit, without its per-call argument checks. A non-finite diagonal
    raises the RuntimeError of _check_finite.
    """
    _check_finite(eps, "the tridiagonal edge eigen-solve")
    k = 1 if which == 0 else len(eps)            # 1-based LAPACK index
    m, w, iblock, isplit, info = dstebz(eps, off, 2, 0.0, 1.0, k, k, 0.0, "B")
    if info == 0:
        v, info = dstein(eps, off, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"tridiagonal edge eigenpair did not converge (LAPACK info={info})")
    vec = v[:, 0]
    i = np.argmax(np.abs(vec))
    if vec[i] < 0:
        vec = -vec
    return w[0], vec


# -------------------------
# Nonlinear ground state
# -------------------------

# The kernels below take a state v of shape (L,) or (B, L), one state per
# row. np.sum/np.max/np.linalg.norm run these same reductions on a 1-D float
# array; calling them directly skips the wrappers' dispatch, bit for bit.
# Along axis -1 they, and np.vecdot (BLAS ddot, as v.dot(w) and v @ w), reduce
# each row of a C-contiguous (B, L) array as they reduce that row alone.
_sum, _max = np.add.reduce, np.maximum.reduce


def _h_apply_real(J, eps, U, v):
    out = (eps - U * v * v) * v
    out[..., :-1] += J * v[..., 1:]
    out[..., 1:] += J * v[..., :-1]
    return out


def _norm(v):
    return math.sqrt(v.dot(v))


def _energy_real(J, eps, U, v):
    n = v * v
    return (2.0 * J * _sum(v[..., :-1] * v[..., 1:], axis=-1)
            + _sum(eps * n, axis=-1) - 0.5 * U * _sum(n * n, axis=-1))


def _residual_mu(J, eps, U, v):
    """Residual ||H[v] v - mu v||_inf and Rayleigh quotient mu, per row."""
    hv = _h_apply_real(J, eps, U, v)
    mu = np.vecdot(v, hv)
    return _max(np.abs(hv - mu[..., None] * v), axis=-1), mu


def _check_finite(v, where):
    if not np.all(np.isfinite(v)):
        raise RuntimeError(f"non-finite amplitudes encountered during {where}; "
                           "check parameters (possible self-trapping blow-up)")


def _stage_a_plan(attempt):
    """Step cap and residual target of stage A on cascade attempt `attempt`."""
    return 2000 + 1000 * attempt, 10.0 ** (-3 - attempt)


def _imag_time_block(J, eps, U, v, max_steps, step, res_target, budget):
    """Projected gradient descent in imaginary time.

    Steps that raise the energy are rejected and retried with half the step;
    accepted steps slowly re-grow it. Returns (v, step, iterations_used).
    """
    e_prev = _energy_real(J, eps, U, v)
    used = 0
    for k in range(min(max_steps, budget)):
        used += 1
        w = v - step * _h_apply_real(J, eps, U, v)
        w /= _norm(w)
        e = _energy_real(J, eps, U, w)
        if e > e_prev + 1e-15:
            step *= 0.5
            continue
        v, e_prev = w, e
        step = min(step * 1.02, 0.2)
        if k % 50 == 0:
            _check_finite(v, "imaginary-time flow")
            if _residual_mu(J, eps, U, v)[0] < res_target:
                break
    return v, step, used


def _imag_time_rows(J, eps, U, v, max_steps, step, res_target, budget):
    """_imag_time_block on every row of the (B, L) arrays `eps` and `v`.

    Each row keeps its own step size, energy guard and exit, and gets the
    (v, step, iterations_used) the lone block returns for it, bit for bit.
    A row leaves the batch where the lone block breaks, or where its
    finiteness check fails: the lone block raises there, and the cascade
    raises the same error at its check after stage A. Returns the arrays
    (v, step, used) of shape (B, L), (B,) and (B,).
    """
    n_steps = min(max_steps, budget)
    out_v, out_step = v.copy(), np.full(len(v), float(step))
    out_used = np.full(len(v), n_steps)
    live, step = np.arange(len(v)), out_step.copy()
    e_prev = _energy_real(J, eps, U, v)
    for k in range(n_steps):
        w = v - step[:, None] * _h_apply_real(J, eps, U, v)
        w /= np.sqrt(np.vecdot(w, w))[:, None]
        e = _energy_real(J, eps, U, w)
        ok = ~(e > e_prev + 1e-15)                 # NaN is accepted, as alone
        v = np.where(ok[:, None], w, v)
        e_prev = np.where(ok, e, e_prev)
        step = np.where(ok, np.minimum(step * 1.02, 0.2), step * 0.5)
        if k % 50:
            continue
        done = ok & (~np.isfinite(v).all(axis=-1)
                     | (_residual_mu(J, eps, U, v)[0] < res_target))
        if done.any():
            rows = live[done]
            out_v[rows], out_step[rows], out_used[rows] = v[done], step[done], k + 1
            keep = ~done
            live, v, eps, step, e_prev = (live[keep], v[keep], eps[keep],
                                          step[keep], e_prev[keep])
            if not live.size:
                break
    out_v[live], out_step[live] = v, step
    return out_v, out_step, out_used


def _scf_block(J, off, eps, U, v, mixing, max_steps, tol, budget):
    """Self-consistent refinement with linear density mixing.

    Diagonalizes the Hamiltonian with the interaction frozen at the current
    density, relaxes the density toward the resulting ground state, and
    tracks the best iterate (by residual). Stops early on convergence or on
    a stall (no meaningful residual decrease across a damping window).
    """
    n = v * v
    best_res, best_v = _residual_mu(J, eps, U, v)[0], v.copy()
    mix = mixing
    window_best = np.inf
    used = 0
    for k in range(min(max_steps, budget)):
        used += 1
        _, u = _linear_edge_state(eps - U * n, off, 0)
        res, _ = _residual_mu(J, eps, U, u)
        if res < best_res:
            best_res, best_v = res, u.copy()
        if res < tol:
            return u, best_res, best_v, used
        n = (1.0 - mix) * n + mix * u * u
        if (k + 1) % 100 == 0:
            if res > 0.5 * window_best:
                mix = max(0.5 * mix, 0.01)
            if res > 0.95 * window_best:
                break                      # sloshing / stalled
            window_best = min(window_best, res)
    return best_v, best_res, best_v, used


def _newton_polish(J, eps, U, v, mu, tol, max_newton):
    """Newton iteration on the bordered stationarity system.

    Unknowns (phi, mu); equations H[phi] phi - mu phi = 0 and the sphere
    constraint. The Jacobian is tridiagonal plus a border row/column; its
    constant hopping entries are written once, the rest refilled per step.
    Success is measured with the Rayleigh-quotient residual (the same
    measure the solver reports), not the bordered-system mu, so a returned
    True never flips back to unconverged at the margin. Returns
    (v, mu, residual, ok, steps), counting each pass that evaluates F.
    """
    L = len(v)
    Jm = np.zeros((L + 1, L + 1))
    Jm[np.arange(L - 1), np.arange(1, L)] = J
    Jm[np.arange(1, L), np.arange(L - 1)] = J
    diag = Jm.reshape(-1)[:L * (L + 2):L + 2]      # view of Jm[j, j], j < L
    F = np.empty(L + 1)
    for k in range(max_newton):
        hv = _h_apply_real(J, eps, U, v)
        np.subtract(hv, mu * v, out=F[:L])
        F[L] = 0.5 * (v @ v - 1.0)
        res = _max(np.abs(F[:L]))
        if res < tol and abs(F[L]) < 1e-13:
            res_ray, mu_ray = _residual_mu(J, eps, U, v)
            if res_ray < tol:
                return v, mu_ray, float(res_ray), True, k + 1
        diag[:] = eps - 3.0 * U * v * v - mu
        Jm[:L, L] = -v
        Jm[L, :L] = v
        try:
            delta = np.linalg.solve(Jm, -F)
        except np.linalg.LinAlgError:
            return v, mu, float(res), False, k + 1
        v = v + delta[:L]
        mu = mu + float(delta[L])
        nv = _norm(v)
        if nv == 0 or not np.isfinite(nv):
            return v, mu, float(res), False, k + 1
        v /= nv
    res, mu = _residual_mu(J, eps, U, v)
    return v, mu, float(res), res < tol, max_newton


def nonlinear_ground_state(params: ModelParams, opts: SolverOptions = SolverOptions(),
                           start=None) -> EigenSolution:
    """Stationary state minimizing E[phi] on the unit sphere.

    Deterministic: initialization is always the linear (U=0) ground state at
    the same (L, J, Delta, beta, phi). Convergence is declared on the
    stationarity residual ||H[phi]phi - mu phi||_inf, not on energy change.
    `iterations` counts imaginary-time steps, SCF steps and Newton steps,
    and never exceeds opts.max_iterations. `start` is (linear ground state,
    v, step, iterations) after attempt 0's stage A, as imag_time_starts
    computes it for these params and opts; the cascade then goes on from
    there, and its result is the one it returns without `start`.
    """
    eps = quasiperiodic_potential(params)
    J, U = params.J, params.U
    off = np.full(params.L - 1, float(J))
    if start is None:
        _, v0 = _linear_edge_state(eps, off, 0)
        max_steps, target = _stage_a_plan(0)
        start = (v0, *_imag_time_block(J, eps, U, v0, max_steps, opts.imag_time_step,
                                       target, opts.max_iterations))
    v0, v, step, used = start
    iterations = 0

    best_v = v0.copy()
    best_e = _energy_real(J, eps, U, best_v)

    for attempt in range(8):
        budget = opts.max_iterations - iterations
        if budget <= 0:
            break
        # stage A: imaginary time toward a progressively tighter target
        # (attempt 0's is the start)
        if attempt:
            max_steps, target = _stage_a_plan(attempt)
            v, step, used = _imag_time_block(J, eps, U, v, max_steps, step,
                                             target, budget)
        iterations += used
        _check_finite(v, "imaginary-time flow")
        e = _energy_real(J, eps, U, v)
        if e <= best_e:
            best_e, best_v = e, v.copy()

        # stage B: self-consistent refinement with density mixing
        budget = opts.max_iterations - iterations
        if budget > 0:
            _, res_scf, u_best, used = _scf_block(J, off, eps, U, v, opts.mixing,
                                                  2000, opts.residual_tol, budget)
            iterations += used
            e_scf = _energy_real(J, eps, U, u_best)
            if e_scf <= best_e:
                best_e, best_v = e_scf, u_best.copy()
            if res_scf < opts.residual_tol:
                best_v = u_best
                break

        # stage C: Newton polish from the best iterate so far
        mu0 = _residual_mu(J, eps, U, best_v)[1]
        vn, _, _, ok, used = _newton_polish(
            J, eps, U, best_v.copy(), mu0, opts.residual_tol,
            min(40, opts.max_iterations - iterations))
        iterations += used
        if ok and np.all(np.isfinite(vn)):
            en = _energy_real(J, eps, U, vn)
            if en <= best_e + 1e-12:
                best_v, best_e = vn, en
                break
        v = best_v.copy()

    nv = _norm(best_v)
    if nv == 0 or not np.isfinite(nv):
        raise RuntimeError("the solver ended on a zero or non-finite state; "
                           "check parameters (possible self-trapping blow-up)")
    res, mu = map(float, _residual_mu(J, eps, U, best_v))
    state = LatticeState(best_v.astype(complex))
    return EigenSolution(
        state=state,
        mu=mu,
        energy=_energy_real(J, eps, U, best_v),
        residual=res,
        iterations=iterations,
        converged=res < opts.residual_tol,
        kind="ground",
    )


def nonlinear_excited_state(params: ModelParams, opts: SolverOptions = SolverOptions(),
                            start=None) -> EigenSolution:
    """Highest excited state, solved as the ground state of the negated model.

    The state vector is reused as-is; mu and E are negated back to refer to
    the original parameters. `start` is as in nonlinear_ground_state.
    """
    sol = nonlinear_ground_state(params.negated(), opts, start)
    return EigenSolution(
        state=sol.state,
        mu=-sol.mu,
        energy=-sol.energy,
        residual=sol.residual,
        iterations=sol.iterations,
        converged=sol.converged,
        kind="highest-excited",
    )


def _negates(kind):
    """True if `kind` is solved as the ground state of the negated model."""
    if kind in ("gs", "ground"):
        return False
    if kind in ("es", "highest-excited"):
        return True
    raise ValueError(f"unknown state kind {kind!r} (expected 'gs' or 'es')")


def solve_state(params: ModelParams, kind: str, opts: SolverOptions = SolverOptions(),
                start=None) -> EigenSolution:
    """Dispatch helper: kind is 'gs' (ground) or 'es' (highest excited).

    `start` is this cell's entry of imag_time_starts, or None to run the
    whole cascade here; the result is the same either way.
    """
    if _negates(kind):
        return nonlinear_excited_state(params, opts, start)
    return nonlinear_ground_state(params, opts, start)


def imag_time_starts(cells, kind, opts: SolverOptions = SolverOptions()):
    """Attempt 0's stage A for cells of one kind that share L, J and U.

    `cells` is a sequence of ModelParams (the Delta, beta and phi may vary).
    Stage A runs on all of them as one (B, L) array, and entry i of the
    returned list is the `start` that solve_state(cells[i], kind, opts,
    start=...) goes on from: bit for bit what the lone solve computes.
    """
    solved = [p.negated() for p in cells] if _negates(kind) else list(cells)
    L, J, U = solved[0].L, solved[0].J, solved[0].U
    if any((p.L, p.J, p.U) != (L, J, U) for p in solved):
        raise ValueError("imag_time_starts needs cells that share L, J and U")
    eps = np.array([quasiperiodic_potential(p) for p in solved])
    off = np.full(L - 1, float(J))
    v0 = np.array([_linear_edge_state(row, off, 0)[1] for row in eps])
    max_steps, target = _stage_a_plan(0)
    v, step, used = _imag_time_rows(J, eps, U, v0, max_steps, opts.imag_time_step,
                                    target, opts.max_iterations)
    return [(v0[i], v[i], float(step[i]), int(used[i])) for i in range(len(cells))]
