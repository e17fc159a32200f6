"""
Eigenstates of the (non)linear AA lattice model.

Linear spectra come from dense symmetric tridiagonal diagonalization. The
LAPACK routines come from scipy's compiled module scipy/linalg/_flapack,
loaded from its file so that the scipy.linalg package is not imported, or
from scipy.linalg.lapack where that private file or a routine is missing;
dynamics loads scipy's DOP853 the same way, by _load_scipy_extension.
The nonlinear ground state is found variationally on the unit sphere:

  stage A  normalized imaginary-time gradient flow from the linear ground
           state (robust far from the solution; energy is monotone under
           the accepted steps, with adaptive step halving; one
           Hamiltonian product per step gives energy and gradient; a lone
           block steps on arrays allocated once per call, bit for bit as
           with per-step arrays, and returns a state that owns its memory),
  stage B  self-consistent refinement: the density is relaxed with linear
           mixing against the ground state of the frozen-density Hamiltonian.
           It stops at residual NEWTON_HANDOVER (1e-5), or at the solver's
           tolerance if that is looser, or when a SCF_WINDOW-step window
           lowers its residual by less than 5 %,
  stage C  a bordered Newton solve of the stationarity system
           (H[phi] phi - mu phi = 0, ||phi||^2 = 1), which reaches residuals
           near machine precision in a few quadratic steps. Each step costs
           O(L): one tridiagonal LAPACK solve with two right-hand sides and
           the border eliminated by its Schur complement, or a dense solve
           of the bordered system where that elimination is unsafe. Newton
           output is accepted only if it does not raise the energy, so the
           cascade cannot be pulled away from the variational basin.

Stage B converges only linearly, so Newton finishes every solve that stage B
does not end below the tolerance: from the handover it takes 3 to 5 steps
where stage B would take hundreds. Stage B can also limit-cycle when the
interaction is defocusing and the low-energy landscape has several competing
wells (density "sloshes" between them); the stall exit hands such a block to
Newton too, and to stage A of the next attempt if Newton fails.

Where the solved model is defocusing (U <= 0), attempt 0 first tries to end
right after stage A (_newton_exit): Newton from stage A's state, accepted
in place of stage B's outcome if it reaches the tolerance, passes the
cascade's energy guard and is certified. The certificate (_certified, one
O(L) LAPACK dpttrf factorization) says that the state is the lowest
eigenvector of its own H[phi]. On this side E is convex in the density, and
a stationary state that passes it is the ground state (Lieb, Seiringer &
Yngvason, PRA 61, 043602 (2000)). Where U > 0 it is necessary but not
sufficient: Newton from stage A can land on a certified stationary state
above the ground state, so a cold solve runs the exit only where U <= 0. A
warm start (below) runs it on either sign of U, from the solved
neighbour's state; on the focusing side its caller checks the result
(phasescan._refine). A rejected exit costs its Newton steps' time but no
iterations, and the cascade goes on bit for bit as without it. Every solve
reports the certificate on the state it returns.

Many cells that share L (a scan's grid, or one refinement step of all its
rows, of both kinds and any U) can run attempt 0 as (B, L) arrays:
batched_starts returns each cell's `start`, and solve_state(...,
start=...) goes on from there alone. A row's potential and linear ground
state depend on (J, Delta, phi) and not on U, so the batch computes each
once per distinct (J, Delta, phi) (_model_rows). Each row carries its own
J and U, as (B, 1) columns in the stencil, the eps - U v^2 diagonal and
stage A's energy and gradient. The model's apply_stencil and the residual
act on (..., L) arrays, and stage B's LAPACK edge eigenpair runs row by row
on that row's own off-diagonal. After stage A, the convex exit runs on the
convex rows, stage B on the rest, and stage C on the rows stage B leaves
above the tolerance, so the start carries attempt 0's finished outcome,
and, where that ends the solve, the finished solve, which solve_state
returns as it is.
Their Newton steps take all rows at once: the rows' tridiagonals, stacked
with zero couplings, form one block-diagonal matrix, which one LAPACK
dgtsv call per step eliminates block by block, each block exactly as
alone. So each row of the batch is computed bit for bit as the lone 1-D
solve computes it. A lone solve keeps the scalar Newton loop, cheaper for
one row: at L = 144, three steps as rows of one take 4.2 times as long as
_newton_polish and 3.0 times as long as _newton_exit (one BLAS thread). A
solve can also skip stage A and start from a solved neighbour's state
(warm_start), as the transition refinement of phasescan does: the start
carries the Newton exit from that state, and the finished solve, where
the exit is accepted, and the solve runs stage B from it only where the
exit is rejected. warm_starts makes the starts of several cells at once,
their Newton exits as rows through the rows exit (_exit_rows) that the
batch's convex exit runs too, each start bit for bit warm_start's.

The highest excited state is the ground state of the negated model
(J, Delta, U) -> (-J, -Delta, -U). solve_state, the one entry point, solves
the model ModelParams.for_kind gives ('es' negated), reporting mu and E
negated back. Its callers fail an unconverged solve by require_converged.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .model import (LatticeState, ModelParams, apply_stencil, energy_of,
                    quasiperiodic_potential)

_LAPACK_ROUTINES = ("dgtsv", "dpttrf", "dstebz", "dstein", "dstevd")


def _scipy_extension_file(subpackage, module):
    """Path of scipy's extension module scipy/<subpackage>/<module>, or None."""
    spec = importlib.util.find_spec("scipy")
    for root in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, subpackage, module + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_scipy_extension(subpackage, module, names, fallback):
    """scipy's compiled module scipy.<subpackage>.<module>, loaded from its
    file: importing it by name would first run the subpackage's __init__.py
    (and, for scipy.linalg and scipy.integrate, scipy's array-API layer and
    further subpackages), which take most of the CLI's start-up. Falls back
    to importing the module named `fallback` if the file is missing, does
    not load, or lacks one of `names`."""
    path = _scipy_extension_file(subpackage, module)
    if path is not None:
        spec = importlib.util.spec_from_file_location(
            f"scipy.{subpackage}.{module}", path)
        registered = spec.name in sys.modules
        try:
            loaded = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(loaded)
        except ImportError:
            loaded = None
        if not registered:
            # CPython may enter the extension in sys.modules; without that
            # entry a later `import scipy.<subpackage>` loads it as a plain
            # import would (from CPython's cache of initialized extensions)
            # and binds it as the package's attribute
            sys.modules.pop(spec.name, None)
        if all(hasattr(loaded, name) for name in names):
            return loaded
    return importlib.import_module(fallback)


_lapack = _load_scipy_extension("linalg", "_flapack", _LAPACK_ROUTINES,
                                "scipy.linalg.lapack")
dgtsv, dpttrf, dstebz, dstein, dstevd = (getattr(_lapack, name)
                                         for name in _LAPACK_ROUTINES)

IMAG_TIME_STEP = 0.05     # stage A's first step size
SCF_MIXING = 0.3          # stage B's first density-mixing weight
SCF_WINDOW = 50           # stage B's steps per mixing-halving and stall check
NEWTON_HANDOVER = 1e-5    # stage B's residual at which Newton takes over
CERTIFICATE_SHIFT = 1e-8  # how far below mu the lowest eigenvalue of H[phi] may lie


@dataclass(frozen=True)
class SolverOptions:
    residual_tol: float = 1e-10
    max_iterations: int = 50_000

    def __post_init__(self):
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0):
            raise ValueError(f"residual_tol must be positive and finite, "
                             f"got {self.residual_tol!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations!r}")


@dataclass
class EigenSolution:
    state: LatticeState
    mu: float
    energy: float
    residual: float
    iterations: int
    converged: bool
    certified: bool


# -------------------------
# Linear diagonalization
# -------------------------

def linear_spectrum(L, J, potential):
    """All eigenpairs of the linear chain, eigenvalues ascending.

    `potential` is the length-L on-site vector; the off-diagonal is the
    uniform hopping J. Eigenvectors are columns, normalized, with the sign
    fixed so the largest-magnitude component is positive.

    Calls LAPACK dstevd as scipy's eigh_tridiagonal(eps, off) does, bit for
    bit, with its ValueError on a non-finite input and its 1 x 1 shortcut.
    """
    eps = np.asarray_chkfinite(potential, dtype=float)
    if eps.shape != (L,):
        raise ValueError(f"potential length {eps.shape} does not match L={L}")
    off = np.asarray_chkfinite(np.full(L - 1, float(J)))
    if L == 1:
        return eps.copy(), np.array([[1.0]])
    w, v, info = dstevd(eps, off, compute_v=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"tridiagonal eigen-solve did not converge (LAPACK info={info})")
    i = np.argmax(np.abs(v), axis=0)
    np.negative(v, out=v, where=v[i, np.arange(L)] < 0)
    return w, v


def _linear_edge_state(eps, off):
    """Lowest eigenpair of the float64 tridiagonal matrix with diagonal `eps`
    and off-diagonal `off`.

    Calls LAPACK bisection (dstebz) and inverse iteration (dstein) with the
    arguments eigh_tridiagonal(select="i") passes them: the same pair, bit
    for bit, without its per-call argument checks. A non-finite diagonal
    raises the RuntimeError of _check_finite.
    """
    _check_finite(eps, "the tridiagonal edge eigen-solve")
    w, vec, info = _edge_pair(eps, off, 1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"tridiagonal edge eigenpair did not converge (LAPACK info={info})")
    i = np.argmax(np.abs(vec))
    if vec[i] < 0:
        vec = -vec
    return w, vec


def _edge_pair(d, off, k):
    """Eigenpair k (1-based, ascending) of the tridiagonal (d, off) as LAPACK
    returns it, before the sign fix: (eigenvalue, vector, info). The vector
    is None when dstebz fails (info != 0)."""
    m, w, iblock, isplit, info = dstebz(d, off, 2, 0.0, 1.0, k, k, 0.0, "B")
    if info != 0:
        return None, None, info
    v, info = dstein(d, off, w[:m], iblock, isplit)
    return w[0], v[:, 0], info


# -------------------------
# Nonlinear eigenstates
# -------------------------

# The kernels below take a real state v of shape (L,) or (B, L), one state
# per row. np.max/np.linalg.norm run these same reductions on a 1-D float
# array; calling them directly skips the wrappers' dispatch, bit for bit.
# Along axis -1 they, and np.vecdot (BLAS ddot, as v.dot(w) and v @ w), reduce
# each row of a C-contiguous (B, L) array as they reduce that row alone.
_max = np.maximum.reduce


def _norm(v):
    return math.sqrt(v.dot(v))


def _residual_mu(J, eps, U, v):
    """Residual ||H[v] v - mu v||_inf and Rayleigh quotient mu, per row."""
    return _projected(v, apply_stencil(J, eps - U * v * v, v))


def _projected(v, g):
    """max|g - mu v| and mu = v.g per row; for g = H[v] v, _residual_mu."""
    mu = np.vecdot(v, g)
    return _max(np.abs(g - mu[..., None] * v), axis=-1), mu


def _energy_gradient(J, eps, U, w):
    """E[w] and the gradient H[w] w per row from one linear stencil: with
    h = H0 w (no interaction diagonal) and n = w*w, E = w.h - n.(U n) / 2
    and H[w] w = h - (U n) w. J and U are scalars or (B, 1) columns."""
    h = apply_stencil(J, eps, w)
    n = w * w
    un = U * n
    if w.ndim == 1:        # ndarray.dot: np.vecdot's ddot, with less call overhead
        e = w.dot(h) - 0.5 * n.dot(un)
    else:
        e = np.vecdot(w, h) - 0.5 * np.vecdot(n, un)
    un *= w                # in place: h - un * w, bit for bit
    h -= un
    return e, h


def _check_finite(v, where):
    if not np.isfinite(v).all():
        raise RuntimeError(f"non-finite amplitudes encountered during {where}; "
                           "check parameters (possible self-trapping blow-up)")


def _stage_a_plan(attempt):
    """Step cap and residual target of stage A on cascade attempt `attempt`."""
    return 2000 + 1000 * attempt, 10.0 ** (-3 - attempt)


def _imag_time_block(J, eps, U, v, max_steps, step, res_target, budget):
    """Projected gradient descent in imaginary time.

    Steps that raise the energy are rejected and retried with half the step;
    accepted steps slowly re-grow it. An accepted state's energy and gradient
    give the next step.

    Each step writes into arrays allocated once per call: two (state,
    gradient) pairs, swapped when a step is accepted, and three scratch
    arrays. The candidate v - step * g, its normalization and its
    _energy_gradient, with apply_stencil inlined on shifted views built
    once, keep those functions' operand order, so each step is bit for bit
    theirs (test_stage_a_is_bitwise_the_reference_loop). `v` is never
    written to, and the returned state is an array of this call's own.
    Returns (v, step, iterations_used).
    """
    e_prev, g = _energy_gradient(J, eps, U, v)   # g is a new array: a buffer
    v, w, h = v.copy(), np.empty_like(v), np.empty_like(v)
    jv, n, un = np.empty_like(v), np.empty_like(v), np.empty_like(v)
    jv_lo, jv_hi = jv[:-1], jv[1:]
    cur, nxt = (v, g, g[:-1], g[1:]), (w, h, h[:-1], h[1:])
    mul = np.multiply
    used = 0
    for k in range(min(max_steps, budget)):
        used += 1
        w, h, h_lo, h_hi = nxt
        mul(g, -step, out=w)   # then += v: v - step * g, bit for bit
        w += v
        w /= math.sqrt(w.dot(w))
        mul(eps, w, out=h)     # apply_stencil(J, eps, w) into h
        mul(J, w, out=jv)
        h_lo += jv_hi
        h_hi += jv_lo
        mul(w, w, out=n)       # the rest of _energy_gradient(J, eps, U, w)
        mul(U, n, out=un)
        e = w.dot(h) - 0.5 * n.dot(un)
        un *= w
        h -= un
        if e > e_prev + 1e-15:
            step *= 0.5
            continue
        cur, nxt = nxt, cur
        v, g, e_prev = w, h, e
        step = min(step * 1.02, 0.2)
        if k % 50 == 0:
            _check_finite(v, "imaginary-time flow")
            if _projected(v, g)[0] < res_target:
                break
    return v, step, used


def _imag_time_rows(J, eps, U, v, max_steps, step, res_target, budget):
    """_imag_time_block on every row of the (B, L) arrays `eps` and `v`, with
    row i's own hopping J[i] and interaction U[i] ((B,) arrays).

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
    J, U = J[:, None], U[:, None]
    e_prev, g = _energy_gradient(J, eps, U, v)
    for k in range(n_steps):
        w = v - step[:, None] * g
        w /= np.sqrt(np.vecdot(w, w))[:, None]
        e, g_w = _energy_gradient(J, eps, U, w)
        ok = ~(e > e_prev + 1e-15)                 # NaN is accepted, as alone
        v = np.where(ok[:, None], w, v)
        g = np.where(ok[:, None], g_w, g)
        e_prev = np.where(ok, e, e_prev)
        step = np.where(ok, np.minimum(step * 1.02, 0.2), step * 0.5)
        if k % 50:
            continue
        done = ok & (~np.isfinite(v).all(axis=-1)
                     | (_projected(v, g)[0] < res_target))
        if done.any():
            rows = live[done]
            out_v[rows], out_step[rows], out_used[rows] = v[done], step[done], k + 1
            keep = ~done
            live, v, g, eps, J, U, step, e_prev = (a[keep] for a in (
                live, v, g, eps, J, U, step, e_prev))
            if not live.size:
                break
    out_v[live], out_step[live] = v, step
    return out_v, out_step, out_used


def _scf_block(J, off, eps, U, v, max_steps, tol, budget):
    """Self-consistent refinement with linear density mixing.

    Diagonalizes the Hamiltonian with the interaction frozen at the current
    density, relaxes the density toward the resulting ground state, and
    tracks the best iterate (by residual). Stops early once the residual is
    below max(tol, NEWTON_HANDOVER), where Newton takes over, or on a stall
    (the residual falls by less than 5 % across a SCF_WINDOW-step window).
    Returns (best residual, best iterate, iterations_used).
    """
    n = v * v
    best_res, best_v = _residual_mu(J, eps, U, v)[0], v.copy()
    mix = SCF_MIXING
    window_best = np.inf
    handover = max(tol, NEWTON_HANDOVER)
    used = 0
    for k in range(min(max_steps, budget)):
        used += 1
        _, u = _linear_edge_state(eps - U * n, off)
        res, _ = _residual_mu(J, eps, U, u)
        if res < best_res:
            best_res, best_v = res, u.copy()
        if res < handover:
            break
        n = (1.0 - mix) * n + mix * u * u
        if (k + 1) % SCF_WINDOW == 0:
            if res > 0.5 * window_best:
                mix = max(0.5 * mix, 0.01)
            if res > 0.95 * window_best:
                break                      # sloshing / stalled
            window_best = min(window_best, res)
    return best_res, best_v, used


def _scf_rows(J, eps, U, v, max_steps, tol, budgets):
    """_scf_block on every row of the (B, L) arrays `eps` and `v`, with row
    i's own hopping J[i], interaction U[i] and budget budgets[i] ((B,)
    arrays).

    Each row keeps its own density, mixing, stall window, best iterate and
    exit, and entry i of the returned list is the (best residual, best
    iterate, iterations_used) the lone block returns for row i, bit for
    bit. Only the LAPACK edge pair runs row by row, on the row's own
    off-diagonal. A row whose frozen Hamiltonian is not finite or whose edge
    pair fails leaves the batch with None: the lone block raises there, and
    so does a lone rerun.
    """
    n_steps = np.minimum(max_steps, budgets)
    best_res, best_v = _residual_mu(J[:, None], eps, U[:, None], v)[0], v.copy()
    out = [(best_res[i], best_v[i].copy(), 0) for i in range(len(v))]
    live = np.flatnonzero(n_steps > 0)
    J, U, eps, n, best_res, best_v, n_steps = (J[live], U[live], eps[live],
                                               v[live] * v[live], best_res[live],
                                               best_v[live], n_steps[live])
    off = np.repeat(J[:, None], eps.shape[-1] - 1, axis=-1)
    mix, window_best = np.full(live.size, SCF_MIXING), np.full(live.size, np.inf)
    handover = max(tol, NEWTON_HANDOVER)
    k = 0
    while live.size:
        Jc, Uc = J[:, None], U[:, None]
        h = eps - Uc * n
        ok = np.isfinite(h).all(axis=-1)
        u = np.zeros_like(h)                 # a failed row keeps u = 0 and leaves
        for j in np.flatnonzero(ok):
            _, vec, info = _edge_pair(h[j], off[j], 1)
            if info != 0:
                ok[j] = False
            else:
                u[j] = vec
        flip = u[np.arange(live.size), np.argmax(np.abs(u), axis=-1)] < 0
        u[flip] = -u[flip]
        res = _residual_mu(Jc, eps, Uc, u)[0]
        better = res < best_res
        best_res = np.where(better, res, best_res)
        best_v = np.where(better[:, None], u, best_v)
        done = ~ok | (res < handover)
        n = (1.0 - mix)[:, None] * n + mix[:, None] * u * u
        k += 1
        if k % SCF_WINDOW == 0:
            mix = np.where(res > 0.5 * window_best, np.maximum(0.5 * mix, 0.01), mix)
            done |= res > 0.95 * window_best
            window_best = np.where(res < window_best, res, window_best)
        done |= n_steps == k
        if done.any():
            for j in np.flatnonzero(done):
                out[live[j]] = (best_res[j], best_v[j].copy(), k) if ok[j] else None
            keep = ~done
            live, J, U, off, eps, n, best_res, best_v, n_steps, mix, window_best = (
                a[keep] for a in (live, J, U, off, eps, n, best_res, best_v, n_steps,
                                  mix, window_best))
    return out


def _newton_polish(J, eps, U, v, mu, tol, max_newton):
    """Newton iteration on the bordered stationarity system.

    Unknowns (phi, mu); equations F = H[phi] phi - mu phi = 0 and the sphere
    constraint F_L = (phi.phi - 1) / 2 = 0. The Jacobian is the tridiagonal
    T = tridiag(J) + diag(eps - 3 U phi^2 - mu) bordered by -phi and phi^T,
    and _newton_step solves it in O(L). Success is measured with the
    Rayleigh-quotient residual (the same measure the solver reports), not
    the bordered-system mu, so a returned True never flips back to
    unconverged at the margin. Returns (v, ok, steps), counting each pass
    that evaluates F.
    """
    off = np.full(len(v) - 1, float(J))
    for k in range(max_newton):
        F = apply_stencil(J, eps - U * v * v, v)
        F -= mu * v
        F_L = 0.5 * (v @ v - 1.0)
        res = _max(np.abs(F))
        if res < tol and abs(F_L) < 1e-13 and _residual_mu(J, eps, U, v)[0] < tol:
            return v, True, k + 1
        try:
            d_v, d_mu = _newton_step(off, eps - 3.0 * U * v * v - mu, v, F, F_L)
        except np.linalg.LinAlgError:
            return v, False, k + 1
        v = v + d_v
        mu = mu + float(d_mu)
        nv = _norm(v)
        if nv == 0 or not np.isfinite(nv):
            return v, False, k + 1
        v /= nv
    return v, _residual_mu(J, eps, U, v)[0] < tol, max_newton


def _newton_step(off, d, v, F, F_L):
    """The solution (dphi, dmu) of [[T, -phi], [phi^T, 0]] [dphi, dmu] =
    -[F, F_L], T the tridiagonal (off, d, off), by eliminating the border (a
    Schur complement): one LAPACK dgtsv call solves T [a b] = [-F, phi], then
    dmu = (-F_L - phi.a) / (phi.b) and dphi = a + dmu b. Where dgtsv finds T
    singular, or |phi.b| <= 1e-8 would make dmu ill-conditioned, the step is
    _bordered_dense_step instead, which raises LinAlgError on a singular
    system."""
    *_, ab, info = dgtsv(off, d, off, np.array([-F, v]).T)
    vb = v @ ab[:, 1] if info == 0 else 0.0
    if abs(vb) <= 1e-8:
        return _bordered_dense_step(off, d, v, F, F_L)
    d_mu = (-F_L - v @ ab[:, 0]) / vb
    return ab[:, 0] + d_mu * ab[:, 1], d_mu


def _bordered_dense_step(off, d, v, F, F_L):
    """_newton_step by one dense solve of the (L+1)x(L+1) bordered system."""
    L = len(v)
    Jm = np.zeros((L + 1, L + 1))
    Jm[:L, :L] = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
    Jm[:L, L] = -v
    Jm[L, :L] = v
    delta = np.linalg.solve(Jm, -np.append(F, F_L))
    return delta[:L], delta[L]


def _block_couplings(J, L):
    """The off-diagonal of the block-diagonal matrix that stacks one L x L
    tridiagonal per row, row i's with off-diagonal J[i]: zero between
    blocks. LAPACK's tridiagonal routines eliminate such a matrix block by
    block, each block as they eliminate it alone (a zero coupling adds and
    subtracts only zeros), until they stop at a failing position."""
    off = np.zeros((len(J), L))
    off[:, :-1] = J[:, None]
    return off.ravel()[:-1]


def _newton_steps(J, d, v, F, F_L):
    """_newton_step on every row of the (B, L) arrays d, v and F, with row
    i's own hopping J[i] and F_L[i]. One dgtsv call solves every row's
    T [a b] = [-F, phi] as one block-diagonal system (_block_couplings).
    Where its info names a failing position, the row holding it takes the
    lone step, and the call is repeated on the other rows; where the result
    is not finite, a NaN or inf may have crossed a coupling, and every row
    takes the lone step. So does a row with |phi.b| <= 1e-8. Returns
    (d_v, d_mu, ok): row i's step as _newton_step returns it, bit for bit,
    and ok[i] False where the lone step raises LinAlgError."""
    B, L = v.shape
    rhs = np.array([-F, v])
    a, b = np.zeros_like(v), np.zeros_like(v)
    lone, todo = np.zeros(B, dtype=bool), np.arange(B)
    while todo.size:
        off = _block_couplings(J[todo], L)
        *_, x, info = dgtsv(off, d[todo].ravel(), off, rhs[:, todo].reshape(2, -1).T)
        if info > 0:
            bad = todo[(info - 1) // L]
            lone[bad] = True
            todo = todo[todo != bad]
        else:
            if np.isfinite(x).all():
                a[todo], b[todo] = x[:, 0].reshape(-1, L), x[:, 1].reshape(-1, L)
            else:
                lone[todo] = True
            break
    vb = np.vecdot(v, b)
    lone |= ~(np.abs(vb) > 1e-8)
    vb[lone] = 1.0                         # their step is the lone one, below
    d_mu = (-F_L - np.vecdot(v, a)) / vb
    d_v = a + d_mu[:, None] * b
    ok = np.ones(B, dtype=bool)
    for i in np.flatnonzero(lone):
        try:
            d_v[i], d_mu[i] = _newton_step(np.full(L - 1, J[i]), d[i], v[i], F[i],
                                           F_L[i])
        except np.linalg.LinAlgError:
            ok[i] = False
    return d_v, d_mu, ok


def _newton_rows(J, eps, U, v, mu, tol, max_newton):
    """_newton_polish on every row of the (B, L) arrays eps and v, with row
    i's own J[i], U[i], mu[i] and max_newton[i] ((B,) arrays): each pass
    takes the Newton step of all rows still iterating at once
    (_newton_steps), and a row leaves where the lone iteration returns.
    Leaves v as it is. Returns the arrays (v, ok, steps), row i's what the
    lone call returns for it, bit for bit."""
    out_v, out_ok, out_steps = v.copy(), np.zeros(len(v), dtype=bool), max_newton.copy()
    idle = max_newton <= 0                 # no pass: the residual decides, as alone
    if idle.any():
        out_ok[idle] = _residual_mu(J[idle, None], eps[idle], U[idle, None],
                                    v[idle])[0] < tol
    live = np.flatnonzero(~idle)
    J, U, eps, v, mu, max_newton = (a[live] for a in (J, U, eps, v, mu, max_newton))
    k = 0
    while live.size:
        Jc, Uc = J[:, None], U[:, None]
        F = apply_stencil(Jc, eps - Uc * v * v, v)
        F -= mu[:, None] * v
        F_L = 0.5 * (np.vecdot(v, v) - 1.0)
        done = (_max(np.abs(F), axis=-1) < tol) & (np.abs(F_L) < 1e-13)
        if done.any():
            done[done] = _residual_mu(Jc[done], eps[done], Uc[done], v[done])[0] < tol
        ok = done.copy()
        moved = np.flatnonzero(~done)
        d = eps - 3.0 * Uc * v * v - mu[:, None]
        d_v, d_mu, solved = _newton_steps(J[moved], d[moved], v[moved], F[moved],
                                          F_L[moved])
        done[moved[~solved]] = True            # the lone step raised LinAlgError
        moved = moved[solved]
        v[moved] += d_v[solved]
        mu[moved] += d_mu[solved]
        nv = np.sqrt(np.vecdot(v[moved], v[moved]))
        bad = (nv == 0) | ~np.isfinite(nv)
        done[moved[bad]] = True
        v[moved[~bad]] /= nv[~bad, None]
        k += 1
        spent = ~done & (max_newton == k)
        if spent.any():
            ok[spent] = _residual_mu(J[spent, None], eps[spent], U[spent, None],
                                     v[spent])[0] < tol
            done |= spent
        if done.any():
            rows = live[done]
            out_v[rows], out_ok[rows], out_steps[rows] = v[done], ok[done], k
            keep = ~done
            live, J, U, eps, v, mu, max_newton = (a[keep] for a in (
                live, J, U, eps, v, mu, max_newton))
    return out_v, out_ok, out_steps


def _guarded_rows(J, eps, U, v, best_e, tol, max_newton):
    """_guarded_newton on every row of the (B, L) arrays eps and v, with row
    i's own J[i], U[i], best_e[i] and max_newton[i], by _newton_rows.
    Returns (kept, v, E, steps): where kept[i], row i of v and E is the
    (state, its E) the lone guard returns, and steps[i] is its steps in
    either case, bit for bit."""
    mu = _residual_mu(J[:, None], eps, U[:, None], v)[1]
    vn, kept, used = _newton_rows(J, eps, U, v, mu, tol, max_newton)
    kept &= np.isfinite(vn).all(axis=-1)
    en = np.full(len(vn), np.nan)
    en[kept] = energy_of(J[kept], eps[kept], U[kept], vn[kept])
    kept &= en <= best_e + 1e-12
    return kept, vn, en, used


def _guarded_newton(J, eps, U, v, best_e, tol, max_newton):
    """_newton_polish from v at its Rayleigh quotient, for up to max_newton
    steps. Returns (state, its E, steps) if Newton reaches `tol` at a finite
    state whose E is not above best_e + 1e-12, so that Newton cannot pull a
    solve out of the variational basin; else (None, None, steps)."""
    mu = _residual_mu(J, eps, U, v)[1]
    vn, ok, used = _newton_polish(J, eps, U, v.copy(), mu, tol, max_newton)
    if ok and np.all(np.isfinite(vn)):
        en = energy_of(J, eps, U, vn)
        if en <= best_e + 1e-12:
            return vn, en, used
    return None, None, used


def _certified(J, eps, U, v, mu):
    """Whether v is, to within CERTIFICATE_SHIFT, the lowest eigenvector of
    its own H[v] = tridiag(J) + diag(eps - U v^2) at eigenvalue mu: LAPACK
    dpttrf factors H[v] - (mu - CERTIFICATE_SHIFT) exactly when it is
    positive definite, that is when the lowest eigenvalue of H[v] lies above
    mu - CERTIFICATE_SHIFT. O(L), without an eigensolver."""
    *_, info = dpttrf(eps - U * v * v - (mu - CERTIFICATE_SHIFT),
                      np.full(len(v) - 1, float(J)))
    return info == 0


def _newton_exit(J, eps, U, v, best_e, tol, budget):
    """Attempt 0's exit from v, the state stage A or a warm start gives it.

    Newton runs from v for up to min(40, budget) steps. If its result
    passes the cascade's guard on Newton (_guarded_newton, against best_e,
    the E of the best iterate so far: min(E(v0), E(v))) and is _certified,
    the exit returns the cell's stage B outcome (residual, state, Newton
    steps) and the _report of that state, which ends the solve; else None.
    Where U <= 0, E is convex in the density, and a stationary state that
    is the lowest eigenvector of its own H[phi] is the ground state (Lieb,
    Seiringer & Yngvason, PRA 61, 043602 (2000)). Where U > 0 it can lie
    above the ground state, so a cold solve runs the exit only where U <= 0,
    and a warm one on either sign (warm_start).
    """
    vn, _, used = _guarded_newton(J, eps, U, v, best_e, tol, min(40, budget))
    if vn is None:
        return None
    report = _report(J, eps, U, vn)
    return ((report[0], vn, used), report) if report[3] else None


def _exit_rows(J, eps, U, v, best_e, tol, max_newton):
    """_newton_exit on every row of the (B, L) arrays eps and v, with row
    i's own J[i], U[i], best_e[i] and Newton cap max_newton[i] (the lone
    exit's min(40, budget)): its Newton steps by _guarded_rows, its
    certificates by _report_rows. Entry i is what the lone exit returns for
    row i, bit for bit."""
    out = [None] * len(v)
    if not out:
        return out
    kept, vn, _, steps = _guarded_rows(J, eps, U, v, best_e, tol, max_newton)
    k = np.flatnonzero(kept)
    for i, report in zip(k, _report_rows(J[k], eps[k], U[k], vn[k])):
        if report[3]:                          # the exit's certificate
            out[i] = (report[0], vn[i], int(steps[i])), report
    return out


def _report(J, eps, U, v):
    """(residual, mu, E, certified) of the state v, as a solve reports them
    in the model it solves."""
    res, mu = map(float, _residual_mu(J, eps, U, v))
    return res, mu, energy_of(J, eps, U, v), _certified(J, eps, U, v, mu)


def _report_rows(J, eps, U, v):
    """_report of each row of the (B, L) arrays eps and v, with row i's own
    J[i] and U[i], bit for bit: the residual, mu and E as rows, the
    certificate row by row."""
    res, mu = _residual_mu(J[:, None], eps, U[:, None], v)
    return [(float(r), float(m), e, _certified(j, d, u, w, float(m)))
            for r, m, e, j, d, u, w in zip(res, mu, energy_of(J, eps, U, v), J, eps, U, v)]


def _lower(J, eps, U, w, best_v, best_e):
    """The cascade's best-iterate rule: (w, E[w]) where E[w] is not above
    best_e, else (best_v, best_e). On (B, L) arrays w and best_v, with J,
    U and best_e (B,) arrays, per row."""
    e = energy_of(J, eps, U, w)
    take = e <= best_e
    if w.ndim == 1:
        return (w.copy(), e) if take else (best_v, best_e)
    return np.where(take[:, None], w, best_v), np.where(take, e, best_e)


def solve_state(params: ModelParams, kind: str, opts: SolverOptions = SolverOptions(),
                start=None) -> EigenSolution:
    """The ground state (kind 'gs') or the highest excited state ('es').

    The ground state is the stationary state minimizing E[phi] on the unit
    sphere; the highest excited state is that of the negated model, its
    state reported as-is and mu and E negated back. Deterministic:
    initialization is always the linear (U=0) ground state of the solved
    model at the same (L, J, Delta, phi). Convergence is declared on
    the stationarity residual ||H[phi]phi - mu phi||_inf, not on energy
    change. `iterations` counts imaginary-time steps, SCF steps and Newton
    steps, and never exceeds opts.max_iterations. `start` is this cell's
    entry of batched_starts, (linear ground state, v, step, iterations,
    stage B, stage C, finished): attempt 0's stage A outcome, its stage B
    outcome (_newton_exit's or _scf_block's), its stage C outcome
    (_guarded_newton's), each None where it is to run here, and, where
    attempt 0 ends the solve, the solve's (state, iterations, *_report of
    the state), which is then returned as is. None runs all of attempt 0
    here. The cascade goes on from there, and its result is the one it
    returns without `start`. A warm_start `start` skips stage A: it carries
    the Newton exit from another state as its stage B outcome and finished
    solve where that exit is accepted, on either sign of U, and False where
    it is rejected, from which the cascade begins stage B at that state
    without running the exit again; so its result can differ. `certified`
    is _certified on the returned state, in the model the kind solves.
    """
    finished = None if start is None else start[6]
    if finished is None:
        finished = _cascade(params.for_kind(kind), opts, start)
    v, iterations, res, mu, energy, certified = finished
    negate = kind == "es"
    return EigenSolution(
        state=LatticeState(v.astype(complex)),
        mu=-mu if negate else mu,
        energy=-energy if negate else energy,
        residual=res,
        iterations=iterations,
        converged=res < opts.residual_tol,
        certified=certified,
    )


def _cascade(params, opts, start):
    """solve_state's cascade on the model `params` (the one the kind
    solves), from `start` as solve_state takes it (without its finished
    solve) or from nothing. Returns the solve as (state, iterations, *_report
    of the state)."""
    eps = quasiperiodic_potential(params)
    J, U = params.J, params.U
    off = np.full(params.L - 1, float(J))
    if start is None:
        _, v0 = _linear_edge_state(eps, off)
        max_steps, target = _stage_a_plan(0)
        start = (v0, *_imag_time_block(J, eps, U, v0, max_steps, IMAG_TIME_STEP,
                                       target, opts.max_iterations), None, None, None)
    v0, v, step, used, scf, polish, _ = start
    iterations = 0

    best_v = v0.copy()
    best_e = energy_of(J, eps, U, best_v)

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
        best_v, best_e = _lower(J, eps, U, v, best_v, best_e)

        # stage B: self-consistent refinement with density mixing, after
        # attempt 0's exit where U <= 0 (a warm start's may come with it,
        # False where it was rejected)
        budget = opts.max_iterations - iterations
        if budget > 0:
            if not attempt and scf is None and U <= 0:
                out = _newton_exit(J, eps, U, v, best_e, opts.residual_tol, budget)
                scf = out and out[0]
            if attempt or not scf:
                scf = _scf_block(J, off, eps, U, v, 2000, opts.residual_tol,
                                 budget)
            res_scf, u_best, used = scf
            iterations += used
            best_v, best_e = _lower(J, eps, U, u_best, best_v, best_e)
            if res_scf < opts.residual_tol:
                best_v = u_best
                break

        # stage C: Newton polish from the best iterate so far (attempt 0's
        # may come with the start)
        if attempt or polish is None:
            polish = _guarded_newton(J, eps, U, best_v, best_e, opts.residual_tol,
                                     min(40, opts.max_iterations - iterations))
        vn, en, used = polish
        iterations += used
        if vn is not None:
            best_v, best_e = vn, en
            break
        v = best_v.copy()

    nv = _norm(best_v)
    if nv == 0 or not np.isfinite(nv):
        raise RuntimeError("the solver ended on a zero or non-finite state; "
                           "check parameters (possible self-trapping blow-up)")
    return (best_v, iterations, *_report(J, eps, U, best_v))


def warm_start(params, kind, v, opts):
    """solve_state's `start` for the cell (params, kind) that skips stage A
    and goes on from the state v, given in the frame the kind is solved in
    (as solve_state returns it): continuation from a solved neighbour. The
    linear ground state, from which the energy guard starts, is still the
    cell's own. v is copied to a contiguous array when it is not one (a
    .real view is strided), so the solve does not depend on v's layout.

    The start carries attempt 0's Newton exit from v (_newton_exit, on
    either sign of U, against min(E(v0), E(v)) and with opts' tolerance and
    budget) where the exit is accepted: its outcome as stage B's and the
    finished solve, (state, Newton steps, *_report of the state), which is
    what the cascade makes of that outcome. Newton from the predicted point
    is continuation's corrector (Allgower & Georg, SIAM 2003). Where U > 0
    an accepted state can be metastable, which the caller checks
    (phasescan._refine). Else the start is (v0, v, IMAG_TIME_STEP, 0,
    False, None, None): False records the rejected exit, and the cascade
    runs stage B at v without running it again."""
    solved = params.for_kind(kind)
    eps = quasiperiodic_potential(solved)
    J, U = solved.J, solved.U
    _, v0 = _linear_edge_state(eps, np.full(solved.L - 1, float(J)))
    v = np.ascontiguousarray(v)
    best_e = min(energy_of(J, eps, U, v0), energy_of(J, eps, U, v))
    return _warm(v0, v, _newton_exit(J, eps, U, v, best_e, opts.residual_tol,
                                     opts.max_iterations))


def warm_starts(cells, kinds, states, opts):
    """warm_start of each cell (ModelParams that share L) of kinds[i] from
    states[i], as rows: entry i is warm_start(cells[i], kinds[i],
    states[i], opts), bit for bit. The linear ground states come once per
    distinct model (_model_rows), and the Newton exits of all rows run at
    once (_exit_rows), as the convex exit of a batched attempt 0 does."""
    J, U, eps, v0 = _model_rows([p.for_kind(k) for p, k in zip(cells, kinds)])
    v = np.array(states)
    e0, e = energy_of(J, eps, U, v0), energy_of(J, eps, U, v)
    best_e = np.where(e < e0, e, e0)         # min(E(v0), E(v)), as alone
    exits = _exit_rows(J, eps, U, v, best_e, opts.residual_tol,
                       np.full(len(v), min(40, opts.max_iterations)))
    return [_warm(v0[i], v[i], out) for i, out in enumerate(exits)]


def _warm(v0, v, out):
    """The warm start from v, given the linear ground state v0 and what the
    Newton exit from v returned."""
    if out is None:
        return v0, v, IMAG_TIME_STEP, 0, False, None, None
    (res, vn, steps), report = out
    return v0, v, IMAG_TIME_STEP, 0, (res, vn, steps), None, (vn, steps, *report)


def require_converged(sol: EigenSolution, params: ModelParams, kind) -> EigenSolution:
    """`sol`, the solve of `kind` at `params`, if it converged; else the
    RuntimeError that names the cell and the residual it ended at."""
    if not sol.converged:
        raise RuntimeError(
            f"solver did not converge (kind={kind}, U={params.U}, "
            f"Delta={params.Delta}, residual={sol.residual:.2e})")
    return sol


def batched_starts(cells, kind, opts: SolverOptions = SolverOptions()):
    """Attempt 0 for cells that share L, as (B, L) arrays.

    `cells` is a sequence of ModelParams (J, Delta, phi and U may vary), and
    `kind` is one kind for all of them or a sequence of one kind per cell.
    Stage A runs on all rows at once, each with its own J and U, and then
    the rest of attempt 0 as _attempt_rows runs it. Entry i of the returned
    list is the `start` that solve_state(cells[i], kind_i, opts, start=...)
    goes on from: bit for bit what the lone solve computes.
    """
    kinds = [kind] * len(cells) if isinstance(kind, str) else kind
    J, U, eps, v0 = _model_rows([p.for_kind(k) for p, k in zip(cells, kinds)])
    max_steps, target = _stage_a_plan(0)
    v, step, used = _imag_time_rows(J, eps, U, v0, max_steps, IMAG_TIME_STEP,
                                    target, opts.max_iterations)
    return _attempt_rows(J, U, eps, v0, v, step, used, opts)


def _model_rows(solved):
    """(J, U, eps, v0) of the models `solved` (ModelParams that share L) as
    rows: J and U of shape (B,), each model's potential and linear ground
    state of shape (B, L). The potential and the ground state depend on
    (J, Delta, phi) and not on U, so each is computed once per distinct
    (J, Delta, phi), bit for bit as for each model alone."""
    firsts, index = {}, []
    rows = np.array([(p.J, p.Delta, p.phi) for p in solved], dtype=float)
    for i, row in enumerate(rows):
        index.append(firsts.setdefault(row.tobytes(), (len(firsts), i))[0])
    models = [solved[i] for _, i in firsts.values()]
    eps = np.array([quasiperiodic_potential(p) for p in models])
    v0 = np.array([_linear_edge_state(row, np.full(len(row) - 1, float(p.J)))[1]
                   for row, p in zip(eps, models)])
    J = np.array([p.J for p in solved], dtype=float)
    U = np.array([p.U for p in solved], dtype=float)
    return J, U, eps[index], v0[index]


def _attempt_rows(J, U, eps, v0, v, step, used, opts):
    """The starts of rows that ran attempt 0's stage A, from the linear
    ground states v0 and the (v, step, used) stage A gave them: the rest of
    attempt 0, as solve_state's cascade runs it, on all rows at once, each
    row bit for bit as alone.

    - The convex exit (_newton_exit) runs on the rows whose model has
      U <= 0, its Newton steps by _guarded_rows. The rows it finishes carry
      that outcome as stage B's.
    - Stage B (_scf_rows) runs on the other rows.
    - Stage C (_guarded_rows) runs from each row's best iterate on the rows
      that stage B leaves at or above the tolerance.
    - A row that attempt 0 ends (stage B reaches the tolerance, or stage C
      passes its guard) carries its finished solve, as _cascade returns it.
    A row that is not finite after stage A, has no budget left for stage B,
    or fails in it carries no outcome, and its cascade runs (and fails in)
    stage B alone. Returns one start per row, (v0, v, step, used, stage B,
    stage C, finished), stage C as _guarded_newton returns it or None.
    """
    tol = opts.residual_tol
    budgets = opts.max_iterations - used
    live = np.flatnonzero(np.isfinite(v).all(axis=-1) & (budgets > 0))
    Jl, Ul, el, vl, budgets = J[live], U[live], eps[live], v[live], budgets[live]
    scf, polish, done = ([None] * live.size for _ in range(3))
    # solve_state's best iterate after stage A
    best_v, best_e = _lower(Jl, el, Ul, vl, v0[live], energy_of(Jl, el, Ul, v0[live]))

    rows = np.flatnonzero(Ul <= 0)
    exits = _exit_rows(Jl[rows], el[rows], Ul[rows], vl[rows], best_e[rows], tol,
                       np.minimum(40, budgets[rows]))
    for i, out in zip(rows, exits):
        if out is not None:
            scf[i], report = out
            done[i] = (scf[i][1], int(used[live[i]]) + scf[i][2], *report)

    rows = np.array([i for i in range(live.size) if scf[i] is None], dtype=int)
    for i, outcome in zip(rows, _scf_rows(Jl[rows], el[rows], Ul[rows], vl[rows], 2000,
                                          tol, budgets[rows])):
        scf[i] = outcome

    rows = np.array([i for i in rows if scf[i] is not None and not scf[i][0] < tol],
                    dtype=int)
    if rows.size:
        Jr, Ur, er = Jl[rows], Ul[rows], el[rows]
        bv, be = _lower(Jr, er, Ur, np.array([scf[i][1] for i in rows]), best_v[rows],
                        best_e[rows])
        spent = used[live[rows]] + np.array([scf[i][2] for i in rows])
        kept, vn, en, steps = _guarded_rows(Jr, er, Ur, bv, be, tol,
                                            np.minimum(40, opts.max_iterations - spent))
        for j, i in enumerate(rows):
            polish[i] = ((vn[j], en[j]) if kept[j] else (None, None)) + (int(steps[j]),)

    # the rows stage B or C ends, with the state and iterations _cascade ends at
    ends = {}
    for i in range(live.size):
        if done[i] is None and scf[i] is not None:
            if scf[i][0] < tol:
                ends[i] = scf[i][1], scf[i][2]
            elif polish[i][0] is not None:
                ends[i] = polish[i][0], scf[i][2] + polish[i][2]
    if ends:
        rows = np.array(list(ends))
        for i, report in zip(rows, _report_rows(Jl[rows], el[rows], Ul[rows],
                                                np.array([w for w, _ in ends.values()]))):
            w, n = ends[i]
            done[i] = (w, int(used[live[i]]) + n, *report)
    outcomes = dict(zip(live, zip(scf, polish, done)))
    return [(v0[i], v[i], float(step[i]), int(used[i]), *outcomes.get(i, (None,) * 3))
            for i in range(len(v))]
