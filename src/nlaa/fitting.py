"""
Empirical transition-point extraction from noisy r(Delta) curves.

The piecewise model is

    r(Delta) = A (Delta/J)^(-gamma) Theta[(Delta - Delta_c)/J] + B,

with Theta(x) = 1 for x < 0 and 0 for x > 0; the measure-zero boundary is
fixed as Theta(0) := 1, i.e. a point exactly at Delta_c sits on the
power-law branch.

Because Theta makes joint 4-parameter descent unreliable, the fit decomposes
exactly over the discontinuity: Delta_c is grid-searched over the data
interval midpoints; for each candidate, B is the (weighted) mean of the
right branch and (A, gamma) are fit on the left branch — log-linear seed,
then local nonlinear refinement. The candidate with the globally smallest
total RSS wins. Uncertainty on Delta_c comes from residual-resampling
bootstrap refits.

The local refinement is Levenberg-Marquardt: MINPACK `lmder` through
`scipy.optimize.leastsq`, fed the forward-difference Jacobian that scipy's
`least_squares` builds for its default 2-point scheme. It returns the same
x and nfev, bit for bit, as `least_squares(fun, x0, method="lm")` on the
installed scipy, without that function's per-call wrapping, which on
these 2-parameter problems costs about three times the solve itself.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import leastsq

from .dynamics import RampProtocol, ramp_prepare
from .model import ModelParams

MIN_LEFT_POINTS = 3
MIN_RESAMPLES = 100     # fewest bootstrap refits for a stable stderr
_FD_REL_STEP = np.finfo(float).eps ** 0.5   # scipy's relative 2-point step


class UnidentifiableFitError(RuntimeError):
    """No candidate transition separates the data into two usable branches."""


@dataclass
class FitResult:
    A: float
    B: float
    gamma: float
    delta_c: float
    rss: float
    n_points: int
    delta_c_stderr: float | None = None

    def curve(self, delta):
        return piecewise_model(np.asarray(delta, dtype=float),
                               self.A, self.B, self.gamma, self.delta_c)


@dataclass(frozen=True)
class LeastSquaresResult:
    x: np.ndarray
    nfev: int       # residual evaluations MINPACK asked for, as scipy reports


def least_squares(fun, x0) -> LeastSquaresResult:
    """Levenberg-Marquardt minimum of sum(fun(x)**2), started at x0.

    `fun` maps a float array of shape (n,) to one of shape (m,), m >= n, and
    must not modify its argument. Equals scipy's
    `least_squares(fun, x0, method="lm", max_nfev=2000)` bitwise in x and
    exactly in nfev: the same MINPACK routine, tolerances and budget, and
    the same Jacobian, column i = (f(x + h_i e_i) - f(x)) / ((x_i + h_i) - x_i)
    with h = sqrt(eps) * sign(x) * max(1, |x|) and sign(0) = +1.
    """
    x = np.array(x0, dtype=float).ravel()
    f = fun(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("Residuals are not finite in the initial point.")
    # The latest point fun was evaluated at. MINPACK asks for the Jacobian
    # right after evaluating fun at the same point, so its f(x) is reused.
    # Points are compared with float ==, as scipy's memo compares them
    # (0.0 equals -0.0; nan is evaluated again).
    last = [x, x.tolist(), f]

    def at(x_new):
        if x_new.tolist() != last[1]:
            x = x_new.copy()
            last[:] = x, x.tolist(), fun(x)
        return last

    def residuals(x_new):
        return at(x_new)[2]

    def jacobian(x_new):
        x, xs, f = at(x_new)
        jt = np.empty((x.size, f.size))
        for i, xi in enumerate(xs):
            h = _FD_REL_STEP * (1.0 if xi >= 0 else -1.0) * max(1.0, abs(xi))
            x1 = x.copy()
            x1[i] = xi + h
            jt[i] = (fun(x1) - f) / ((xi + h) - xi)
        return jt.T

    x_min, _, info, _, _ = leastsq(residuals, x, Dfun=jacobian, full_output=True,
                                   ftol=1e-8, xtol=1e-8, gtol=1e-8, maxfev=2000)
    return LeastSquaresResult(x=x_min, nfev=int(info["nfev"]))


def piecewise_model(delta, A, B, gamma, delta_c):
    """Model curve with the Theta(0) := 1 convention (boundary on the
    power-law branch)."""
    delta = np.asarray(delta, dtype=float)
    return np.where(delta <= delta_c, A * delta ** (-gamma) + B, B)


def _as_columns(data):
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise ValueError("data must be rows of (delta, r) or (delta, r, sigma)")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{('delta', 'r', 'sigma')[col]} in data row {row + 1} "
                         f"is not finite ({arr[row, col]})")
    order = np.argsort(arr[:, 0])
    arr = arr[order]
    delta, r = arr[:, 0], arr[:, 1]
    if np.any(delta <= 0):
        raise ValueError("delta samples must be positive")
    if arr.shape[1] == 3:
        sigma = arr[:, 2]
        if np.any(sigma <= 0):
            raise ValueError("sigma values must be positive")
        w = 1.0 / sigma
    else:
        w = np.ones_like(delta)
    return delta, r, w


def fit_transition(data) -> FitResult:
    """Global least-squares fit of the piecewise transition model.

    `data` is an array-like of rows (delta, r) or (delta, r, sigma); with
    sigma present the fit minimizes the chi-square-weighted RSS. Needs at
    least MIN_LEFT_POINTS points below and one above some candidate
    Delta_c, else the transition is unidentifiable.
    """
    delta, r, w = _as_columns(data)
    n = delta.size
    if n < MIN_LEFT_POINTS + 1:
        raise UnidentifiableFitError(
            f"need at least {MIN_LEFT_POINTS + 1} points, got {n}")

    candidates = 0.5 * (delta[:-1] + delta[1:])
    best = None
    for dc in candidates:
        left = delta <= dc
        n_left = int(left.sum())
        if n_left < MIN_LEFT_POINTS or n_left == n:
            continue
        wl, wr = w[left], w[~left]
        B = float(np.sum(wr ** 2 * r[~left]) / np.sum(wr ** 2))
        if B < 0:
            continue
        y = r[left] - B
        if np.any(y <= 0):
            continue        # gamma fit would diverge for this candidate
        coef = np.polyfit(np.log(delta[left]), np.log(y), 1)
        seed = (float(np.exp(coef[1])), float(-coef[0]))

        dl, rl = delta[left], r[left]

        def res_left(p):
            return wl * (p[0] * dl ** (-p[1]) + B - rl)

        sol = least_squares(res_left, seed)
        A, gamma = (float(sol.x[0]), float(sol.x[1]))
        rss = float(np.sum(res_left((A, gamma)) ** 2)
                    + np.sum((wr * (r[~left] - B)) ** 2))
        if best is None or rss < best.rss:
            best = FitResult(A=A, B=B, gamma=gamma, delta_c=float(dc),
                             rss=rss, n_points=n)

    if best is None:
        raise UnidentifiableFitError(
            "every candidate Delta_c leaves the data on one side or gives a "
            "non-positive power-law branch")
    return best


# -------------------------
# Synthetic measurement emulation
# -------------------------

def synthesize_measurement(u, deltas, L=21, kind="gs", noise_sigma=0.0,
                           floor=0.0, seed=12345, ramp: RampProtocol | None = None,
                           phi=0.0, dt=1e-3):
    """Emulated measured r(Delta) points from ramp-prepared states.

    All Deltas are prepared by the finite-velocity ramp in one batched
    propagation (each row bitwise equal to its lone ramp); then, in Delta
    order, an optional uniform population floor is added on all sites before
    renormalization (n -> (n + floor)/sum), and Gaussian noise of width
    `noise_sigma` is added to r. Returns an (n, 2) array of (delta, r) rows;
    identical arguments and seed reproduce the array bitwise.
    """
    rng = np.random.default_rng(seed)
    proto = (ramp if ramp is not None else RampProtocol.from_si()).for_kind(kind)
    deltas = np.asarray(deltas, dtype=float)
    params = [ModelParams(L=L, J=1.0, Delta=float(delta), phi=phi, U=float(u))
              for delta in deltas]
    finals, traj = ramp_prepare(params, proto, dt=dt)
    rows = []
    for delta, final, error in zip(deltas, finals, traj.errors):
        if final is None:
            raise RuntimeError(error)
        n = final.density
        if floor > 0:
            n = n + floor
            n = n / n.sum()
        r = 1.0 / (L * np.sum(n ** 2))
        rows.append((float(delta), float(r + rng.normal(0.0, noise_sigma)
                                         if noise_sigma > 0 else r)))
    return np.array(rows)


# -------------------------
# Bootstrap uncertainty
# -------------------------

@dataclass
class BootstrapResult:
    stderr: float
    n_resamples: int
    n_failures: int
    valid: bool
    samples: np.ndarray


def bootstrap_delta_c(data, n_resamples=200, seed=0) -> BootstrapResult:
    """Standard error of Delta_c by residual resampling.

    Residuals of the best fit are resampled with replacement onto the fitted
    curve and refit; the spread of the refit Delta_c values is the standard
    error. Each resample uses its own RNG stream derived from the master
    seed, so the estimate does not depend on evaluation order. More than 20%
    refit failures invalidate the estimate (valid=False, stderr=nan).
    """
    if n_resamples < MIN_RESAMPLES:
        raise ValueError(f"need n_resamples >= {MIN_RESAMPLES} for a stable stderr")
    delta, r, w = _as_columns(data)
    base = fit_transition(data)
    fitted = base.curve(delta)
    resid = r - fitted

    streams = np.random.SeedSequence(seed).spawn(n_resamples)
    samples, failures = [], 0
    for ss in streams:
        rng = np.random.default_rng(ss)
        r_star = fitted + rng.choice(resid, size=resid.size, replace=True)
        rows = np.column_stack([delta, r_star]) if np.all(w == 1.0) \
            else np.column_stack([delta, r_star, 1.0 / w])
        try:
            samples.append(fit_transition(rows).delta_c)
        except UnidentifiableFitError:
            failures += 1
    samples = np.array(samples)
    valid = failures <= 0.2 * n_resamples
    stderr = float(np.std(samples, ddof=1)) if valid and samples.size > 1 else float("nan")
    return BootstrapResult(stderr=stderr, n_resamples=n_resamples,
                           n_failures=failures, valid=valid, samples=samples)
