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
right branch and (A, gamma) are fit on the left branch by variable
projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)) in
`least_squares`. The smallest total RSS wins, the first in Delta_c order
among equal totals. Uncertainty on Delta_c comes from residual-resampling
bootstrap refits, fit as one batch.

Most candidates need no left-branch fit. A total is rss = fl(left + right)
with left >= 0 and right, the flat branch's RSS about B, summed term by
term (no cancelling running sums, so no error margin is needed). Rounding
is monotonic, so rss >= right: a candidate whose right exceeds some total
cannot win. Each data set's smallest-right candidate (the first among ties)
is fit first, then every other one whose right is at most its total; so
the winner is the minimum of (rss, index) over all usable candidates.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import EXPERIMENT_RAMP, ramp_prepare
from .model import ModelParams, participation_of

MIN_LEFT_POINTS = 3
MIN_RESAMPLES = 100     # fewest bootstrap refits for a stable stderr
NEWTON_CAP = 100        # Newton steps a left-branch row may take
_XTOL = 1e-10           # a Newton step below _XTOL * max(1, |gamma|) has converged
_FTOL = 1e-14           # as has a taken step that lowers f by at most _FTOL * f
_ROWS_PER_CALL = 64     # caps least_squares' work arrays near 0.4 MB at n = 40


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
    A: np.ndarray
    gamma: np.ndarray
    rss: np.ndarray         # sum((w (A Delta^-gamma + B - r))^2) on each left branch
    converged: np.ndarray   # False where the seed is not finite or NEWTON_CAP was hit
    nfev: int               # row evaluations of f


def _project(gamma, ell, w2, y):
    """x = exp(-gamma ln Delta), the best A and f(gamma) of each row."""
    x = np.exp(-gamma[:, None] * ell)
    w2x = w2 * x
    A = (w2x * y).sum(-1) / (w2x * x).sum(-1)
    e = y - A[:, None] * x
    return x, A, (w2 * e * e).sum(-1)


def least_squares(log_delta, w, r, B, m) -> LeastSquaresResult:
    """Variable-projection fits of A Delta^(-gamma) + B, one per row.

    Row k fits the first m[k] points of r[k] (r has shape (rows, n)) about
    B[k], with the weights w and ln Delta = log_delta (shape (n,)) that all
    rows share; r[k, :m[k]] must exceed B[k]. With y = r - B, x = Delta^-gamma
    and A = sum(w^2 x y) / sum(w^2 x^2), f(gamma) = sum(w^2 (y - A x)^2) is
    minimized from the unweighted log-log slope of y by Newton steps -f'/f''
    (the radius downhill where f'' <= 0) clipped to a radius, initially 1,
    that doubles after a step of its length is taken and shrinks to a
    quarter of any step that raises f (not taken). Rows use only their own
    data and leave the iteration once converged.
    """
    rows, n = r.shape
    left = np.arange(n) < m[:, None]
    ell = np.where(left, log_delta, 0.0)
    w2 = np.where(left, w * w, 0.0)
    y = np.where(left, r - B[:, None], 1.0)     # weight 0 off the branch
    with np.errstate(all="ignore"):
        converged = log_delta[m - 1] == log_delta[0]   # one Delta: any gamma fits
        du = np.where(left, ell - (ell.sum(-1) / m)[:, None], 0.0)
        gamma = np.where(converged, 0.0, -(du * np.log(y)).sum(-1) / (du * du).sum(-1))
        x, A, f = _project(gamma, ell, w2, y)
        nfev = rows
        k = np.flatnonzero(~converged & np.isfinite(f))
        lk, w2k, yk, xk, gk, Ak, fk, rad = (
            a[k] for a in (ell, w2, y, x, gamma, A, f, np.ones(rows)))
        for _ in range(NEWTON_CAP):
            if not k.size:
                break
            Ax = Ak[:, None] * xk
            ek = yk - Ax
            w2lx = w2k * lk * xk
            b = (w2lx * (ek - Ax)).sum(-1)
            d1 = Ak * (w2lx * ek).sum(-1)                       # f'/2
            d2 = Ak * (w2lx * lk * (Ax - ek)).sum(-1) \
                - b * b / (w2k * xk * xk).sum(-1)               # f''/2
            step = np.clip(np.where(d2 > 0, -d1 / d2, -np.sign(d1) * rad),
                           -rad, rad)
            xt, At, ft = _project(gk + step, lk, w2k, yk)
            nfev += k.size
            ok = ft <= fk
            done = (np.abs(step) <= _XTOL * np.maximum(1.0, np.abs(gk))) \
                | (ok & (fk - ft <= _FTOL * fk))
            rad = np.where(ok, np.where(np.abs(step) == rad, 2.0 * rad, rad),
                           0.25 * np.abs(step))
            np.copyto(xk, xt, where=ok[:, None])
            gk, Ak, fk = (np.where(ok, gk + step, gk), np.where(ok, At, Ak),
                          np.where(ok, ft, fk))
            gamma[k[done]] = gk[done]
            converged[k[done]] = True
            k, lk, w2k, yk, xk, gk, Ak, fk, rad = (
                a[~done] for a in (k, lk, w2k, yk, xk, gk, Ak, fk, rad))
        x, A, _ = _project(gamma, ell, w2, y)
        res = np.where(left, w * (A[:, None] * x + B[:, None] - r), 0.0)
    return LeastSquaresResult(A=A, gamma=gamma, rss=(res * res).sum(-1),
                              converged=converged, nfev=nfev + rows)


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
    arr = arr[np.argsort(arr[:, 0], kind="stable")]
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


def _search(delta, w, R):
    """Global fits of the rows of R (S, n) on a shared sorted delta and w:
    (A, B, gamma, Delta_c, rss), some candidate usable, all fits converged."""
    S, n = R.shape
    candidates = 0.5 * (delta[:-1] + delta[1:])
    n_left = np.searchsorted(delta, candidates, "right")

    # Pass 1: B and the right-branch RSS of every (row, candidate). delta is
    # sorted, so the left branch of a candidate is the prefix R[:, :m].
    B = np.zeros((S, candidates.size))
    right = np.full((S, candidates.size), np.inf)
    for i, m in enumerate(n_left):
        if MIN_LEFT_POINTS <= m < n:
            wr2 = w[m:] ** 2
            B[:, i] = (wr2 * R[:, m:]).sum(axis=1) / wr2.sum()
            right[:, i] = ((w[m:] * (R[:, m:] - B[:, i, None])) ** 2).sum(axis=1)
    # B < 0, or a left point at or below B (its gamma fit would diverge),
    # leaves a candidate unusable; so does a flat-branch RSS past overflow
    prefix_min = np.minimum.accumulate(R, axis=1)[:, n_left - 1]
    usable = (B >= 0) & (prefix_min > B) & np.isfinite(right)

    # Pass 2: the smallest right, then each unfit (total inf) right <= its total
    total, A, gamma = (np.full(B.shape, np.inf) for _ in range(3))
    converged = np.ones(S, bool)
    rows = np.arange(S)
    first = np.argmin(np.where(usable, right, np.inf), axis=1)
    todo = usable & (np.arange(candidates.size) == first[:, None])
    for _ in range(2):
        s, c = np.nonzero(todo)
        for at in range(0, s.size, _ROWS_PER_CALL):
            s_, c_ = s[at:at + _ROWS_PER_CALL], c[at:at + _ROWS_PER_CALL]
            sol = least_squares(np.log(delta), w, R[s_], B[s_, c_], n_left[c_])
            total[s_, c_] = sol.rss + right[s_, c_]
            A[s_, c_], gamma[s_, c_] = sol.A, sol.gamma
            converged[s_[~sol.converged]] = False
        todo = usable & (right <= total[rows, first, None]) & np.isinf(total) \
            & converged[:, None]
    win = np.argmin(total, axis=1)
    return ((A[rows, win], B[rows, win], gamma[rows, win], candidates[win],
             total[rows, win]), usable.any(axis=1), converged)


def fit_transition(data) -> FitResult:
    """Global least-squares fit of the piecewise transition model.

    `data` is an array-like of rows (delta, r) or (delta, r, sigma); with
    sigma present the fit minimizes the chi-square-weighted RSS. Needs at
    least MIN_LEFT_POINTS points below and one above some candidate
    Delta_c, and converged left-branch fits, else it is unidentifiable.
    """
    delta, r, w = _as_columns(data)
    n = delta.size
    if n < MIN_LEFT_POINTS + 1:
        raise UnidentifiableFitError(
            f"need at least {MIN_LEFT_POINTS + 1} points, got {n}")
    best, usable, converged = _search(delta, w, r[None])
    if not (usable[0] and converged[0]):
        raise UnidentifiableFitError(
            f"a power-law branch fit did not converge in {NEWTON_CAP} Newton "
            "steps" if usable[0] else "every candidate Delta_c leaves the data "
            "on one side or gives a non-positive power-law branch")
    return FitResult(*(float(v[0]) for v in best), n_points=n)


# -------------------------
# Synthetic measurement emulation
# -------------------------

def synthesize_measurement(u, deltas, L=21, kind="gs", noise_sigma=0.0,
                           floor=0.0, seed=12345, phi=0.0, dt=1e-3):
    """Emulated measured r(Delta) points from ramp-prepared states.

    The states of all Delta are prepared by EXPERIMENT_RAMP as one batch of
    `ramp_prepare` (each row within the error bound of its lone ramp; a row
    that aborts raises its RuntimeError, which names its Delta). In Delta
    order, an optional uniform population floor is added on all sites
    before renormalization (n -> (n + floor)/sum), and Gaussian noise of
    width `noise_sigma` is added to r. Returns an (n, 2) array of (delta, r)
    rows; identical arguments and seed reproduce the array bitwise.
    """
    rng = np.random.default_rng(seed)
    deltas = np.asarray(deltas, dtype=float)
    targets = [ModelParams(L=L, J=1.0, Delta=float(delta), phi=phi, U=float(u))
               for delta in deltas]
    finals, _ = ramp_prepare(targets, EXPERIMENT_RAMP, kind, dt=dt)
    rows = []
    for delta, final in zip(deltas, finals):
        n = final.density
        if floor > 0:
            n = n + floor
            n = n / n.sum()
        r = participation_of(n)
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
    base: FitResult         # the fit of the data, delta_c_stderr = stderr


def bootstrap_delta_c(data, n_resamples=200, seed=0) -> BootstrapResult:
    """Standard error of Delta_c by residual resampling.

    Residuals of the best fit are resampled with replacement onto the fitted
    curve and refit; the spread of the refit Delta_c values is the standard
    error. Each resample uses its own RNG stream derived from the master
    seed, so the estimate does not depend on evaluation order; the batched
    refits equal lone `fit_transition` calls on (delta, r*[, 1/w]) bitwise.
    More than 20% refit failures invalidate the estimate (valid=False,
    stderr=nan).
    """
    if n_resamples < MIN_RESAMPLES:
        raise ValueError(f"need n_resamples >= {MIN_RESAMPLES} for a stable stderr")
    delta, r, w = _as_columns(data)
    base = fit_transition(data)
    fitted = base.curve(delta)
    resid = r - fitted

    n = resid.size      # integers(0, n, n) draws what choice(resid, n) draws
    R = np.array([fitted + resid[np.random.default_rng(ss).integers(0, n, n)]
                  for ss in np.random.SeedSequence(seed).spawn(n_resamples)])
    best, usable, converged = _search(delta, 1.0 / (1.0 / w), R)
    samples = best[3][usable & converged]
    failures = n_resamples - samples.size
    valid = failures <= 0.2 * n_resamples
    stderr = float(np.std(samples, ddof=1)) if valid and samples.size > 1 else float("nan")
    return BootstrapResult(stderr=stderr, n_resamples=n_resamples,
                           n_failures=failures, valid=valid, samples=samples,
                           base=replace(base, delta_c_stderr=stderr))
