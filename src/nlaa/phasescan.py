"""
(Delta/J, U/J) phase scans and transition detection.

A state (ground or highest-excited) is called localized once its
participation ratio r falls below the size-dependent critical value r_c(L),
defined as the r of the corresponding *linear* (U=0) eigenstate at
Delta/J = 2, phi = 0 — the self-dual point of the linear model. The
extended-to-localized transition at fixed U is the first downward crossing
of r_c along increasing Delta, refined by bisection (re-solving at interval
midpoints) to 1e-3 in Delta/J.

Scans persist one JSON line per grid cell, keyed by
(kind, L, U, Delta, preparation), so interrupted runs resume without
recomputation and re-runs reproduce cells bitwise.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import RampProtocol, ramp_prepare
from .eigensolve import SolverOptions, linear_spectrum, solve_state
from .model import ModelParams, participation_ratio, quasiperiodic_potential

BISECTION_TOL = 1e-3


# -------------------------
# Critical participation ratio
# -------------------------

@lru_cache(maxsize=None)
def critical_r(L, kind="gs"):
    """r of the linear AA edge state at Delta/J = 2, phi = 0 for size L.

    kind='gs' uses the ground state (the standard critical value); kind='es'
    anchors the excited-state family with the top edge state of the same
    critical Hamiltonian, so each family is compared against its own
    noninteracting critical profile.
    """
    if L < 2:
        raise ValueError("L must be >= 2")
    if kind not in ("gs", "es"):
        raise ValueError(f"kind must be 'gs' or 'es', got {kind!r}")
    params = ModelParams(L=int(L), J=1.0, Delta=2.0, phi=0.0)
    eps = quasiperiodic_potential(params)
    w, v = linear_spectrum(L, 1.0, eps)
    col = 0 if kind == "gs" else -1
    return participation_ratio(v[:, col])


# -------------------------
# Transition detection
# -------------------------

@dataclass
class TransitionResult:
    delta_c: float | None          # refined first crossing, None if not found
    crossings: list                # all bracketing intervals [(lo, hi), ...]
    r_c: float
    found: bool
    message: str = ""


def detect_transition(deltas, r_values, r_c, refine=None,
                      tol=BISECTION_TOL) -> TransitionResult:
    """First downward crossing of r_c on an increasing Delta grid.

    `deltas`/`r_values` sample the r(Delta) curve; every bracketing interval
    with r(lo) >= r_c > r(hi) is reported, and the first is refined by
    bisection when a `refine(delta) -> r` callback is supplied (the callback
    re-solves the model at interval midpoints). Without a callback the grid
    midpoint of the first bracket is returned.
    """
    deltas = np.asarray(deltas, dtype=float)
    r_values = np.asarray(r_values, dtype=float)
    if deltas.size != r_values.size or deltas.size < 2:
        raise ValueError("need matching delta/r arrays with >= 2 samples")
    if np.any(np.diff(deltas) <= 0):
        raise ValueError("delta grid must be strictly increasing")

    brackets = [(float(deltas[i]), float(deltas[i + 1]))
                for i in range(deltas.size - 1)
                if r_values[i] >= r_c > r_values[i + 1]]
    if not brackets:
        return TransitionResult(
            delta_c=None, crossings=[], r_c=float(r_c), found=False,
            message=f"no downward crossing of r_c={r_c:.6g} in "
                    f"[{deltas[0]:.6g}, {deltas[-1]:.6g}]")

    lo, hi = brackets[0]
    if refine is not None:
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if refine(mid) >= r_c:
                lo = mid
            else:
                hi = mid
    return TransitionResult(delta_c=0.5 * (lo + hi), crossings=brackets,
                            r_c=float(r_c), found=True)


def transition_for_u(u, kind, L=21, delta_max=4.0, delta_step=0.05,
                     phi=0.0, opts=SolverOptions(), preparation="exact",
                     ramp: RampProtocol | None = None,
                     tol=BISECTION_TOL) -> TransitionResult:
    """Locate Delta_c for one (U, kind) by coarse scan + bisection."""
    deltas = np.arange(0.0, delta_max + 0.5 * delta_step, delta_step)

    def r_at(delta):
        return _cell_r(kind, L, float(u), float(delta), phi, preparation,
                       ramp, opts)

    rs = np.array([r_at(d) for d in deltas])
    return detect_transition(deltas, rs, critical_r(L, kind),
                             refine=r_at, tol=tol)


# -------------------------
# Grid scan with persistence
# -------------------------

@dataclass(frozen=True)
class ScanGrid:
    delta_over_j: tuple
    u_over_j: tuple
    L: int = 21
    kind: str = "both"             # "gs" | "es" | "both"
    preparation: str = "exact"     # "exact" | "ramped"
    ramp: RampProtocol | None = None
    phi: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.delta_over_j, dtype=float)
        u = np.asarray(self.u_over_j, dtype=float)
        if d.size == 0 or u.size == 0:
            raise ValueError("grid must be nonempty")
        if d.size > 1 and np.any(np.diff(d) <= 0):
            raise ValueError("delta samples must be strictly increasing")
        if u.size > 1 and np.any(np.diff(u) <= 0):
            raise ValueError("u samples must be strictly increasing")
        if self.kind not in ("gs", "es", "both"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.preparation not in ("exact", "ramped"):
            raise ValueError(f"unknown preparation {self.preparation!r}")
        if self.preparation == "ramped" and self.ramp is None:
            object.__setattr__(self, "ramp", RampProtocol.from_si())

    @property
    def kinds(self):
        return ("gs", "es") if self.kind == "both" else (self.kind,)


@dataclass
class ScanResult:
    grid: ScanGrid
    r: dict                        # kind -> 2d array [i_u, i_delta], NaN = failed cell
    transitions: dict              # kind -> list[TransitionResult] per U
    r_c: dict                      # kind -> critical value used
    phases: np.ndarray | None      # labels over the grid when both kinds present
    failures: list                 # [(kind, u, delta, message), ...]


def _cell_r(kind, L, u, delta, phi, preparation, ramp, opts):
    """Participation ratio of one scan cell (pure function of its key)."""
    params = ModelParams(L=L, J=1.0, Delta=delta, phi=phi, U=u)
    if preparation == "exact":
        sol = solve_state(params, kind, opts)
        if not sol.converged:
            raise RuntimeError(
                f"solver did not converge (kind={kind}, U={u}, Delta={delta}, "
                f"residual={sol.residual:.2e})")
        return participation_ratio(sol.state)
    proto = (ramp if ramp is not None else RampProtocol.from_si()).for_kind(kind)
    final, _ = ramp_prepare(params, proto)
    return participation_ratio(final)


def _cell_worker(args):
    kind, L, u, delta, phi, preparation, ramp, opts = args
    key = {"kind": kind, "L": L, "u": u, "delta": delta, "preparation": preparation}
    try:
        r = _cell_r(kind, L, u, delta, phi, preparation, ramp, opts)
        return {**key, "ok": True, "r": r}
    except Exception as exc:                      # cell failures must not kill the scan
        return {**key, "ok": False, "error": str(exc)}


def _cell_key(kind, L, u, delta, preparation):
    return f"{kind}|{L}|{u:.12g}|{delta:.12g}|{preparation}"


def scan_phase_diagram(grid: ScanGrid, opts: SolverOptions = SolverOptions(),
                       results_path=None, workers=1,
                       detect=True) -> ScanResult:
    """Fill the r-matrix over the grid, then locate transition curves.

    `results_path` (JSONL) enables resumable scans: completed cells are
    loaded, missing ones computed (optionally by a process pool) and
    appended by the single writer. Per-cell failures are recorded and the
    scan continues; failed cells hold NaN in the matrix.
    """
    deltas = np.asarray(grid.delta_over_j, dtype=float)
    us = np.asarray(grid.u_over_j, dtype=float)
    done = {}
    if results_path and os.path.exists(results_path):
        with open(results_path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                done[_cell_key(rec["kind"], rec["L"], rec["u"], rec["delta"],
                               rec["preparation"])] = rec

    todo = []
    for kind in grid.kinds:
        for u in us:
            for delta in deltas:
                if _cell_key(kind, grid.L, u, delta, grid.preparation) not in done:
                    todo.append((kind, grid.L, float(u), float(delta), grid.phi,
                                 grid.preparation, grid.ramp, opts))

    sink = open(results_path, "a") if results_path else None
    try:
        if todo:
            if workers > 1:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    records = pool.map(_cell_worker, todo, chunksize=4)
                    for rec in records:
                        done[_cell_key(rec["kind"], rec["L"], rec["u"],
                                       rec["delta"], rec["preparation"])] = rec
                        if sink:
                            sink.write(json.dumps(rec, sort_keys=True) + "\n")
            else:
                for args in todo:
                    rec = _cell_worker(args)
                    done[_cell_key(rec["kind"], rec["L"], rec["u"],
                                   rec["delta"], rec["preparation"])] = rec
                    if sink:
                        sink.write(json.dumps(rec, sort_keys=True) + "\n")
    finally:
        if sink:
            sink.close()

    r_mats, trans, rcs, failures = {}, {}, {}, []
    for kind in grid.kinds:
        mat = np.full((us.size, deltas.size), np.nan)
        for i, u in enumerate(us):
            for k, delta in enumerate(deltas):
                rec = done[_cell_key(kind, grid.L, u, delta, grid.preparation)]
                if rec["ok"]:
                    mat[i, k] = rec["r"]
                else:
                    failures.append((kind, float(u), float(delta), rec["error"]))
        r_mats[kind] = mat
        rcs[kind] = critical_r(grid.L, kind)
        if detect:
            per_u = []
            for i, u in enumerate(us):
                valid = np.isfinite(mat[i])
                if valid.sum() < 2:
                    per_u.append(TransitionResult(None, [], rcs[kind], False,
                                                  "insufficient valid cells"))
                    continue

                def r_at(delta, _kind=kind, _u=u):
                    return _cell_r(_kind, grid.L, float(_u), float(delta),
                                   grid.phi, grid.preparation, grid.ramp, opts)

                per_u.append(detect_transition(deltas[valid], mat[i][valid],
                                               rcs[kind], refine=r_at))
            trans[kind] = per_u

    phases = None
    if detect and set(grid.kinds) == {"gs", "es"}:
        phases = np.empty((us.size, deltas.size), dtype=object)
        for i in range(us.size):
            dc_g = trans["gs"][i].delta_c
            dc_e = trans["es"][i].delta_c
            for k, delta in enumerate(deltas):
                phases[i, k] = (classify_phase(delta, us[i], dc_g, dc_e)
                                if dc_g is not None and dc_e is not None else "?")

    return ScanResult(grid=grid, r=r_mats, transitions=trans, r_c=rcs,
                      phases=phases, failures=failures)


# -------------------------
# Phase regions
# -------------------------

def classify_phase(delta_over_j, u_over_j, delta_c_gs, delta_c_es) -> str:
    """Phase label from the two transition curves at this U.

    II: Delta above both curves (both families localized);
    IV: below both (both extended);
    I:  between, with the excited family localized first (dc_es < dc_gs);
    III: between, with the ground family localized first (dc_gs < dc_es).
    The between-the-curves cases are decided purely by curve comparison, so
    U = 0 (where the curves coincide and the region is empty) needs no
    special casing.
    """
    lo, hi = sorted((delta_c_gs, delta_c_es))
    if delta_over_j > hi:
        return "II"
    if delta_over_j < lo:
        return "IV"
    return "I" if delta_c_es < delta_c_gs else "III"
