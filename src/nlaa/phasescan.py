"""
(Delta/J, U/J) phase scans and transition detection.

A state (ground or highest-excited) is called localized once its
participation ratio r falls below the size-dependent critical value r_c(L),
defined as the r of the corresponding *linear* (U=0) eigenstate at
Delta/J = 2, phi = 0 — the self-dual point of the linear model. The
extended-to-localized transition at fixed U is the first downward crossing
of r_c along increasing Delta, refined by ITP (re-solving at points between
the secant root and the midpoint of the bracket) to a bracket of 1e-3 in
Delta/J. The caller gives the Delta grid; an exact cell whose solve ends
unconverged fails with eigensolve.require_converged's error.

A scan's JSONL store is an exact solve cache: one record per solve, grid
cells and refinement points alike, appended as soon as it is solved. Each
record's `key` is the sha256 of canonical JSON of every input that affects
its r: the ModelParams fields (L, J, Delta, phi, U, floats by their
round-trip repr; beta is fixed), kind, preparation, EXPERIMENT_RAMP (ramped
scans), every SolverOptions field and the package version. A
resumed scan reads each solve back bit for bit and solves only what is
missing, so it returns what a fresh scan returns. Lines without a key,
written by older versions, never match, so their cells are recomputed;
failed cells (`ok: false`) are retried. A torn last line, as a kill during
an append leaves it, is skipped with a logged warning and cut off before
the next append; a malformed line anywhere else raises ValueError naming
its line number.
"""

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import __version__
from .dynamics import EXPERIMENT_RAMP, ramp_prepare
from .eigensolve import (SolverOptions, batched_starts, linear_spectrum,
                         require_converged, solve_state)
from .model import KINDS, ModelParams, participation_ratio, quasiperiodic_potential

BISECTION_TOL = 1e-3
# ITP's epsilon: BISECTION_TOL / 2, less 2^-30 of it. A row that uses up
# ITP's slack ends on a bracket exactly BISECTION_TOL wide; without the
# margin, rounding leaves about 40 % of such brackets an ulp wider, which
# costs one solve past the n_max bound
_ITP_EPSILON = 0.5 * BISECTION_TOL * (1 - 2.0 ** -30)

log = logging.getLogger(__name__)


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
    params = ModelParams(L=int(L), J=1.0, Delta=2.0, phi=0.0)
    # the kind's edge of this one spectrum (the negated model's spectrum
    # holds the same pair, but not bit for bit)
    top = params.for_kind(kind) is not params
    w, v = linear_spectrum(L, 1.0, quasiperiodic_potential(params))
    return participation_ratio(v[:, -1 if top else 0])


# -------------------------
# Transition detection
# -------------------------

@dataclass
class TransitionResult:
    delta_c: float | None          # refined first crossing, None if not found
    crossings: list                # bracketing intervals [(lo, hi), ...]; all
                                   # of the grid's, but only the first from
                                   # transition_for_u
    r_c: float
    found: bool
    message: str = ""
    refine_solves: int = 0         # Deltas the refinement solved or read back


def detect_transition(deltas, r_values, r_c, refine=None):
    """First downward crossing of r_c on an increasing Delta grid.

    `deltas`/`r_values` sample the r(Delta) curve; every bracketing interval
    with r(lo) >= r_c > r(hi) is reported, and the first is refined by ITP
    when a `refine(delta) -> r` callback is supplied (the callback re-solves
    the model at the points ITP picks). ITP (interpolate, truncate, project;
    Oliveira & Takahashi, ACM TOMS 47(1), 5 (2020)) steps toward the secant
    root of r - r_c but never falls more than one step behind bisection: it
    ends, like bisection, with a bracket no wider than BISECTION_TOL and
    Delta_c its midpoint, after at most one solve more than bisection would
    take, whatever the shape of r. Without a callback the grid midpoint of
    the first bracket is returned.

    Many-row form: `r_c` is a sequence with one critical value per row, and
    `deltas` and `r_values` are sequences of each row's samples. It returns
    one TransitionResult per row, the one the 1-D call returns for that row,
    and refines all rows' first brackets in lockstep: at each step,
    `refine(rows, deltas)` gets the indices of the rows still refining and
    their next points, and returns one r per row, or the exception that
    stopped that row's solve. Such a row's detection ends unfound, with its
    grid crossings kept and the failed point in its message.
    """
    if np.ndim(r_c):
        grid = [_grid_transition(d, r, rc)
                for d, r, rc in zip(deltas, r_values, r_c, strict=True)]
        results = [tr for tr, _ in grid]
        if refine is not None:
            _itp(results, [ends for _, ends in grid], refine)
        return results
    result, ends = _grid_transition(deltas, r_values, r_c)
    if refine is not None:
        _itp([result], [ends], lambda rows, xs: [refine(xs[0])])
    return result


def _grid_transition(deltas, r_values, r_c):
    """detect_transition of one row without refinement, and r at the ends of
    its first bracket (None without one)."""
    deltas = np.asarray(deltas, dtype=float)
    r_values = np.asarray(r_values, dtype=float)
    if deltas.size != r_values.size or deltas.size < 2:
        raise ValueError("need matching delta/r arrays with >= 2 samples")
    if np.any(np.diff(deltas) <= 0):
        raise ValueError("delta grid must be strictly increasing")

    down = [i for i in range(deltas.size - 1)
            if r_values[i] >= r_c > r_values[i + 1]]
    if not down:
        return TransitionResult(
            delta_c=None, crossings=[], r_c=float(r_c), found=False,
            message=f"no downward crossing of r_c={r_c:.6g} in "
                    f"[{deltas[0]:.6g}, {deltas[-1]:.6g}]"), None
    brackets = [(float(deltas[i]), float(deltas[i + 1])) for i in down]
    lo, hi = brackets[0]
    return (TransitionResult(delta_c=0.5 * (lo + hi), crossings=brackets,
                             r_c=float(r_c), found=True),
            (float(r_values[down[0]]), float(r_values[down[0] + 1])))


def _itp(results, ends, refine):
    """Refine the first bracket of every found result in `results` to
    BISECTION_TOL by ITP with n0 = 1, kappa1 = 0.2 / (initial width),
    kappa2 = 2 and epsilon = _ITP_EPSILON, all rows step by step, with
    detect_transition's many-row `refine`; `ends` holds each row's r at its
    bracket's ends. Each result is updated in place.

    Row state is (lo, hi, f(lo), f(hi), kappa1, n_max) with f = r - r_c, so
    f(lo) >= 0 > f(hi) throughout. Step j picks a point within
    epsilon 2^(n_max - j) - width / 2 of the midpoint, which bounds the next
    width by epsilon 2^(n_max - j): after n_max = ceil(log2(width /
    BISECTION_TOL)) + 1 steps it is below BISECTION_TOL.
    """
    rows = {}
    for i, (tr, r_ends) in enumerate(zip(results, ends)):
        if tr.found:
            (lo, hi), (r_lo, r_hi) = tr.crossings[0], r_ends
            n_max = math.ceil(math.log2((hi - lo) / BISECTION_TOL)) + 1
            rows[i] = [lo, hi, r_lo - tr.r_c, r_hi - tr.r_c, 0.2 / (hi - lo), n_max]
    step = 0
    live = [i for i, row in rows.items() if row[1] - row[0] > BISECTION_TOL]
    while live:
        xs = [_itp_point(*rows[i], step) for i in live]
        for i, x, r in zip(live, xs, refine(live, xs), strict=True):
            results[i].refine_solves += 1
            if isinstance(r, Exception):
                del rows[i]
                results[i].delta_c, results[i].found = None, False
                results[i].message = f"refinement failed at Delta={x:.6g}: {r}"
            elif r >= results[i].r_c:
                rows[i][0], rows[i][2] = x, float(r) - results[i].r_c
            else:
                rows[i][1], rows[i][3] = x, float(r) - results[i].r_c
        step += 1
        live = [i for i in live
                if i in rows and rows[i][1] - rows[i][0] > BISECTION_TOL]
    for i, (lo, hi, *_) in rows.items():
        results[i].delta_c = 0.5 * (lo + hi)


def _itp_point(lo, hi, f_lo, f_hi, kappa1, n_max, step):
    """The point ITP's step `step` picks in the bracket [lo, hi]."""
    mid, width = 0.5 * (lo + hi), hi - lo
    radius = max(_ITP_EPSILON * 2.0 ** (n_max - step) - 0.5 * width, 0.0)
    x_f = (hi * f_lo - lo * f_hi) / (f_lo - f_hi)       # regula falsi
    sigma = math.copysign(1.0, mid - x_f)
    delta = kappa1 * width ** 2
    x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
    return x_t if abs(x_t - mid) <= radius else mid - sigma * radius


def transition_for_u(u, kind, deltas, L=21, phi=0.0,
                     opts=SolverOptions()) -> TransitionResult:
    """Locate Delta_c for one (U, kind) by coarse scan + ITP refinement.

    The increasing coarse grid `deltas` is solved in increasing Delta and
    only up to its first bracket r(lo) >= r_c > r(hi), which is then refined
    as detect_transition does on the full grid: Delta_c is the same, but
    `crossings` holds only that first bracket, and a cell past it is neither
    solved nor able to fail the transition.
    """
    r_c = critical_r(L, kind)

    def r_at(delta):
        return _cell_r(kind, L, float(u), float(delta), phi, "exact", opts)

    rs = []
    for delta in deltas:
        rs.append(r_at(delta))
        if len(rs) > 1 and rs[-2] >= r_c > rs[-1]:
            break
    return detect_transition(deltas[:len(rs)], rs, r_c, refine=r_at)


# -------------------------
# Grid scan with persistence
# -------------------------

@dataclass(frozen=True)
class ScanGrid:
    delta_over_j: tuple
    u_over_j: tuple
    L: int = 21
    kind: str = "both"             # "gs" | "es" | "both"
    preparation: str = "exact"     # "exact" | "ramped" (by EXPERIMENT_RAMP)
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
        if self.kind not in KINDS + ("both",):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.preparation not in ("exact", "ramped"):
            raise ValueError(f"unknown preparation {self.preparation!r}")

    @property
    def kinds(self):
        return KINDS if self.kind == "both" else (self.kind,)


@dataclass
class ScanResult:
    grid: ScanGrid
    r: dict                        # kind -> 2d array [i_u, i_delta], NaN = failed cell
    transitions: dict              # kind -> list[TransitionResult] per U
    r_c: dict                      # kind -> critical value used
    phases: np.ndarray | None      # labels over the grid when both kinds present
    failures: list                 # [(kind, u, delta, message), ...]


def _cell_inputs(L, u, delta, phi, preparation):
    """ModelParams of one scan cell and, if it is ramped, EXPERIMENT_RAMP."""
    params = ModelParams(L=L, J=1.0, Delta=delta, phi=phi, U=u)
    return params, None if preparation == "exact" else EXPERIMENT_RAMP


def _cell_r(kind, L, u, delta, phi, preparation, opts, start=None):
    """Participation ratio of one scan cell (pure function of its key).
    `start` is an exact cell's entry of batched_starts; r is the same
    with it or without."""
    params, proto = _cell_inputs(L, u, delta, phi, preparation)
    if proto is None:
        sol = require_converged(solve_state(params, kind, opts, start=start),
                                params, kind)
        return participation_ratio(sol.state)
    final, _ = ramp_prepare(params, proto, kind)
    return participation_ratio(final)


def _exact_fields(obj):
    """A dataclass's fields as JSON values, floats by their round-trip repr."""
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        out[f.name] = (repr(float(v)) if isinstance(v, (float, np.floating))
                       else int(v) if isinstance(v, np.integer) else v)
    return out


def cell_key(params, kind, preparation, ramp, opts) -> str:
    """Store key of one solve: sha256 of canonical JSON of every input that
    affects its r. `ramp` is the RampProtocol of a ramped solve, None for
    exact preparation."""
    text = json.dumps({"version": __version__, "kind": kind,
                       "preparation": preparation,
                       "params": _exact_fields(params),
                       "ramp": None if ramp is None else _exact_fields(ramp),
                       "solver": _exact_fields(opts)},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _key_of(cell):
    """cell_key of a cell given by the arguments of _cell_r."""
    kind, L, u, delta, phi, preparation, opts = cell
    params, proto = _cell_inputs(L, u, delta, phi, preparation)
    return cell_key(params, kind, preparation, proto, opts)


def _cell_record(cell, key=None, start=None):
    """Store record of one cell (the arguments of _cell_r): its key (given,
    or computed) and readable inputs, and r or the error that stopped it."""
    kind, L, u, delta, phi, preparation, opts = cell
    rec = {"key": key or _key_of(cell), "kind": kind, "L": L, "u": u, "delta": delta,
           "preparation": preparation}
    try:
        return {**rec, "ok": True, "r": _cell_r(*cell, start=start)}
    except Exception as exc:                      # cell failures must not kill the scan
        return {**rec, "ok": False, "error": str(exc)}


class _Store:
    """Solve records by key: the sound records of a JSONL file (ok ones with
    a key) plus each new one, appended to the file at once. Without a path
    the records live in memory only."""

    def __init__(self, path):
        self.records, self._sink = {}, None
        if not path:
            return
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        keep = self._load(path, data)
        self._sink = open(path, "a")
        if keep < len(data):
            self._sink.truncate(keep)
        if keep and not data[:keep].endswith(b"\n"):
            self._sink.write("\n")

    def _load(self, path, data):
        """Index the records of `data`; return how many bytes of it to keep
        (all, or those before a torn last line)."""
        lines = data.split(b"\n")
        end = 0
        for i, line in enumerate(lines):
            start, end = end, end + len(line) + 1
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            if not isinstance(rec, dict):
                if any(rest.strip() for rest in lines[i + 1:]):
                    raise ValueError(f"{path}: line {i + 1} is not a JSON record")
                log.warning("%s: skipping torn last line %d", path, i + 1)
                return start
            if "key" in rec and rec.get("ok"):
                self.records[rec["key"]] = rec
        return len(data)

    def add(self, rec):
        self.records[rec["key"]] = rec
        if self._sink:
            self._sink.write(json.dumps(rec, sort_keys=True) + "\n")
            self._sink.flush()
        return rec

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._sink:
            self._sink.close()


def _records(store, cells):
    """Records of cells (the arguments of _cell_r) that share L, preparation
    and solver options: the stored ones, and the missing ones solved and
    appended in the order given. Missing exact cells, of any kind and U, run
    attempt 0's stages A and B as one batch (batched_starts), then each the
    rest of its cascade alone."""
    keys = [_key_of(c) for c in cells]
    recs = [store.records.get(k) for k in keys]
    todo = [i for i, rec in enumerate(recs) if rec is None]
    starts = [None] * len(todo)
    if todo and cells[0][5] == "exact":
        starts = batched_starts([_cell_inputs(*cells[i][1:6])[0] for i in todo],
                                [cells[i][0] for i in todo], cells[0][6])
    for i, start in zip(todo, starts):
        recs[i] = store.add(_cell_record(cells[i], keys[i], start))
    return recs


def scan_phase_diagram(grid: ScanGrid, opts: SolverOptions = SolverOptions(),
                       results_path=None, workers=1,
                       detect=True) -> ScanResult:
    """Fill the r-matrix over the grid, then locate transition curves.

    `results_path` (JSONL) makes the scan resumable: every solve, grid cell
    or refinement point, is read from it if stored and appended to it at
    once if not. With `workers` = 1 all missing exact grid cells, of both
    kinds and every U, run attempt 0's stages A and B as one batch and are
    appended in (kind, U, Delta) order; `workers` > 1 solves the missing
    grid cells one by one in a process pool first. Every (kind, U) row's
    first bracket is then refined in lockstep (detect_transition's
    many-row form): at each ITP step the missing points of all rows are
    solved as one batch and appended together. Either way r is bitwise the
    lone solve's. Per-cell failures are recorded and the scan continues;
    failed cells hold NaN in the matrix. A refinement solve that fails ends
    that U's detection (found=False, the grid's crossings kept) and is
    recorded once among the failures.
    """
    deltas = np.asarray(grid.delta_over_j, dtype=float)
    us = np.asarray(grid.u_over_j, dtype=float)
    rows = [(kind, float(u)) for kind in grid.kinds for u in us]

    def cell(kind, u, delta):
        return (kind, grid.L, u, float(delta), grid.phi, grid.preparation, opts)

    trans, failures = {}, []
    with _Store(results_path) as store:
        cells = [cell(kind, u, delta) for kind, u in rows for delta in deltas]
        if workers > 1:
            todo = [c for c in cells if _key_of(c) not in store.records]
            if todo:
                # imported here: multiprocessing is only needed for a pool
                from concurrent.futures import ProcessPoolExecutor
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    for rec in pool.map(_cell_record, todo, chunksize=4):
                        store.add(rec)

        mat = np.full(len(cells), np.nan)
        for k, (c, rec) in enumerate(zip(cells, _records(store, cells))):
            if rec["ok"]:
                mat[k] = rec["r"]
            else:
                failures.append((c[0], c[2], c[3], rec["error"]))
        mat = mat.reshape(len(rows), deltas.size)
        rcs = {kind: critical_r(grid.L, kind) for kind in grid.kinds}

        if detect:
            valid = np.isfinite(mat)
            fit = [i for i in range(len(rows)) if valid[i].sum() >= 2]
            failed = {}

            def refine(live, mids):
                level = [cell(*rows[fit[j]], mid) for j, mid in zip(live, mids)]
                out = []
                for j, c, rec in zip(live, level, _records(store, level)):
                    if not rec["ok"]:
                        failed[j] = (c[0], c[2], c[3], rec["error"])
                    out.append(rec["r"] if rec["ok"] else RuntimeError(rec["error"]))
                return out

            per_row = [TransitionResult(None, [], rcs[kind], False,
                                        "insufficient valid cells")
                       for kind, _ in rows]
            for i, tr in zip(fit, detect_transition(
                    [deltas[valid[i]] for i in fit], [mat[i][valid[i]] for i in fit],
                    [rcs[rows[i][0]] for i in fit], refine)):
                per_row[i] = tr
            # a failed grid cell the refinement lands on is listed already
            failures += [failed[j] for j in sorted(failed) if failed[j] not in failures]
            for kind in grid.kinds:
                trans[kind] = [tr for (k, _), tr in zip(rows, per_row) if k == kind]

    r_mats = dict(zip(grid.kinds, np.split(mat, len(grid.kinds))))
    phases = None
    if detect and grid.kinds == KINDS:
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
