"""
(Delta/J, U/J) phase scans and transition detection.

A state (ground or highest-excited) is called localized once its
participation ratio r falls below the size-dependent critical value r_c(L),
defined as the r of the corresponding *linear* (U=0) eigenstate at
Delta/J = 2, phi = 0 — the self-dual point of the linear model. The
extended-to-localized transition at fixed U is the first downward crossing
of r_c along increasing Delta, refined by bisection (re-solving at interval
midpoints) to 1e-3 in Delta/J.

A scan's JSONL store is an exact solve cache: one record per solve, grid
cells and bisection midpoints alike, appended as soon as it is solved. Each
record's `key` is the sha256 of canonical JSON of every input that affects
its r: the full ModelParams (L, J, Delta, beta, phi, U, floats by their
round-trip repr), kind, preparation, the ramp protocol aimed at the kind
(ramped scans), every SolverOptions field and the package version. A
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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import __version__
from .dynamics import RampProtocol, ramp_prepare
from .eigensolve import SolverOptions, imag_time_starts, linear_spectrum, solve_state
from .model import ModelParams, participation_ratio, quasiperiodic_potential

BISECTION_TOL = 1e-3

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
    crossings: list                # bracketing intervals [(lo, hi), ...]; all
                                   # of the grid's, but only the first from
                                   # transition_for_u
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
    """Locate Delta_c for one (U, kind) by coarse scan + bisection.

    The coarse grid is solved in increasing Delta and only up to its first
    bracket r(lo) >= r_c > r(hi), which is then bisected as detect_transition
    does on the full grid: Delta_c is the same, but `crossings` holds only
    that first bracket, and a cell past it is neither solved nor able to
    fail the transition.
    """
    deltas = np.arange(0.0, delta_max + 0.5 * delta_step, delta_step)
    r_c = critical_r(L, kind)

    def r_at(delta):
        return _cell_r(kind, L, float(u), float(delta), phi, preparation,
                       ramp, opts)

    rs = []
    for delta in deltas:
        rs.append(r_at(delta))
        if len(rs) > 1 and rs[-2] >= r_c > rs[-1]:
            break
    return detect_transition(deltas[:len(rs)], rs, r_c, refine=r_at, tol=tol)


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


def _cell_inputs(kind, L, u, delta, phi, preparation, ramp):
    """ModelParams of one scan cell and, if it is ramped, its ramp."""
    params = ModelParams(L=L, J=1.0, Delta=delta, phi=phi, U=u)
    if preparation == "exact":
        return params, None
    ramp = ramp if ramp is not None else RampProtocol.from_si()
    return params, ramp.for_kind(kind)


def _cell_r(kind, L, u, delta, phi, preparation, ramp, opts, start=None):
    """Participation ratio of one scan cell (pure function of its key).
    `start` is an exact cell's entry of imag_time_starts; r is the same
    with it or without."""
    params, proto = _cell_inputs(kind, L, u, delta, phi, preparation, ramp)
    if proto is None:
        sol = solve_state(params, kind, opts, start=start)
        if not sol.converged:
            raise RuntimeError(
                f"solver did not converge (kind={kind}, U={u}, Delta={delta}, "
                f"residual={sol.residual:.2e})")
        return participation_ratio(sol.state)
    final, _ = ramp_prepare(params, proto)
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
    affects its r. `ramp` is the protocol after RampProtocol.for_kind, None
    for exact preparation."""
    text = json.dumps({"version": __version__, "kind": kind,
                       "preparation": preparation,
                       "params": _exact_fields(params),
                       "ramp": None if ramp is None else _exact_fields(ramp),
                       "solver": _exact_fields(opts)},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _key_of(cell):
    """cell_key of a cell given by the arguments of _cell_r."""
    kind, L, u, delta, phi, preparation, ramp, opts = cell
    params, proto = _cell_inputs(kind, L, u, delta, phi, preparation, ramp)
    return cell_key(params, kind, preparation, proto, opts)


def _cell_record(cell, key=None, start=None):
    """Store record of one cell (the arguments of _cell_r): its key (given,
    or computed) and readable inputs, and r or the error that stopped it."""
    kind, L, u, delta, phi, preparation, ramp, opts = cell
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


def _row_records(store, cells):
    """Records of one row of cells (the arguments of _cell_r) that differ
    only in Delta: the stored ones, and the missing ones solved and appended
    in order. Missing exact cells run attempt 0's stage A as one batch
    (imag_time_starts), then each its own cascade."""
    keys = [_key_of(c) for c in cells]
    recs = [store.records.get(k) for k in keys]
    todo = [i for i, rec in enumerate(recs) if rec is None]
    kind, _, _, _, _, preparation, _, opts = cells[0]
    starts = [None] * len(todo)
    if todo and preparation == "exact":
        starts = imag_time_starts([_cell_inputs(*cells[i][:7])[0] for i in todo],
                                  kind, opts)
    for i, start in zip(todo, starts):
        recs[i] = store.add(_cell_record(cells[i], keys[i], start))
    return recs


def _cached_r(store, cell):
    """r of one cell (the arguments of _cell_r): the stored solve's, or
    solved and appended at once. Raises RuntimeError if the cell failed."""
    key = _key_of(cell)
    rec = store.records.get(key) or store.add(_cell_record(cell, key))
    if not rec["ok"]:
        raise RuntimeError(rec["error"])
    return rec["r"]


def scan_phase_diagram(grid: ScanGrid, opts: SolverOptions = SolverOptions(),
                       results_path=None, workers=1,
                       detect=True) -> ScanResult:
    """Fill the r-matrix over the grid, then locate transition curves.

    `results_path` (JSONL) makes the scan resumable: every solve, grid cell
    or bisection midpoint, is read from it if stored and appended to it at
    once if not. With `workers` = 1 the missing exact cells of each (kind,
    U) row run attempt 0's stage A as one batch; `workers` > 1 solves the
    missing grid cells one by one in a process pool first. Either way r is
    bitwise the lone solve's. Per-cell failures are recorded and the scan
    continues; failed cells hold NaN in the matrix.
    """
    deltas = np.asarray(grid.delta_over_j, dtype=float)
    us = np.asarray(grid.u_over_j, dtype=float)

    def cell(kind, u, delta):
        return (kind, grid.L, float(u), float(delta), grid.phi,
                grid.preparation, grid.ramp, opts)

    r_mats, trans, rcs, failures = {}, {}, {}, []
    with _Store(results_path) as store:
        if workers > 1:
            todo = [cell(kind, u, delta) for kind in grid.kinds
                    for u in us for delta in deltas]
            todo = [c for c in todo if _key_of(c) not in store.records]
            if todo:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    for rec in pool.map(_cell_record, todo, chunksize=4):
                        store.add(rec)

        for kind in grid.kinds:
            mat = np.full((us.size, deltas.size), np.nan)
            for i, u in enumerate(us):
                row = [cell(kind, u, delta) for delta in deltas]
                for k, rec in enumerate(_row_records(store, row)):
                    if rec["ok"]:
                        mat[i, k] = rec["r"]
                    else:
                        failures.append((kind, float(u), float(deltas[k]), rec["error"]))
            r_mats[kind] = mat
            rcs[kind] = critical_r(grid.L, kind)

        for kind in grid.kinds if detect else ():
            mat, per_u = r_mats[kind], []
            for i, u in enumerate(us):
                valid = np.isfinite(mat[i])
                if valid.sum() < 2:
                    per_u.append(TransitionResult(None, [], rcs[kind], False,
                                                  "insufficient valid cells"))
                    continue

                def r_at(delta, _kind=kind, _u=u):
                    return _cached_r(store, cell(_kind, _u, delta))

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
