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
unconverged fails with eigensolve.require_converged's error: a scan records
the failure, and transition_for_u raises it as a RuntimeError.

Every exact solve, of a grid cell, a refinement point or a stored point
whose state is needed again, goes one way to its record (_exact_records):
cold from one batch (batched_starts) where more than one cell is missing,
else from scratch; warm from warm_starts rows, or warm_start for one.

An exact refinement point starts warm: from the state of the nearest solved
Delta of its row (the lower on a tie), if that solve is certified
(eigensolve.warm_start skips stage A and corrects that state by Newton,
on either sign of U, going on to stage B only where Newton is not accepted;
this is continuation along Delta, Allgower & Georg, SIAM 2003). The warm
result is kept only if it converges and is certified. Where the model the
kind solves is focusing (U > 0), the point is also solved warm from the
nearest solved Delta on its other side, and both results must agree,
because there a certified state can be metastable (_refine). Otherwise, and
where a start is not certified, the point is solved cold, as a grid cell
is.

A scan's JSONL store is an exact solve cache: one record per solve, grid
cells and refinement points alike, appended as soon as it is solved (the
cells of one batch together, once the batch is solved). Each record's `key`
is the sha256 of canonical JSON of every input that affects its r: the
ModelParams fields (L, J, Delta, phi, U, floats by their round-trip repr;
beta is fixed), kind, preparation, EXPERIMENT_RAMP (ramped scans), every
SolverOptions field and the package version. The text is assembled from one
template per (kind, L, phi, preparation, ramp, solver options, version), the
JSON of all the inputs but Delta and U, into which those two are written as
the whole JSON writes them, so a key is byte for byte the one json.dumps of
all the inputs gives (cell_key). Every exact record also stores `certified`,
its solve's certificate. A point that started warm is keyed by its cell's
key chained with the keys of the records it started from, which it stores as
`start` (the one whose state it goes on from) and `crosscheck` (the other
side's, on the focusing side), and `warm` says whether the warm result was
kept (else r is the cold solve's). A resumed scan reads each solve back bit
for bit and solves only what is missing, so it returns what a fresh scan
returns; a missing warm point re-derives the state it starts from by
re-solving that record, bit for bit. Lines without a key, written by older
versions, never match, so their cells are recomputed; failed cells
(`ok: false`) are retried. A torn last line, as a kill during an append
leaves it, is skipped with a logged warning and cut off before the next
append; a malformed line anywhere else raises ValueError naming its line
number.
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
                         require_converged, solve_state, warm_start, warm_starts)
from .model import KINDS, ModelParams, participation_ratio, quasiperiodic_potential

BISECTION_TOL = 1e-3
# ITP's epsilon: BISECTION_TOL / 2, less 2^-30 of it. A row that uses up
# ITP's slack ends on a bracket exactly BISECTION_TOL wide; without the
# margin, rounding leaves about 40 % of such brackets an ulp wider, which
# costs one solve past the n_max bound
_ITP_EPSILON = 0.5 * BISECTION_TOL * (1 - 2.0 ** -30)
# how far apart in r the warm solves of a focusing-side refinement point
# from its two bracket ends may end and still count as one state
_WARM_R_TOL = 1e-8

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
    """First downward crossing of r_c on increasing Delta grids, one
    TransitionResult per row.

    `deltas` and `r_values` hold each row's samples of its r(Delta) curve,
    and `r_c` its critical value. Every bracketing interval with r(lo) >=
    r_c > r(hi) is reported, and the first is refined by ITP when a
    `refine` callback is supplied; without one the grid midpoint of the
    first bracket is returned. ITP (interpolate, truncate, project;
    Oliveira & Takahashi, ACM TOMS 47(1), 5 (2020)) steps toward the secant
    root of r - r_c but never falls more than one step behind bisection: it
    ends, like bisection, with a bracket no wider than BISECTION_TOL and
    Delta_c its midpoint, after at most one solve more than bisection would
    take, whatever the shape of r. All rows refine in lockstep, each as it
    would alone: at each step, `refine(rows, deltas)` gets the indices of
    the rows still refining and their next points, and re-solves the model
    there, returning one r per row or the exception that stopped that row's
    solve. Such a row's detection ends unfound, with its grid crossings
    kept and the failed point in its message.
    """
    grid = [_grid_transition(d, r, rc)
            for d, r, rc in zip(deltas, r_values, r_c, strict=True)]
    results = [tr for tr, _ in grid]
    if refine is not None:
        _itp(results, [ends for _, ends in grid], refine)
    return results


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

    The increasing coarse grid `deltas` is solved cell by cell (_records, in
    memory) in increasing Delta, only up to its first bracket r(lo) >= r_c >
    r(hi), which is then refined as scan_phase_diagram refines a row (warm
    where it can, _refine): Delta_c is the same, but `crossings` holds only
    that first bracket, and a cell past it is neither solved nor able to fail
    the transition. A failed solve, grid cell or refinement point, raises a
    RuntimeError with its message whatever its exception's type (CLI exit 3).
    """
    r_c = critical_r(L, kind)
    store, solved, rs = _Store(None), {}, []
    for delta in deltas:
        cell = (kind, L, float(u), float(delta), phi, "exact", opts)
        rec, = _records(store, [cell])
        rs.append(_r(rec))
        solved[cell[3]] = _Solved(rec["key"], cell, rec["certified"])
        if len(rs) > 1 and rs[-2] >= r_c > rs[-1]:
            break
    records = _refine(store, [solved])
    return detect_transition([deltas[:len(rs)]], [rs], [r_c],
                             lambda rows, xs: list(map(_r, records(rows, xs))))[0]


def _r(rec):
    """r of a solve's record; a failed solve's error raised as a RuntimeError."""
    if not rec["ok"]:
        raise RuntimeError(rec["error"])
    return rec["r"]


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
        for name in ("delta_over_j", "u_over_j"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.size == 0:
                raise ValueError(f"{name} must be nonempty")
            if not np.isfinite(v).all():
                raise ValueError(f"{name} samples must be finite")
            if np.any(np.diff(v) <= 0):
                raise ValueError(f"{name} samples must be strictly increasing")
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
    """ModelParams of a scan cell (kind, L, u, delta, phi, preparation, opts),
    given cell[1:6], and, if it is ramped, EXPERIMENT_RAMP."""
    params = ModelParams(L=L, J=1.0, Delta=delta, phi=phi, U=u)
    return params, None if preparation == "exact" else EXPERIMENT_RAMP


def _exact(v):
    """A key's JSON value of one input: a float by its round-trip repr, a
    numpy integer as an int."""
    return (repr(float(v)) if isinstance(v, (float, np.floating))
            else int(v) if isinstance(v, np.integer) else v)


def _exact_json(v):
    """json.dumps(_exact(v)), without json.dumps for a float or an int (a
    float's repr needs no escaping)."""
    if isinstance(v, (float, np.floating)):
        return f'"{float(v)!r}"'
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return json.dumps(_exact(v))


def _exact_fields(obj):
    """A dataclass's fields as JSON values (_exact)."""
    return {f.name: _exact(getattr(obj, f.name)) for f in fields(obj)}


_SLOT = json.dumps("\0")      # where a template takes Delta, then U


def _key_template(kind, params, preparation, ramp, opts):
    """cell_key's canonical JSON of its inputs, cut where Delta and U go:
    (head, middle, tail), so that head + Delta + middle + U + tail, each
    value written as _exact_json writes it, is the whole text."""
    head, middle, tail = json.dumps(
        {"version": __version__, "kind": kind, "preparation": preparation,
         "params": {**_exact_fields(params), "Delta": "\0", "U": "\0"},
         "ramp": None if ramp is None else _exact_fields(ramp),
         "solver": _exact_fields(opts)},
        sort_keys=True, separators=(",", ":")).split(_SLOT)
    return head, middle, tail


def _filled(template, delta, u):
    """The key of a _key_template filled with Delta and U."""
    head, middle, tail = template
    text = head + _exact_json(delta) + middle + _exact_json(u) + tail
    return hashlib.sha256(text.encode()).hexdigest()


def cell_key(params, kind, preparation, ramp, opts) -> str:
    """Store key of one solve: sha256 of canonical JSON (keys sorted, no
    spaces) of every input that affects its r, {"version", "kind",
    "preparation", "params": ModelParams' fields, "ramp": the RampProtocol's
    fields or null, "solver": SolverOptions' fields}, each float written as
    the string of its round-trip repr and each numpy integer as an int.
    `ramp` is the RampProtocol of a ramped solve, None for exact
    preparation. The text is assembled from a _key_template, the JSON of
    all but Delta and U, with those two written in; it is byte for byte
    the json.dumps of the whole."""
    return _filled(_key_template(kind, params, preparation, ramp, opts),
                   params.Delta, params.U)


def _keys_of(cells):
    """cell_key of each cell, from one _key_template per distinct (kind, L,
    phi, preparation, options) among them."""
    templates, keys = {}, []
    for kind, L, u, delta, phi, preparation, opts in cells:
        at = (kind, _exact_json(L), _exact_json(phi), preparation, id(opts))
        if at not in templates:
            params, ramp = _cell_inputs(L, 0.0, 0.0, phi, preparation)
            templates[at] = _key_template(kind, params, preparation, ramp, opts)
        keys.append(_filled(templates[at], delta, u))
    return keys


def _chained(key, *start_keys):
    """Store key of the solve of the cell keyed `key` that started warm from
    the solves keyed `start_keys`."""
    return hashlib.sha256(":".join((key,) + start_keys).encode()).hexdigest()


def _record_of(cell, key):
    """The readable inputs of a cell's store record, under `key`."""
    kind, L, u, delta, _, preparation, _ = cell
    return {"key": key, "kind": kind, "L": L, "u": u, "delta": delta,
            "preparation": preparation}


def _ramped_record(cell, key):
    """Store record of one ramped cell: its key and readable inputs, and r
    or the error that stopped it."""
    rec = _record_of(cell, key)
    try:
        final, _ = ramp_prepare(*_cell_inputs(*cell[1:6]), cell[0])
        return {**rec, "ok": True, "r": participation_ratio(final)}
    except Exception as exc:                      # cell failures must not kill the scan
        return {**rec, "ok": False, "error": str(exc)}


def _exact_records(cells, keys, params, starts):
    """(store record, state) of each exact cell, given its key and
    ModelParams, from its solve_state start (None, its batched_starts entry,
    which gives the same result, or a warm start): r and `certified`, or the
    error that stopped the solve and None. Each solve runs alone, then the
    r of all converged ones at once, each bit for bit its lone
    participation_ratio. This is the one way phasescan solves an exact cell."""
    out, sols, ok = [], [], []
    for cell, key, p, start in zip(cells, keys, params, starts):
        rec = _record_of(cell, key)
        try:
            sol = require_converged(solve_state(p, cell[0], cell[6], start=start), p,
                                    cell[0])
        except Exception as exc:                  # cell failures must not kill the scan
            out.append(({**rec, "ok": False, "error": str(exc)}, None))
            continue
        ok.append(len(out))
        sols.append(sol)
        out.append(rec)
    if sols:
        rs = participation_ratio(np.array([sol.state.amplitudes for sol in sols])).tolist()
        for k, sol, r in zip(ok, sols, rs):
            out[k] = ({**out[k], "certified": sol.certified, "ok": True, "r": r},
                      sol.state.amplitudes.real)
    return out


_RECORD_JSON = json.JSONEncoder(sort_keys=True)   # json.dumps(rec, sort_keys=True)


class _Store:
    """Solve records by key: the sound records of a JSONL file (ok ones with
    a key) plus each new one, appended to the file at once, and the states
    of this run's exact solves by key. Without a path the records live in
    memory only."""

    def __init__(self, path):
        self.records, self.states, self._sink = {}, {}, None
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

    def add(self, rec, state=None):
        return self.extend([(rec, state)])[0]

    def extend(self, solved):
        """add() each (record, state) of `solved`, in one append to the
        file; returns the records."""
        lines = []
        for rec, state in solved:
            self.records[rec["key"]] = rec
            if state is not None:
                self.states[rec["key"]] = state
            lines.append(_RECORD_JSON.encode(rec) + "\n")
        if self._sink:
            self._sink.write("".join(lines))
            self._sink.flush()
        return [rec for rec, _ in solved]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._sink:
            self._sink.close()


def _records(store, cells):
    """Records of cells that share L, preparation and solver options: the
    stored ones, and the missing ones solved and appended in the order
    given. Missing exact cells, of any kind and U, are appended together
    (_exact_records), solved from scratch if alone, else with attempt 0 as
    one batch (batched_starts) and the rest of each cascade alone."""
    keys = _keys_of(cells)
    recs = [store.records.get(k) for k in keys]
    todo = [i for i, rec in enumerate(recs) if rec is None]
    if todo and cells[0][5] == "exact":
        params = [_cell_inputs(*cells[i][1:6])[0] for i in todo]
        starts = (batched_starts(params, [cells[i][0] for i in todo], cells[0][6])
                  if len(todo) > 1 else [None])
        solved = store.extend(_exact_records([cells[i] for i in todo],
                                             [keys[i] for i in todo], params, starts))
    else:
        solved = [store.add(_ramped_record(cells[i], keys[i])) for i in todo]
    for i, rec in zip(todo, solved):
        recs[i] = rec
    return recs


@dataclass
class _Solved:
    """A solved point of a (kind, U) row: its record's key, its cell, whether
    its solve is certified, and the point it started warm from (None: cold)."""
    key: str
    cell: tuple
    certified: bool
    start: "_Solved | None" = None


def _state(store, point):
    """The state of a solved exact point: this run's, or its record re-solved
    by _exact_records (from its own start's state, if it started warm),
    which gives it bit for bit; a re-solve that fails raises its error."""
    if point.key not in store.states:
        params = [_cell_inputs(*point.cell[1:6])[0]]
        starts = ([None] if point.start is None
                  else _warm_starts(store, [point.cell], params, [point.start]))
        (rec, state), = _exact_records([point.cell], [point.key], params, starts)
        if not rec["ok"]:
            raise RuntimeError(rec["error"])
        store.states[point.key] = state
    return store.states[point.key]


def _warm_starts(store, cells, params, points):
    """solve_state's warm start of each exact cell, given its ModelParams,
    from the state of the solved point points[k]: as rows (warm_starts), or
    lone (warm_start, cheaper for one) where there is one."""
    states = [_state(store, p) for p in points]
    if len(cells) > 1:
        return warm_starts(params, [cell[0] for cell in cells], states, cells[0][6])
    return [warm_start(p, cell[0], v, cell[6]) for p, cell, v in zip(params, cells, states)]


def _warm_ends(row, x):
    """The solved points of a row (Delta -> _Solved) that its point at x
    starts warm from, or None if one is missing or not certified: the
    nearest (the lower on a tie), and, where the model the kind solves is
    focusing (U > 0), also the nearest on the other side of x."""
    near = min(row, key=lambda d: (abs(d - x), d))
    ends = [near]
    kind, L, u, _, phi, preparation, _ = row[near].cell
    if _cell_inputs(L, u, x, phi, preparation)[0].for_kind(kind).U > 0:
        other = [d for d in row if (d > x if near <= x else d < x)]
        if not other:
            return None
        ends.append(min(other, key=lambda d: abs(d - x)))
    points = [row[d] for d in ends]
    return points if all(p.certified for p in points) else None


def _start_fields(ends):
    """The record fields that name the solves a point started warm from."""
    return {"start": ends[0].key,
            **({"crosscheck": ends[1].key} if len(ends) > 1 else {})}


def _warm_records(store, cells, keys, ends):
    """The record of each cell (cells that share L and solver options)
    solved warm from the solved point ends[k][0], under its chained key
    keys[k], if that solve converges certified and, where ends[k] also holds
    the point on the other side, the solve warm from that one converges
    certified to the same r within _WARM_R_TOL; else None. The kept records
    are appended in order. The warm solves are _exact_records from
    _warm_starts, all their Newton exits at once."""
    pairs = [(cells[k], keys[k], p) for k, points in enumerate(ends) for p in points]
    solves = [cell for cell, _, _ in pairs]
    params = [_cell_inputs(*cell[1:6])[0] for cell in solves]
    outs = iter(_exact_records(solves, [key for _, key, _ in pairs], params, _warm_starts(
        store, solves, params, [p for _, _, p in pairs])))
    recs = []
    for points in ends:
        (first, state), *rest = [next(outs) for _ in points]
        if all(rec["ok"] and rec["certified"] and abs(rec["r"] - first["r"]) <= _WARM_R_TOL
               for rec in [first] + [rec for rec, _ in rest]):
            recs.append(store.add({**first, **_start_fields(points), "warm": True}, state))
        else:
            recs.append(None)
    return recs


def _refine(store, solved):
    """detect_transition's many-row `refine` over the records of `store`,
    returning records in place of r. solved[j] maps each Delta of row j
    solved so far to its _Solved, and gains the points solved here.

    A point whose _warm_ends are certified is read back under its chained
    key, or solved warm from them (_warm_records, all the step's such points
    together); each warm solve is Newton from its end's state where that is
    accepted (warm_start). On the convex side (U <= 0 in the model the kind
    solves) a certified stationary state is the ground state (Lieb,
    Seiringer & Yngvason, PRA 61, 043602 (2000)). On the focusing side it
    can be a metastable state, and continuation from one side of a jump
    between branches follows the branch past it; the warm solves from both
    sides of the point must then agree in r within _WARM_R_TOL, or the
    point is solved cold. The other points, and those whose warm solve is
    not kept, are read back or solved cold by _records, as one batch; a
    warm solve not kept also leaves a record under the chained key that
    holds the cold outcome, so that a resumed scan knows it unsolved.
    """
    def refine(rows, xs):
        cells, starts = [], []
        for j, x in zip(rows, xs):
            cell = next(iter(solved[j].values())).cell
            cells.append(cell[:3] + (float(x),) + cell[4:])
            starts.append(_warm_ends(solved[j], float(x)) or [])
        keys = _keys_of(cells)
        chained = [_chained(key, *(p.key for p in ends)) if ends else None
                   for key, ends in zip(keys, starts)]
        recs = [store.records.get(key) if key else None for key in chained]
        warm = [k for k, rec in enumerate(recs) if rec is None and starts[k]]
        for k, rec in zip(warm, _warm_records(store, [cells[k] for k in warm],
                                              [chained[k] for k in warm],
                                              [starts[k] for k in warm])):
            recs[k] = rec
        cold = [k for k, rec in enumerate(recs) if rec is None]
        for k, rec in zip(cold, _records(store, [cells[k] for k in cold])):
            if starts[k]:
                rec = store.add({**rec, "key": chained[k], **_start_fields(starts[k]),
                                 "warm": False})
            recs[k] = rec
        for j, cell, key, ends, rec in zip(rows, cells, keys, starts, recs):
            if rec["ok"]:
                kept = rec.get("warm", False)
                solved[j][cell[3]] = _Solved(rec["key"] if kept else key, cell,
                                             rec.get("certified", False),
                                             ends[0] if kept else None)
        return recs
    return refine


def scan_phase_diagram(grid: ScanGrid, opts: SolverOptions = SolverOptions(),
                       results_path=None, detect=True) -> ScanResult:
    """Fill the r-matrix over the grid, then locate transition curves.

    `results_path` (JSONL) makes the scan resumable: every solve, grid cell
    or refinement point, is read from it if stored and appended to it at
    once if not. All missing exact grid cells, of both kinds and every U,
    are solved together (_records, attempt 0 as one batch where more than
    one is missing) and appended in (kind, U, Delta) order; each one's r is
    bitwise its lone solve's. Every (kind, U) row's first bracket is then
    refined in lockstep (detect_transition, with _refine): at each ITP step
    each row's point is solved warm from its certified bracket ends, the
    Newton exits of all the step's warm starts as rows, or else the missing
    cold points of all rows are solved as one batch, and all are appended
    together.
    Per-cell failures are recorded and the scan continues; failed cells
    hold NaN in the matrix. A refinement solve that fails ends that U's
    detection (found=False, the grid's crossings kept) and is recorded once
    among the failures.
    """
    deltas = np.asarray(grid.delta_over_j, dtype=float)
    us = np.asarray(grid.u_over_j, dtype=float)
    rows = [(kind, float(u)) for kind in grid.kinds for u in us]

    def cell(kind, u, delta):
        return (kind, grid.L, u, float(delta), grid.phi, grid.preparation, opts)

    trans, failures = {}, []
    with _Store(results_path) as store:
        cells = [cell(kind, u, delta) for kind, u in rows for delta in deltas]
        mat = np.full(len(cells), np.nan)
        solved = [{} for _ in rows]
        for k, (c, rec) in enumerate(zip(cells, _records(store, cells))):
            if rec["ok"]:
                mat[k] = rec["r"]
                solved[k // deltas.size][c[3]] = _Solved(rec["key"], c,
                                                         rec.get("certified", False))
            else:
                failures.append((c[0], c[2], c[3], rec["error"]))
        mat = mat.reshape(len(rows), deltas.size)
        rcs = {kind: critical_r(grid.L, kind) for kind in grid.kinds}

        if detect:
            valid = np.isfinite(mat)
            fit = [i for i in range(len(rows)) if valid[i].sum() >= 2]
            failed = {}
            records = _refine(store, [solved[i] for i in fit])

            def refine(live, mids):
                out = []
                for j, rec in zip(live, records(live, mids)):
                    if not rec["ok"]:
                        failed[j] = (rec["kind"], rec["u"], rec["delta"], rec["error"])
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
