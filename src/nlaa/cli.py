"""
Command-line front end.

All physics lives in the library modules; this layer does configuration
ingestion (JSON config file + flag overrides), SI-to-internal unit
conversion at ingress (`_internal_units`; bragg-schedule keeps SI units),
subcommand dispatch, and plot-ready CSV/JSON output with a manifest per run.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 unidentifiable fit.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from . import __version__
from .dynamics import DEFAULT_DT, RampProtocol, ramp_prepare, transport_experiment
from .eigensolve import SolverOptions, require_converged, solve_state
from .fitting import (MIN_LEFT_POINTS, MIN_RESAMPLES, UnidentifiableFitError,
                      bootstrap_delta_c, fit_transition,
                      synthesize_measurement)
from .gaa import GaaParams, extract_alpha_star, gaa_classify_spectrum
from .model import (BOHR_RADIUS_SI, BRAGG_SITE_OFFSET, CS_MASS_SI, H_SI, HBAR_SI,
                    KINDS, ModelParams, bragg_detunings, momentum_width,
                    participation_ratio)
from .phasescan import ScanGrid, scan_phase_diagram, transition_for_u

DEFAULT_SEED = 12345
OUTDIR_ENV = "NLAA_OUTDIR"


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# -------------------------
# Option table
# -------------------------

# domains of option values: (test, text) pairs
FINITE = (math.isfinite, "finite")
POSITIVE = (lambda v: 0 < v < math.inf, "finite and > 0")
NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "finite and >= 0")


def _at_least(k):
    return (lambda v: v >= k, f"an integer >= {k}")


def _between(lo, hi):
    return (lambda v: lo <= v <= hi, f"an integer in [{lo}, {hi}]")


def _numbers(text):
    """The floats of a comma-separated list, or None unless it holds one or
    more and all are finite."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        return None
    return values if values and all(map(math.isfinite, values)) else None


def _is_header(line):
    """False if every field of a CSV line reads as a float (1e-1 as well)."""
    try:
        [float(field) for field in line.split(",")]
    except ValueError:
        return True
    return False


@dataclass(frozen=True)
class Option:
    """One option: flag ``--<dest with - for _>``, config key ``<dest>``.

    A config value must be the JSON type of `type` (a number for float,
    true/false for bool) and one of `choices`; null leaves it unset. A set
    value, from a flag or a config key, must pass the test of `domain`.
    """
    type: type
    help: str
    domain: tuple = None
    choices: tuple = None


# Keyed by dest; "<subcommand>.<dest>" overrides the entry for one subcommand.
OPTIONS = {
    "L": Option(int, "chain length", _at_least(2)),
    "bragg-schedule.L": Option(int, "chain length", choices=(21,)),
    "delta_over_j": Option(float, "quasiperiodic amplitude Delta/J", FINITE),
    "u_over_j": Option(float, "interaction U/J (> 0 is self-focusing)", FINITE),
    "phi": Option(float, "potential phase", FINITE),
    "j_internal": Option(float, "internal hopping (0: decoupled chain)", FINITE),
    "j_hz": Option(float, "hopping J/h in Hz: the SI anchor (ramp: J/h at its "
                          "end, 275 Hz without it)", POSITIVE),
    "bragg-schedule.j_hz": Option(float, "J/h in Hz, the energy unit of the "
                                         "on-site term (0 drops it)", NON_NEGATIVE),
    "delta_hz": Option(float, "SI Delta/h in Hz (needs --j-hz)", FINITE),
    "scattering_length_a0": Option(
        float, "SI s-wave scattering length in Bohr radii (needs --j-hz)", FINITE),
    "density_per_cm3": Option(float, "mean atomic density in cm^-3", POSITIVE),
    "residual_tol": Option(float, "eigensolver residual tolerance", POSITIVE),
    "max_iterations": Option(int, "eigensolver iteration cap", _at_least(1)),
    "kind": Option(str, "ground (gs) or highest-excited (es) state",
                   choices=KINDS),
    "scan.kind": Option(str, "states to scan", choices=KINDS + ("both",)),
    "preparation": Option(str, "exact eigenstates or ramp-prepared states",
                          choices=("exact", "ramped")),
    "t_final": Option(float, "evolution time in hbar/J", NON_NEGATIVE),
    "t_final_ms": Option(float, "evolution time in ms (needs --j-hz)", FINITE),
    "dt": Option(float, "time-grid step in hbar/J; snapshots and the end time "
                        "are whole multiples of it (the run ends at "
                        "round(t_final/dt) dt)",
                 (lambda v: 0 < v <= 0.01, "in (0, 0.01]")),
    "stride": Option(int, "time-grid steps between recorded snapshots",
                     _at_least(1)),
    "velocity_hz_per_ms": Option(float, "ramp speed of J/h in Hz/ms", POSITIVE),
    "hold_ms": Option(float, "hold at the target after the ramp in ms", FINITE),
    "delta_min": Option(float, "first Delta/J of the grid", FINITE),
    "delta_max": Option(float, "last Delta/J of the grid", FINITE),
    "delta_step": Option(float, "Delta/J grid spacing", POSITIVE),
    "u_min": Option(float, "first U/J of the grid", FINITE),
    "u_max": Option(float, "last U/J of the grid", FINITE),
    "u_step": Option(float, "U/J grid spacing", POSITIVE),
    "u_values": Option(str, "U/J values", (
        lambda v: (us := _numbers(v)) is not None and len(set(us)) == len(us),
        "comma-separated finite numbers, none repeated")),
    "energy_definition": Option(str, "transition energy: chemical potential "
                                     "(mu) or energy functional (E)",
                                choices=("mu", "E")),
    "workers": Option(int, "worker processes", _between(1, os.cpu_count() or 1)),
    "results": Option(str, "JSONL cell store for resumable scans"),
    "no_detect": Option(bool, "skip transition detection (r matrices only)"),
    "alpha": Option(float, "generalized-model deformation alpha",
                    (lambda v: -1 < v < 1, "in (-1, 1)")),
    "data": Option(str, "CSV of delta_over_j,r[,sigma] rows"),
    "synthesize": Option(bool, "generate ramped synthetic data instead of "
                               "reading --data"),
    "n_points": Option(int, "number of synthetic Delta/J points",
                       _at_least(MIN_LEFT_POINTS + 1)),
    "noise_sigma": Option(float, "Gaussian noise width on synthetic r",
                          NON_NEGATIVE),
    "floor": Option(float, "uniform population floor of synthetic states",
                    NON_NEGATIVE),
    "seed": Option(int, "seed of synthetic noise and bootstrap", _at_least(0)),
    "bootstrap": Option(int, "residual-resampling refits for the Delta_c stderr",
                        (lambda v: v == 0 or v >= MIN_RESAMPLES,
                         f"0 or an integer >= {MIN_RESAMPLES}")),
    "recoil_khz": Option(float, "recoil energy E_R/h in kHz", POSITIVE),
}

# accepted JSON types and their name, per option type
_JSON_TYPES = {bool: (bool, "true or false"), int: (int, "an integer"),
               float: ((int, float), "a number"), str: (str, "a string")}


def _option(subcommand, dest):
    return OPTIONS.get(f"{subcommand}.{dest}") or OPTIONS[dest]


# -------------------------
# Config merging and unit ingress
# -------------------------

def _read_config(path):
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _from_config(key, opt, value):
    """A config value checked like its flag; None when it is null."""
    if value is None:
        return None
    json_type, name = _JSON_TYPES[opt.type]
    if not isinstance(value, json_type) or (isinstance(value, bool)
                                            and opt.type is not bool):
        raise ConfigError(f"config key {key!r} must be {name}, got {value!r}")
    try:
        value = opt.type(value)
    except OverflowError:   # an integer past the float range: inf, as from a flag
        value = math.inf if value > 0 else -math.inf
    if opt.choices and value not in opt.choices:
        raise ConfigError(f"config key {key!r} must be one of "
                          f"{list(opt.choices)}, got {value!r}")
    return value


def _config(args):
    """The subcommand's defaults < JSON config file < flags, as a namespace;
    each set value checked against its option's domain."""
    _, _, defaults = COMMANDS[args.subcommand]
    cfg = _read_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; this subcommand "
                          f"accepts {sorted(defaults)}")
    out = {}
    for key, default in defaults.items():
        opt = _option(args.subcommand, key)
        value = getattr(args, key)
        if value is None:
            value = _from_config(key, opt, cfg.get(key))
        if value is not None and opt.domain and not opt.domain[0](value):
            raise ConfigError(f"--{key.replace('_', '-')} must be "
                              f"{opt.domain[1]}, got {value!r}")
        out[key] = default if value is None else value
    return SimpleNamespace(**out)


def _arange(lo, hi, step, flags):
    """lo, lo + step, ... up to hi; a grid with more samples than an array
    can hold names `flags`."""
    try:
        return np.arange(lo, hi + 0.5 * step, step)
    except ValueError as exc:
        raise ConfigError(f"{flags} give more grid samples than an array "
                          f"can hold ({exc})") from exc


def _grid(cfg, name):
    """The grid <name>_min, <name>_min + step, ... up to <name>_max."""
    lo, hi, step = (getattr(cfg, f"{name}_{end}") for end in ("min", "max", "step"))
    if lo == hi:
        return np.array([lo])   # at large values hi + 0.5 * step rounds to hi
    grid = _arange(lo, hi, step, f"--{name}-min, --{name}-max and --{name}-step")
    if grid.size == 0:
        raise ConfigError(f"empty grid: --{name}-max {hi} is below "
                          f"--{name}-min {lo}")
    return grid


def _delta_window(cfg):
    """The Delta grid 0, --delta-step, ... up to --delta-max on which phases
    and alpha-star look for transitions, checked to hold at least 2
    samples."""
    hi, step = cfg.delta_max, cfg.delta_step
    deltas = _arange(0.0, hi, step, "--delta-max and --delta-step")
    if deltas.size < 2:
        raise ConfigError(f"--delta-max {hi} with --delta-step {step} leaves "
                          "fewer than 2 Delta samples from 0")
    return deltas


def _internal_units(cfg):
    """The lab-unit inputs of a merged config in internal units: the one
    place SI values enter. J/h = --j-hz is the one anchor of Delta, U and
    times in ms; the ramp ends there, or at 275 Hz without it. Returns delta
    and u, t_final (evolve) and ramp (ramp), each checked after conversion
    from lab units: delta and u finite, times finite and >= 0, the ramp
    duration > 0."""
    si = {k: v for k, v in vars(cfg).items() if v is not None}
    j_hz = si.get("j_hz")
    units = SimpleNamespace(delta=cfg.delta_over_j, u=cfg.u_over_j,
                            t_final=getattr(cfg, "t_final", None))
    if j_hz is not None:
        if cfg.delta_over_j or cfg.u_over_j:
            raise ConfigError("SI group (--j-hz ...) cannot be combined with "
                              "--delta-over-j/--u-over-j")
        # U/h = 4 pi hbar^2 a rho / (m h) for caesium-133, rho in m^-3
        u_hz = (4.0 * np.pi * HBAR_SI ** 2 * BOHR_RADIUS_SI
                * si.get("scattering_length_a0", 0.0)
                * si["density_per_cm3"] * 1e6 / CS_MASS_SI / H_SI)
        units.delta, units.u = si.get("delta_hz", 0.0) / j_hz, u_hz / j_hz
        for name, value, flags in (
                ("Delta", units.delta, "--j-hz and --delta-hz"),
                ("U", units.u, "--j-hz, --scattering-length-a0 and "
                               "--density-per-cm3")):
            if not math.isfinite(value):
                raise ConfigError(f"the {name} from {flags} is {value} in units "
                                  "of J; it must be finite")
    elif si.keys() & {"delta_hz", "scattering_length_a0", "t_final_ms"}:
        raise ConfigError("--delta-hz, --scattering-length-a0 and "
                          "--t-final-ms need the --j-hz anchor")
    anchor = "--j-hz and " if "j_hz" in si else ""
    j_hz = 275.0 if j_hz is None else j_hz          # the experiment's ramp end
    per_s = 2.0 * np.pi * j_hz                      # hbar/J per second
    if "t_final_ms" in si:
        units.t_final = per_s * si["t_final_ms"] * 1e-3
        _check_time("t_final", units.t_final, anchor + "--t-final-ms")
    if "velocity_hz_per_ms" in si:
        duration = per_s * (j_hz / (si["velocity_hz_per_ms"] * 1e3))
        hold = per_s * si["hold_ms"] * 1e-3
        _check_time("ramp duration", duration, anchor + "--velocity-hz-per-ms",
                    positive=True)
        _check_time("hold", hold, anchor + "--hold-ms")
        units.ramp = RampProtocol(duration=duration, hold=hold)
    return units


def _check_time(name, value, flags, positive=False):
    """Reject an internal time (hbar/J) that is not finite or is below 0
    (at or below 0 if `positive`), naming the flags it was converted from:
    a finite lab value can still overflow or underflow on conversion."""
    if not (0.0 < value < np.inf if positive else 0.0 <= value < np.inf):
        raise ConfigError(f"the {name} from {flags} is {value} hbar/J; it "
                          f"must be finite and {'>' if positive else '>='} 0")


def _params_from(cfg):
    """ModelParams of a merged config, and its _internal_units."""
    units = _internal_units(cfg)
    return ModelParams(L=cfg.L, J=getattr(cfg, "j_internal", 1.0),
                       Delta=units.delta, phi=cfg.phi, U=units.u), units


def _solver_opts(cfg):
    return SolverOptions(residual_tol=cfg.residual_tol,
                         max_iterations=cfg.max_iterations)


# -------------------------
# Output helpers
# -------------------------

def _fmt(x):
    """Fixed 12-significant-digit formatting so outputs are byte-stable."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    return f"{x:.11e}"


def _write_csv(path, header, rows):
    """CSV with fields quoted only where they hold a comma, quote or newline."""
    with open(path, "w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(header)
        out.writerows([_fmt(x) for x in row] for row in rows)
    return path


def _write_trajectory(path, traj):
    rows = zip(traj.times, traj.r, traj.d, traj.energy, traj.norm_drift)
    return _write_csv(path, ["time", "participation_ratio", "momentum_width",
                             "energy", "norm_drift"], rows)


def _plain(obj):
    """`obj` in strict JSON values: a numpy array as a list, a numpy scalar
    as the Python value it holds, and a float that is not finite as None."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(_plain(obj), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    return path


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _outdir(args):
    out = args.out or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:      # a file in the way, or no permission
        source = "--out" if args.out else f"${OUTDIR_ENV}"
        raise ConfigError(f"{source} {out} is not a usable directory: "
                          f"{exc.strerror}") from exc
    return path


def _write_manifest(outdir, subcommand, cfg, outputs, wall_time):
    manifest = {
        "subcommand": subcommand,
        "config": vars(cfg),
        "versions": {"package": __version__,
                     "python": sys.version.split()[0],
                     "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "wall_time_s": wall_time,
        "outputs": {Path(p).name: _sha256(p) for p in outputs},
    }
    return _write_json(outdir / "manifest.json", manifest)


# -------------------------
# Subcommand handlers (each returns the list of files written)
# -------------------------

def cmd_solve(cfg, outdir):
    params, _ = _params_from(cfg)
    sol = require_converged(solve_state(params, cfg.kind, _solver_opts(cfg)),
                            params, cfg.kind)
    state = sol.state
    rows = [(j, float(state.amplitudes[j].real), float(state.amplitudes[j].imag),
             float(state.density[j])) for j in range(params.L)]
    return [
        _write_csv(outdir / "state.csv",
                   ["site", "re_amplitude", "im_amplitude", "density"], rows),
        _write_json(outdir / "solve.json", {
            "params": params.to_dict(), "kind": cfg.kind, "mu": sol.mu,
            "energy": sol.energy, "residual": sol.residual,
            "iterations": sol.iterations, "certified": sol.certified,
            "participation_ratio": participation_ratio(state),
            "momentum_width": momentum_width(state),
            "argmax_density": int(np.argmax(state.density)),
        }),
    ]


def cmd_evolve(cfg, outdir):
    params, units = _params_from(cfg)
    traj = transport_experiment(params, units.t_final, dt=cfg.dt,
                                snapshot_stride=cfg.stride)
    return [
        _write_trajectory(outdir / "trajectory.csv", traj),
        _write_json(outdir / "evolve.json", {
            "params": params.to_dict(), "t_final": units.t_final, "dt": cfg.dt,
            "final_r": float(traj.r[-1]), "final_d": float(traj.d[-1]),
            "max_norm_drift": float(np.max(traj.norm_drift)),
            "rhs_calls": traj.rhs_calls, "steps": traj.steps,
        }),
    ]


def cmd_interaction_sweep(cfg, outdir):
    rows = []
    for u in _grid(cfg, "u"):
        params = ModelParams(L=cfg.L, J=1.0, Delta=cfg.delta_over_j,
                             phi=cfg.phi, U=float(u))
        traj = transport_experiment(params, cfg.t_final, dt=cfg.dt)
        rows.append((float(u), float(traj.d[-1]), float(traj.r[-1])))
    return [_write_csv(outdir / "sweep.csv",
                       ["u_over_j", "momentum_width", "participation_ratio"],
                       rows)]


def cmd_ramp(cfg, outdir):
    params, units = _params_from(cfg)
    final, traj = ramp_prepare(params, units.ramp, cfg.kind, dt=cfg.dt,
                               snapshot_stride=cfg.stride)
    exact = require_converged(solve_state(params, cfg.kind, _solver_opts(cfg)),
                              params, cfg.kind)
    r_ramp, r_exact = participation_ratio(final), participation_ratio(exact.state)
    return [
        _write_trajectory(outdir / "ramp_trajectory.csv", traj),
        _write_json(outdir / "ramp.json", {
            "params": params.to_dict(), "kind": cfg.kind,
            "ramp_duration_internal": units.ramp.duration,
            "hold_internal": units.ramp.hold,
            "r_ramped": r_ramp, "r_exact": r_exact,
            "r_deficit": r_exact - r_ramp,
        }),
    ]


def cmd_scan(cfg, outdir):
    deltas, us = _grid(cfg, "delta"), _grid(cfg, "u")
    grid = ScanGrid(delta_over_j=tuple(float(d) for d in deltas),
                    u_over_j=tuple(float(u) for u in us),
                    L=cfg.L, kind=cfg.kind, preparation=cfg.preparation,
                    phi=cfg.phi)
    if cfg.results and (os.path.isdir(cfg.results) or not os.path.isdir(
            os.path.dirname(cfg.results) or ".")):
        raise ConfigError(f"--results {cfg.results} must name a file in an "
                          f"existing directory")
    results_path = cfg.results or str(outdir / "scan_cells.jsonl")
    res = scan_phase_diagram(grid, _solver_opts(cfg),
                             results_path=results_path,
                             detect=not cfg.no_detect)
    files = []
    header = ["u_over_j"] + [_fmt(d) for d in deltas]
    for kind, mat in res.r.items():
        rows = [[float(u)] + [mat[i, k] for k in range(deltas.size)]
                for i, u in enumerate(us)]
        files.append(_write_csv(outdir / f"r_{kind}.csv", header, rows))
    if res.transitions:
        trows = []
        for kind, per_u in res.transitions.items():
            for u, tr in zip(us, per_u):
                trows.append((kind, float(u),
                              float("nan") if tr.delta_c is None else tr.delta_c,
                              len(tr.crossings),
                              ";".join(f"{lo:.11e}..{hi:.11e}"
                                       for lo, hi in tr.crossings),
                              tr.message, tr.refine_solves))
        files.append(_write_csv(outdir / "transitions.csv",
                                ["kind", "u_over_j", "delta_c_over_j",
                                 "n_crossings", "crossings", "message",
                                 "refine_solves"], trows))
    if res.phases is not None:
        prows = [[float(u)] + list(res.phases[i]) for i, u in enumerate(us)]
        files.append(_write_csv(outdir / "phases.csv", header, prows))
    files.append(_write_csv(outdir / "failures.csv",
                            ["kind", "u_over_j", "delta_over_j", "message"],
                            res.failures))
    files.append(Path(results_path))
    return files


def _phase_boundary_task(task):
    u, kind, kw = task
    tr = transition_for_u(u, kind, **kw)
    return u, kind, (tr.delta_c if tr.found else float("nan"))


def cmd_phases(cfg, outdir):
    us = _grid(cfg, "u")
    kw = dict(deltas=_delta_window(cfg), L=cfg.L, phi=cfg.phi,
              opts=_solver_opts(cfg))
    tasks = [(float(u), kind, kw) for u in us for kind in KINDS]
    if cfg.workers > 1:
        # imported here: multiprocessing is only needed for a pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            done = list(pool.map(_phase_boundary_task, tasks))
    else:
        done = [_phase_boundary_task(t) for t in tasks]
    dc = {(u, kind): val for u, kind, val in done}
    rows = [(float(u), dc[(float(u), "gs")], dc[(float(u), "es")])
            for u in us]
    return [_write_csv(outdir / "boundaries.csv",
                       ["u_over_j", "delta_c_gs", "delta_c_es"], rows)]


def cmd_alpha_star(cfg, outdir):
    us, rows, table = _numbers(cfg.u_values), [], []
    deltas = _delta_window(cfg)
    for u in us:
        res = extract_alpha_star(u, deltas, L=cfg.L, phi=cfg.phi,
                                 energy_definition=cfg.energy_definition,
                                 opts=_solver_opts(cfg))
        table.append(res)
        rows.append((res.U, res.delta_c_gs, res.delta_c_es,
                     res.e_c_gs, res.e_c_es, res.alpha_star))
    summary = {"energy_definition": cfg.energy_definition, "L": cfg.L}
    if len(us) >= 2:
        uu = np.array([t.U for t in table])
        aa = np.array([t.alpha_star for t in table])
        slope, intercept = np.polyfit(uu, aa, 1)
        pred = slope * uu + intercept
        ss_res = float(np.sum((aa - pred) ** 2))
        ss_tot = float(np.sum((aa - aa.mean()) ** 2))
        summary.update(slope=float(slope), intercept=float(intercept),
                       r_squared=1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0)
    return [
        _write_csv(outdir / "alpha_star.csv",
                   ["u_over_j", "delta_c_gs", "delta_c_es",
                    "e_c_gs", "e_c_es", "alpha_star"], rows),
        _write_json(outdir / "alpha_star.json", summary),
    ]


def cmd_gaa_me(cfg, outdir):
    gp = GaaParams(L=cfg.L, Delta=cfg.delta_over_j, alpha=cfg.alpha, phi=cfg.phi)
    cls = gaa_classify_spectrum(gp)
    rows = [(i, float(cls.energies[i]), float(cls.r[i]),
             bool(cls.predicted_localized[i]), bool(cls.observed_localized[i]),
             bool(cls.agree[i])) for i in range(cfg.L)]
    return [
        _write_csv(outdir / "gaa_spectrum.csv",
                   ["index", "energy", "participation_ratio",
                    "predicted_localized", "observed_localized", "agree"],
                   rows),
        _write_json(outdir / "gaa.json", {
            "L": cfg.L, "alpha": cfg.alpha, "delta_over_j": cfg.delta_over_j,
            "phi": cfg.phi, "mobility_edge": cls.mobility_edge,
            "misclassification": cls.misclassification,
            "r_threshold": cls.threshold,
        }),
    ]


def cmd_fit(cfg, outdir):
    files = []
    if cfg.data and cfg.synthesize:
        raise ConfigError("give either --data or --synthesize, not both")
    if cfg.data:
        try:
            with open(cfg.data) as f:
                first = f.readline()
            skip = int(_is_header(first))
            data = np.loadtxt(cfg.data, delimiter=",", skiprows=skip, ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot read data file: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"data file is not numeric CSV: {exc}") from exc
    elif cfg.synthesize:
        deltas = np.linspace(cfg.delta_min, cfg.delta_max, cfg.n_points)
        data = synthesize_measurement(cfg.u_over_j, deltas, L=cfg.L,
                                      kind=cfg.kind,
                                      noise_sigma=cfg.noise_sigma,
                                      floor=cfg.floor, seed=cfg.seed,
                                      phi=cfg.phi, dt=cfg.dt)
        files.append(_write_csv(outdir / "data.csv", ["delta_over_j", "r"],
                                [tuple(row) for row in data]))
    else:
        raise ConfigError("fit needs --data <csv> or --synthesize")

    boot = None
    if cfg.bootstrap > 0:
        boot = bootstrap_delta_c(data, n_resamples=cfg.bootstrap,
                                 seed=cfg.seed)
        fit = boot.base
    else:
        fit = fit_transition(data)
    delta0 = np.asarray(data, dtype=float)[:, 0]
    curve_rows = zip(delta0, np.asarray(data, dtype=float)[:, 1],
                     fit.curve(delta0))
    files += [
        _write_csv(outdir / "fitted_curve.csv",
                   ["delta_over_j", "r_data", "r_fit"], curve_rows),
        _write_json(outdir / "fit.json", {
            "A": fit.A, "B": fit.B, "gamma": fit.gamma,
            "delta_c": fit.delta_c, "rss": fit.rss,
            "n_points": fit.n_points,
            "delta_c_stderr": fit.delta_c_stderr,
            "bootstrap": None if boot is None else {
                "n_resamples": boot.n_resamples,
                "n_failures": boot.n_failures, "valid": boot.valid},
        }),
    ]
    return files


def cmd_bragg_schedule(cfg, outdir):
    params = ModelParams(L=cfg.L, J=1.0, Delta=cfg.delta_over_j, phi=cfg.phi)
    sched = bragg_detunings(params, recoil_joule=H_SI * cfg.recoil_khz * 1e3,
                            j_energy_joule=H_SI * cfg.j_hz)
    rows = [(j + BRAGG_SITE_OFFSET,
             float(sched.detunings[j] / (2.0 * np.pi)),
             float(sched.phases[j]))
            for j in range(params.L - 1)]
    return [
        _write_csv(outdir / "bragg.csv",
                   ["bond_j", "detuning_over_2pi_hz", "phase_rad"], rows),
        _write_json(outdir / "bragg.json", {
            "L": cfg.L, "delta_over_j": cfg.delta_over_j, "phi": cfg.phi,
            "recoil_joule": sched.recoil,
            "wavenumber_per_m": sched.wavenumber,
        }),
    ]


# -------------------------
# Subcommands and parser
# -------------------------

MODEL = dict(L=21, delta_over_j=0.0, u_over_j=0.0, phi=0.0)
SI = dict(j_hz=None, delta_hz=None, scattering_length_a0=None,
          density_per_cm3=2.0e13)
SOLVER = dict(residual_tol=1e-10, max_iterations=50_000)

# name: (handler, help, {dest: default} of every option it reads)
COMMANDS = {
    "solve": (cmd_solve, "ground or highest-excited eigenstate",
              dict(MODEL, **SI, **SOLVER, kind="gs", j_internal=1.0)),
    "evolve": (cmd_evolve, "single-site quench transport",
               dict(MODEL, **SI, t_final=4.0, t_final_ms=None, dt=DEFAULT_DT,
                    stride=100)),
    "interaction-sweep": (
        cmd_interaction_sweep,
        "final momentum width vs interaction at fixed Delta",
        dict(L=21, delta_over_j=0.0, phi=0.0, t_final=2.0, dt=DEFAULT_DT,
             u_min=-0.8, u_max=0.8, u_step=0.2)),
    "ramp": (cmd_ramp, "finite-velocity state preparation",
             dict(MODEL, **SI, **SOLVER, kind="gs", velocity_hz_per_ms=275.0,
                  hold_ms=0.0, dt=DEFAULT_DT, stride=100)),
    "scan": (cmd_scan, "r over the (U, Delta) grid with transitions",
             dict(L=21, phi=0.0, kind="both", preparation="exact",
                  delta_min=0.0, delta_max=4.0, delta_step=0.05,
                  u_min=-1.0, u_max=1.0, u_step=0.25,
                  results=None, no_detect=False, **SOLVER)),
    "phases": (cmd_phases, "GS/ES boundary curves Delta_c(U)",
               dict(L=21, phi=0.0, u_min=-1.0, u_max=1.0, u_step=0.25,
                    delta_max=8.0, delta_step=0.05, workers=1, **SOLVER)),
    "alpha-star": (cmd_alpha_star, "effective-model slope table alpha*(U)",
                   dict(L=21, phi=0.0, u_values="-0.25,-0.125,0.125,0.25",
                        energy_definition="mu", delta_max=8.0, delta_step=0.1,
                        **SOLVER)),
    "gaa-me": (cmd_gaa_me,
               "generalized-model spectrum vs its mobility-edge line",
               dict(L=987, delta_over_j=1.0, phi=0.0, alpha=0.0)),
    "fit": (cmd_fit, "piecewise transition fit of r(Delta) data",
            dict(L=21, phi=0.0, data=None, synthesize=False, u_over_j=0.0,
                 kind="gs", delta_min=0.2, delta_max=3.4, n_points=40,
                 noise_sigma=0.01, floor=0.0, seed=DEFAULT_SEED, bootstrap=0,
                 dt=DEFAULT_DT)),
    "bragg-schedule": (cmd_bragg_schedule,
                       "two-photon detuning table for the 21-site chain",
                       dict(L=21, delta_over_j=0.0, phi=0.0, recoil_khz=5.3,
                            j_hz=0.0)),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token starting with '-' and a
    digit, or '-.' and a digit, as a value: -1e-1 and -0.25,0.5 as well as
    the -1 and -0.5 argparse knows. No nlaa flag has that form.

    A subcommand's parser is made with its `command` name and adds that
    command's options on first use, to parse or to format its help or
    usage: a call pays for the options of the one subcommand it runs."""

    def __init__(self, *args, command=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")
        self._command = command         # None once its options are added

    def _add_options(self):
        name, self._command = self._command, None
        if name is None:
            return
        self.add_argument("--config",
                          help="JSON file with config keys (flags override)")
        self.add_argument("--out",
                          help=f"output directory (default ${OUTDIR_ENV} or .)")
        for dest, default in COMMANDS[name][2].items():
            opt = _option(name, dest)
            kw = (dict(action="store_true") if opt.type is bool
                  else dict(type=opt.type, choices=opt.choices))
            text = opt.help + (f"; must be {opt.domain[1]}" if opt.domain else "")
            if default is not None and opt.type is not bool:
                text += f" (default {default})"
            self.add_argument("--" + dest.replace("_", "-"), dest=dest,
                              default=None, help=text, **kw)

    def parse_known_args(self, args=None, namespace=None):
        self._add_options()
        return super().parse_known_args(args, namespace)

    def format_usage(self):
        self._add_options()
        return super().format_usage()

    def format_help(self):
        self._add_options()
        return super().format_help()


def build_parser():
    parser = _Parser(
        prog="nlaa",
        description="Nonlinear Aubry-Andre lattice toolkit: eigenstates, "
                    "quench dynamics, phase diagrams, and transition fits.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_, _) in COMMANDS.items():
        sub.add_parser(name, help=help_, command=name)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        outdir = _outdir(args)
        cfg = _config(args)
        files = COMMANDS[args.subcommand][0](cfg, outdir)
        _write_manifest(outdir, args.subcommand, cfg, files,
                        time.perf_counter() - t0)
    except UnidentifiableFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (np.linalg.LinAlgError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
