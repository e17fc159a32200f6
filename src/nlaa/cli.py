"""
Command-line front end.

All physics lives in the library modules; this layer does configuration
ingestion (JSON config file + flag overrides), SI-to-internal unit
conversion at ingress, subcommand dispatch, and plot-ready CSV/JSON output
with a manifest per run.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 unidentifiable fit.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from . import __version__
from .dynamics import DEFAULT_DT, RampProtocol, ramp_prepare, transport_experiment
from .eigensolve import SolverOptions, solve_state
from .fitting import (UnidentifiableFitError, bootstrap_delta_c,
                      fit_transition, synthesize_measurement)
from .gaa import GaaParams, extract_alpha_star, gaa_classify_spectrum
from .model import (H_SI, InteractionConversion, ModelParams, bragg_detunings,
                    momentum_width, participation_ratio, scattering_length_to_U)
from .phasescan import ScanGrid, scan_phase_diagram, transition_for_u

DEFAULT_SEED = 12345
OUTDIR_ENV = "NLAA_OUTDIR"


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# -------------------------
# Config merging and unit ingress
# -------------------------

def _merged(args, defaults):
    """Defaults < JSON config file < explicit CLI flags, as a namespace."""
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as f:
                cfg = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(cfg) - set(defaults))
        if unknown:
            raise ConfigError(
                f"unknown config keys {unknown}; this subcommand accepts "
                f"{sorted(defaults)}")
    out = {}
    for name, dv in defaults.items():
        av = getattr(args, name, None)
        out[name] = av if av is not None else cfg.get(name, dv)
    return SimpleNamespace(**out)


def _params_from(cfg):
    """Build ModelParams from a merged config (dimensionless or SI group)."""
    delta, u = cfg.delta_over_j, cfg.u_over_j
    if getattr(cfg, "j_hz", None):
        if cfg.delta_over_j or cfg.u_over_j:
            raise ConfigError("SI group (--j-hz ...) cannot be combined with "
                              "--delta-over-j/--u-over-j")
        j_joule = H_SI * cfg.j_hz
        delta = (H_SI * cfg.delta_hz) / j_joule if cfg.delta_hz else 0.0
        if cfg.scattering_length_a0:
            conv = InteractionConversion(
                scattering_length_a0=cfg.scattering_length_a0,
                density_per_cm3=cfg.density_per_cm3)
            u = scattering_length_to_U(conv) / j_joule
        else:
            u = 0.0
    elif getattr(cfg, "delta_hz", None) or getattr(cfg, "scattering_length_a0", None):
        raise ConfigError("SI parameters need the --j-hz anchor")
    return ModelParams(L=cfg.L, J=getattr(cfg, "j_internal", 1.0),
                       Delta=delta, phi=cfg.phi, U=u)


def _solver_opts(cfg):
    return SolverOptions(residual_tol=cfg.residual_tol,
                         max_iterations=int(cfg.max_iterations))


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
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(x) for x in row) + "\n")
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(_jsonable(obj), f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _outdir(args):
    out = getattr(args, "out", None) or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(outdir, subcommand, cfg, outputs, wall_time):
    manifest = {
        "subcommand": subcommand,
        "config": _jsonable(vars(cfg)),
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

MODEL_DEFAULTS = dict(L=21, delta_over_j=0.0, u_over_j=0.0, phi=0.0,
                      j_hz=None, delta_hz=None, scattering_length_a0=None,
                      density_per_cm3=2.0e13)
SOLVER_DEFAULTS = dict(residual_tol=1e-10, max_iterations=50_000)


def cmd_solve(args, outdir):
    defaults = dict(MODEL_DEFAULTS, **SOLVER_DEFAULTS,
                    kind="gs", j_internal=1.0)
    cfg = _merged(args, defaults)
    params = _params_from(cfg)
    sol = solve_state(params, cfg.kind, _solver_opts(cfg))
    if not sol.converged:
        raise RuntimeError(
            f"solver did not reach tolerance (residual {sol.residual:.3e})")
    state = sol.state
    rows = [(j, float(state.amplitudes[j].real), float(state.amplitudes[j].imag),
             float(state.density[j])) for j in range(params.L)]
    files = [
        _write_csv(outdir / "state.csv",
                   ["site", "re_amplitude", "im_amplitude", "density"], rows),
        _write_json(outdir / "solve.json", {
            "params": params.to_dict(), "kind": sol.kind, "mu": sol.mu,
            "energy": sol.energy, "residual": sol.residual,
            "iterations": sol.iterations,
            "participation_ratio": participation_ratio(state),
            "momentum_width": momentum_width(state),
            "argmax_density": int(np.argmax(state.density)),
        }),
    ]
    return cfg, files


def cmd_evolve(args, outdir):
    defaults = dict(MODEL_DEFAULTS, t_final=4.0, t_final_ms=None,
                    dt=DEFAULT_DT, stride=100)
    cfg = _merged(args, defaults)
    params = _params_from(cfg)
    t_final = cfg.t_final
    if cfg.t_final_ms is not None:
        if not cfg.j_hz:
            raise ConfigError("--t-final-ms needs the --j-hz anchor")
        t_final = 2.0 * np.pi * cfg.j_hz * cfg.t_final_ms * 1e-3
    traj = transport_experiment(params, t_final, dt=cfg.dt,
                                snapshot_stride=int(cfg.stride))
    rows = zip(traj.times, traj.r, traj.d, traj.energy, traj.norm_drift)
    files = [
        _write_csv(outdir / "trajectory.csv",
                   ["time", "participation_ratio", "momentum_width",
                    "energy", "norm_drift"], rows),
        _write_json(outdir / "evolve.json", {
            "params": params.to_dict(), "t_final": t_final, "dt": cfg.dt,
            "final_r": float(traj.r[-1]), "final_d": float(traj.d[-1]),
            "max_norm_drift": float(np.max(traj.norm_drift)),
        }),
    ]
    return cfg, files


def cmd_interaction_sweep(args, outdir):
    defaults = dict(MODEL_DEFAULTS, t_final=2.0, dt=DEFAULT_DT,
                    u_min=-0.8, u_max=0.8, u_step=0.2)
    cfg = _merged(args, defaults)
    us = np.arange(cfg.u_min, cfg.u_max + 0.5 * cfg.u_step, cfg.u_step)
    rows = []
    for u in us:
        params = ModelParams(L=cfg.L, J=1.0, Delta=cfg.delta_over_j,
                             phi=cfg.phi, U=float(u))
        traj = transport_experiment(params, cfg.t_final, dt=cfg.dt)
        rows.append((float(u), float(traj.d[-1]), float(traj.r[-1])))
    files = [_write_csv(outdir / "sweep.csv",
                        ["u_over_j", "momentum_width", "participation_ratio"],
                        rows)]
    return cfg, files


def cmd_ramp(args, outdir):
    defaults = dict(MODEL_DEFAULTS, **SOLVER_DEFAULTS, kind="gs",
                    velocity_hz_per_ms=275.0, j_target_hz=275.0, hold_ms=0.0,
                    dt=DEFAULT_DT, stride=100)
    cfg = _merged(args, defaults)
    params = _params_from(cfg)
    proto = RampProtocol.from_si(velocity_hz_per_ms=cfg.velocity_hz_per_ms,
                                 j_target_hz=cfg.j_target_hz,
                                 hold_ms=cfg.hold_ms).for_kind(cfg.kind)
    final, traj = ramp_prepare(params, proto, dt=cfg.dt,
                               snapshot_stride=int(cfg.stride))
    exact = solve_state(params, cfg.kind, _solver_opts(cfg))
    r_ramp, r_exact = participation_ratio(final), participation_ratio(exact.state)
    rows = zip(traj.times, traj.r, traj.d, traj.energy, traj.norm_drift)
    files = [
        _write_csv(outdir / "ramp_trajectory.csv",
                   ["time", "participation_ratio", "momentum_width",
                    "energy", "norm_drift"], rows),
        _write_json(outdir / "ramp.json", {
            "params": params.to_dict(), "kind": cfg.kind,
            "ramp_duration_internal": proto.duration,
            "hold_internal": proto.hold,
            "r_ramped": r_ramp, "r_exact": r_exact,
            "r_deficit": r_exact - r_ramp,
        }),
    ]
    return cfg, files


def cmd_scan(args, outdir):
    defaults = dict(L=21, phi=0.0, kind="both", preparation="exact",
                    delta_min=0.0, delta_max=4.0, delta_step=0.05,
                    u_min=-1.0, u_max=1.0, u_step=0.25,
                    workers=1, results=None, **SOLVER_DEFAULTS)
    cfg = _merged(args, defaults)
    deltas = np.arange(cfg.delta_min, cfg.delta_max + 0.5 * cfg.delta_step,
                       cfg.delta_step)
    us = np.arange(cfg.u_min, cfg.u_max + 0.5 * cfg.u_step, cfg.u_step)
    grid = ScanGrid(delta_over_j=tuple(float(d) for d in deltas),
                    u_over_j=tuple(float(u) for u in us),
                    L=cfg.L, kind=cfg.kind, preparation=cfg.preparation,
                    phi=cfg.phi)
    results_path = cfg.results or str(outdir / "scan_cells.jsonl")
    res = scan_phase_diagram(grid, _solver_opts(cfg),
                             results_path=results_path,
                             workers=int(cfg.workers),
                             detect=not getattr(args, "no_detect", False))
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
                                       for lo, hi in tr.crossings)))
        files.append(_write_csv(outdir / "transitions.csv",
                                ["kind", "u_over_j", "delta_c_over_j",
                                 "n_crossings", "crossings"], trows))
    if res.phases is not None:
        prows = [[float(u)] + list(res.phases[i]) for i, u in enumerate(us)]
        files.append(_write_csv(outdir / "phases.csv", header, prows))
    files.append(Path(results_path))
    return cfg, files


def _phase_boundary_task(task):
    u, kind, kw = task
    tr = transition_for_u(u, kind, **kw)
    return u, kind, (tr.delta_c if tr.found else float("nan"))


def cmd_phases(args, outdir):
    defaults = dict(L=21, phi=0.0, u_min=-1.0, u_max=1.0, u_step=0.25,
                    delta_max=8.0, delta_step=0.05, workers=1,
                    **SOLVER_DEFAULTS)
    cfg = _merged(args, defaults)
    us = np.arange(cfg.u_min, cfg.u_max + 0.5 * cfg.u_step, cfg.u_step)
    kw = dict(L=cfg.L, delta_max=cfg.delta_max, delta_step=cfg.delta_step,
              phi=cfg.phi, opts=_solver_opts(cfg))
    tasks = [(float(u), kind, kw) for u in us for kind in ("gs", "es")]
    if int(cfg.workers) > 1:
        with ProcessPoolExecutor(max_workers=int(cfg.workers)) as pool:
            done = list(pool.map(_phase_boundary_task, tasks))
    else:
        done = [_phase_boundary_task(t) for t in tasks]
    dc = {(u, kind): val for u, kind, val in done}
    rows = [(float(u), dc[(float(u), "gs")], dc[(float(u), "es")])
            for u in us]
    files = [_write_csv(outdir / "boundaries.csv",
                        ["u_over_j", "delta_c_gs", "delta_c_es"], rows)]
    return cfg, files


def cmd_alpha_star(args, outdir):
    defaults = dict(L=21, phi=0.0, u_values="-0.25,-0.125,0.125,0.25",
                    energy_definition="mu", delta_max=8.0, delta_step=0.1,
                    **SOLVER_DEFAULTS)
    cfg = _merged(args, defaults)
    try:
        us = [float(tok) for tok in str(cfg.u_values).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --u-values list: {exc}") from exc
    if not us:
        raise ConfigError("--u-values must name at least one interaction")
    rows, table = [], []
    for u in us:
        res = extract_alpha_star(u, L=cfg.L, phi=cfg.phi,
                                 energy_definition=cfg.energy_definition,
                                 delta_max=cfg.delta_max,
                                 delta_step=cfg.delta_step,
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
    files = [
        _write_csv(outdir / "alpha_star.csv",
                   ["u_over_j", "delta_c_gs", "delta_c_es",
                    "e_c_gs", "e_c_es", "alpha_star"], rows),
        _write_json(outdir / "alpha_star.json", summary),
    ]
    return cfg, files


def cmd_gaa_me(args, outdir):
    defaults = dict(L=987, delta_over_j=1.0, phi=0.0, alpha=0.0)
    cfg = _merged(args, defaults)
    gp = GaaParams(L=cfg.L, J=1.0, Delta=cfg.delta_over_j, alpha=cfg.alpha,
                   phi=cfg.phi)
    cls = gaa_classify_spectrum(gp)
    rows = [(i, float(cls.energies[i]), float(cls.r[i]),
             bool(cls.predicted_localized[i]), bool(cls.observed_localized[i]),
             bool(cls.agree[i])) for i in range(cfg.L)]
    files = [
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
    return cfg, files


def cmd_fit(args, outdir):
    defaults = dict(L=21, phi=0.0, data=None, synthesize=False,
                    u_over_j=0.0, kind="gs", delta_min=0.2, delta_max=3.4,
                    n_points=40, noise_sigma=0.01, floor=0.0,
                    seed=DEFAULT_SEED, bootstrap=0, dt=DEFAULT_DT)
    cfg = _merged(args, defaults)
    files = []
    if cfg.data and cfg.synthesize:
        raise ConfigError("give either --data or --synthesize, not both")
    if cfg.data:
        try:
            with open(cfg.data) as f:
                first = f.readline()
            skip = 1 if any(c.isalpha() for c in first) else 0
            data = np.loadtxt(cfg.data, delimiter=",", skiprows=skip, ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot read data file: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"data file is not numeric CSV: {exc}") from exc
    elif cfg.synthesize:
        deltas = np.linspace(cfg.delta_min, cfg.delta_max, int(cfg.n_points))
        data = synthesize_measurement(cfg.u_over_j, deltas, L=cfg.L,
                                      kind=cfg.kind,
                                      noise_sigma=cfg.noise_sigma,
                                      floor=cfg.floor, seed=int(cfg.seed),
                                      phi=cfg.phi, dt=cfg.dt)
        files.append(_write_csv(outdir / "data.csv", ["delta_over_j", "r"],
                                [tuple(row) for row in data]))
    else:
        raise ConfigError("fit needs --data <csv> or --synthesize")

    fit = fit_transition(data)
    boot = None
    if int(cfg.bootstrap) > 0:
        boot = bootstrap_delta_c(data, n_resamples=int(cfg.bootstrap),
                                 seed=int(cfg.seed))
        fit.delta_c_stderr = boot.stderr
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
    return cfg, files


def cmd_bragg_schedule(args, outdir):
    defaults = dict(L=21, delta_over_j=0.0, phi=0.0, recoil_khz=5.3,
                    j_hz=0.0)
    cfg = _merged(args, defaults)
    params = ModelParams(L=cfg.L, J=1.0, Delta=cfg.delta_over_j, phi=cfg.phi)
    sched = bragg_detunings(params, recoil_joule=H_SI * cfg.recoil_khz * 1e3,
                            j_energy_joule=H_SI * cfg.j_hz)
    rows = [(int(j + sched.site_offset),
             float(sched.detunings[j] / (2.0 * np.pi)),
             float(sched.phases[j]))
            for j in range(params.L - 1)]
    files = [
        _write_csv(outdir / "bragg.csv",
                   ["bond_j", "detuning_over_2pi_hz", "phase_rad"], rows),
        _write_json(outdir / "bragg.json", {
            "L": cfg.L, "delta_over_j": cfg.delta_over_j, "phi": cfg.phi,
            "recoil_joule": sched.recoil,
            "wavenumber_per_m": sched.wavenumber,
        }),
    ]
    return cfg, files


# -------------------------
# Parser
# -------------------------

def _add_model_flags(p, si=True):
    p.add_argument("--L", type=int, default=None, help="chain length")
    p.add_argument("--delta-over-j", dest="delta_over_j", type=float,
                   default=None, help="quasiperiodic amplitude Delta/J")
    p.add_argument("--u-over-j", dest="u_over_j", type=float, default=None,
                   help="interaction U/J (positive = self-focusing)")
    p.add_argument("--phi", type=float, default=None, help="potential phase")
    if si:
        p.add_argument("--j-hz", dest="j_hz", type=float, default=None,
                       help="SI anchor: hopping J/hbar as 2*pi times this Hz value")
        p.add_argument("--delta-hz", dest="delta_hz", type=float, default=None,
                       help="SI Delta/h in Hz (needs --j-hz)")
        p.add_argument("--scattering-length-a0", dest="scattering_length_a0",
                       type=float, default=None,
                       help="SI s-wave scattering length in Bohr radii (needs --j-hz)")
        p.add_argument("--density-per-cm3", dest="density_per_cm3", type=float,
                       default=None, help="mean atomic density in cm^-3")


def _add_solver_flags(p):
    p.add_argument("--residual-tol", dest="residual_tol", type=float,
                   default=None)
    p.add_argument("--max-iterations", dest="max_iterations", type=int,
                   default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nlaa",
        description="Nonlinear Aubry-Andre lattice toolkit: eigenstates, "
                    "quench dynamics, phase diagrams, and transition fits.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def new(name, handler, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", default=None,
                       help="JSON file with config keys (flags override)")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUTDIR_ENV} or .)")
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=handler)
        return p

    p = new("solve", cmd_solve, "ground or highest-excited eigenstate")
    _add_model_flags(p)
    _add_solver_flags(p)
    p.add_argument("--kind", choices=("gs", "es"), default=None)
    p.add_argument("--j-internal", dest="j_internal", type=float, default=None,
                   help="internal hopping (default 1; 0 gives the decoupled chain)")

    p = new("evolve", cmd_evolve, "single-site quench transport")
    _add_model_flags(p)
    p.add_argument("--t-final", dest="t_final", type=float, default=None,
                   help="evolution time in hbar/J")
    p.add_argument("--t-final-ms", dest="t_final_ms", type=float, default=None,
                   help="evolution time in ms (needs --j-hz)")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--stride", type=int, default=None)

    p = new("interaction-sweep", cmd_interaction_sweep,
            "final momentum width vs interaction at fixed Delta")
    _add_model_flags(p)
    p.add_argument("--t-final", dest="t_final", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--u-min", dest="u_min", type=float, default=None)
    p.add_argument("--u-max", dest="u_max", type=float, default=None)
    p.add_argument("--u-step", dest="u_step", type=float, default=None)

    p = new("ramp", cmd_ramp, "finite-velocity state preparation")
    _add_model_flags(p)
    _add_solver_flags(p)
    p.add_argument("--kind", choices=("gs", "es"), default=None)
    p.add_argument("--velocity-hz-per-ms", dest="velocity_hz_per_ms",
                   type=float, default=None)
    p.add_argument("--j-target-hz", dest="j_target_hz", type=float,
                   default=None)
    p.add_argument("--hold-ms", dest="hold_ms", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--stride", type=int, default=None)

    p = new("scan", cmd_scan, "r over the (U, Delta) grid with transitions")
    _add_solver_flags(p)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--kind", choices=("gs", "es", "both"), default=None)
    p.add_argument("--preparation", choices=("exact", "ramped"), default=None)
    p.add_argument("--delta-min", dest="delta_min", type=float, default=None)
    p.add_argument("--delta-max", dest="delta_max", type=float, default=None)
    p.add_argument("--delta-step", dest="delta_step", type=float, default=None)
    p.add_argument("--u-min", dest="u_min", type=float, default=None)
    p.add_argument("--u-max", dest="u_max", type=float, default=None)
    p.add_argument("--u-step", dest="u_step", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--results", default=None,
                   help="JSONL cell store for resumable scans")
    p.add_argument("--no-detect", dest="no_detect", action="store_true",
                   help="skip transition detection (r matrices only)")

    p = new("phases", cmd_phases, "GS/ES boundary curves Delta_c(U)")
    _add_solver_flags(p)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--u-min", dest="u_min", type=float, default=None)
    p.add_argument("--u-max", dest="u_max", type=float, default=None)
    p.add_argument("--u-step", dest="u_step", type=float, default=None)
    p.add_argument("--delta-max", dest="delta_max", type=float, default=None)
    p.add_argument("--delta-step", dest="delta_step", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)

    p = new("alpha-star", cmd_alpha_star,
            "effective-model slope table alpha*(U)")
    _add_solver_flags(p)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--u-values", dest="u_values", default=None,
                   help="comma-separated U/J list")
    p.add_argument("--energy-definition", dest="energy_definition",
                   choices=("mu", "E"), default=None)
    p.add_argument("--delta-max", dest="delta_max", type=float, default=None)
    p.add_argument("--delta-step", dest="delta_step", type=float, default=None)

    p = new("gaa-me", cmd_gaa_me,
            "generalized-model spectrum vs its mobility-edge line")
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta-over-j", dest="delta_over_j", type=float,
                   default=None)
    p.add_argument("--phi", type=float, default=None)

    p = new("fit", cmd_fit, "piecewise transition fit of r(Delta) data")
    p.add_argument("--data", default=None,
                   help="CSV of delta_over_j,r[,sigma] rows")
    p.add_argument("--synthesize", action="store_true",
                   help="generate ramped synthetic data instead of reading --data")
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--u-over-j", dest="u_over_j", type=float, default=None)
    p.add_argument("--kind", choices=("gs", "es"), default=None)
    p.add_argument("--delta-min", dest="delta_min", type=float, default=None)
    p.add_argument("--delta-max", dest="delta_max", type=float, default=None)
    p.add_argument("--n-points", dest="n_points", type=int, default=None)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float,
                   default=None)
    p.add_argument("--floor", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--bootstrap", type=int, default=None,
                   help="residual-resampling refits for the Delta_c stderr")

    p = new("bragg-schedule", cmd_bragg_schedule,
            "two-photon detuning table for the 21-site chain")
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--delta-over-j", dest="delta_over_j", type=float,
                   default=None)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--recoil-khz", dest="recoil_khz", type=float, default=None,
                   help="recoil energy E_R/h in kHz")
    p.add_argument("--j-hz", dest="j_hz", type=float, default=None,
                   help="energy unit J/h in Hz for the on-site term (0 drops it)")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    outdir = _outdir(args)
    t0 = time.perf_counter()
    try:
        cfg, files = args.func(args, outdir)
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
