"""Write tests/golden/<cmd>.json, the pinned oracle of every nlaa subcommand
but `fit` (tests/golden/make_fit.py) at small sizes.

Each file holds one CLI call (ARGV below) and what it wrote, read back
from its CSVs and JSONs by `record()`:

- scan (L = 13): r of both kinds on the (U, Delta) grid, the phase labels,
  and per transition row its Delta_c, found flag, number of grid crossings
  and refinement solves;
- phases (L = 13): Delta_c of both kinds per U, and the found flags;
- solve (L = 21, es): the site densities, r, <d>, mu and E of the state,
  its most populated site, whether it passes the certificate, and the
  echoed parameters;
- ramp (L = 13, es): the snapshot times and r, <d> and E at each, r of the
  ramped and of the exact state, and the echoed ramp and parameters;
- evolve (L = 13, t_final = 1, Delta = 1, U = 0.8): the snapshot times, r,
  <d>, E and the norm drift at each, the final r and <d> and the largest
  drift, and the echoed parameters, t_final and dt;
- gaa-me (L = 144): the energies, r and localized labels of the spectrum,
  the mobility edge, the misclassified share and the r threshold;
- alpha-star (L = 13, U = -0.25, 0, 0.25): Delta_c, the chemical potential
  at Delta_c and alpha* of both kinds per U, and the slope, intercept and
  R^2 of the straight line through alpha*(U);
- bragg-schedule (Delta = 1.5, J/h = 275 Hz): the bond labels, detunings and
  phases, and the echoed parameters with the recoil energy and wavenumber;
- interaction-sweep (L = 13, t_final = 1, Delta = 1, five U): the final <d>
  and r at each U.

Each also counts the work the call did, exactly: its eigen-solves
(`solves`), their summed `iterations` and the `uncertified` and
`unconverged` ones among them, and the right-hand-side calls (`rhs_calls`)
and computed `steps` of its DOP853 trajectories. The CSVs print
12 significant digits, and JSON stores the floats read back from them by
their shortest round-trip repr. tests/test_golden.py reruns the same calls
through `record()` and compares. Run this with the nlaa whose values are to
be pinned on the path, naming the calls to pin (all of them by default):

    PYTHONPATH=<checkout>/src python3 tests/golden/make.py [--diff] [cmd ...]

With --diff it writes nothing and prints each value of the named oracles
that pinning would move, one line each as `<cmd>.json/<path>: old → new`
(`absent` where a value is new or gone). The nlaa_version stamp is left out:
it moves with every release.
"""

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import nlaa
import nlaa.dynamics as dynamics
import nlaa.gaa as gaa
import nlaa.phasescan as phasescan
from nlaa import cli

ARGV = {
    "scan": ["scan", "--L", "13", "--delta-step", "0.25", "--u-step", "0.5"],
    "phases": ["phases", "--L", "13", "--delta-step", "0.25", "--u-step", "0.5"],
    "solve": ["solve", "--L", "21", "--kind", "es", "--u-over-j", "0.5",
              "--delta-over-j", "1.5"],
    "ramp": ["ramp", "--L", "13", "--kind", "es", "--u-over-j", "0.3",
             "--delta-over-j", "1"],
    "evolve": ["evolve", "--L", "13", "--t-final", "1", "--delta-over-j", "1",
               "--u-over-j", "0.8"],
    "gaa-me": ["gaa-me", "--L", "144", "--alpha", "0.3"],
    "alpha-star": ["alpha-star", "--L", "13", "--u-values", "-0.25,0,0.25",
                   "--delta-max", "4", "--delta-step", "0.25"],
    "bragg-schedule": ["bragg-schedule", "--delta-over-j", "1.5",
                       "--j-hz", "275"],
    "interaction-sweep": ["interaction-sweep", "--L", "13", "--t-final", "1",
                          "--delta-over-j", "1", "--u-step", "0.4"],
}
HERE = Path(__file__).resolve().parent


def _rows(path):
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return header, rows


def _num(text):
    """A CSV float, with NaN as None so that it is plain JSON."""
    x = float(text)
    return None if math.isnan(x) else x


def _read_scan(out):
    header, _ = _rows(out / "r_gs.csv")
    rec = {"deltas": [float(d) for d in header[1:]], "u": [], "r": {}}
    for kind in ("gs", "es"):
        _, rows = _rows(out / f"r_{kind}.csv")
        rec["u"] = [float(row[0]) for row in rows]
        rec["r"][kind] = [[float(x) for x in row[1:]] for row in rows]
    rec["labels"] = [row[1:] for row in _rows(out / "phases.csv")[1]]
    rec["transitions"] = [
        {"kind": kind, "u": float(u), "delta_c": _num(dc), "found": _num(dc) is not None,
         "n_crossings": int(n), "refine_solves": int(refine)}
        for kind, u, dc, n, _, _, refine in _rows(out / "transitions.csv")[1]]
    rec["failures"] = len(_rows(out / "failures.csv")[1])
    return rec


def _read_phases(out):
    rows = _rows(out / "boundaries.csv")[1]
    rec = {"u": [float(row[0]) for row in rows]}
    for col, kind in ((1, "gs"), (2, "es")):
        rec[f"delta_c_{kind}"] = [_num(row[col]) for row in rows]
        rec[f"found_{kind}"] = [_num(row[col]) is not None for row in rows]
    return rec


def _column(rows, col, kind=float):
    return [kind(row[col]) for row in rows]


def _read_solve(out):
    info = json.loads((out / "solve.json").read_text())
    return {"params": info["params"], "kind": info["kind"],
            "argmax_density": info["argmax_density"], "certified": info["certified"],
            "density": _column(_rows(out / "state.csv")[1], 3),
            "observables": {k: info[k] for k in (
                "participation_ratio", "momentum_width", "mu", "energy")}}


def _read_ramp(out):
    info = json.loads((out / "ramp.json").read_text())
    rows = _rows(out / "ramp_trajectory.csv")[1]
    return {**{k: info[k] for k in ("params", "kind", "ramp_duration_internal",
                                    "hold_internal", "r_ramped", "r_exact")},
            "times": _column(rows, 0),
            "trajectory": {name: _column(rows, col) for col, name in (
                (1, "participation_ratio"), (2, "momentum_width"), (3, "energy"))}}


def _read_evolve(out):
    info = json.loads((out / "evolve.json").read_text())
    rows = _rows(out / "trajectory.csv")[1]
    return {**{k: info[k] for k in ("params", "t_final", "dt")},
            "final": {k: info[k] for k in ("final_r", "final_d", "max_norm_drift")},
            "times": _column(rows, 0),
            "trajectory": {name: _column(rows, col) for col, name in (
                (1, "participation_ratio"), (2, "momentum_width"), (3, "energy"),
                (4, "norm_drift"))}}


def _read_gaa(out):
    info = json.loads((out / "gaa.json").read_text())
    rows = _rows(out / "gaa_spectrum.csv")[1]
    return {**{k: info[k] for k in ("mobility_edge", "misclassification",
                                    "r_threshold")},
            "energies": _column(rows, 1), "r": _column(rows, 2),
            "labels": {name: _column(rows, col, lambda x: x == "True")
                       for col, name in ((3, "predicted_localized"),
                                         (4, "observed_localized"), (5, "agree"))}}


def _read_alpha_star(out):
    info = json.loads((out / "alpha_star.json").read_text())
    rows = _rows(out / "alpha_star.csv")[1]
    return {"energy_definition": info["energy_definition"], "L": info["L"],
            **{name: _column(rows, col) for col, name in enumerate((
                "u", "delta_c_gs", "delta_c_es", "e_c_gs", "e_c_es",
                "alpha_star"))},
            "line": {k: info[k] for k in ("slope", "intercept", "r_squared")}}


def _read_bragg(out):
    rows = _rows(out / "bragg.csv")[1]
    return {**json.loads((out / "bragg.json").read_text()),
            "bond_j": _column(rows, 0, int), "detuning_over_2pi_hz":
            _column(rows, 1), "phase_rad": _column(rows, 2)}


def _read_sweep(out):
    rows = _rows(out / "sweep.csv")[1]
    return {"u": _column(rows, 0), "final": {
        "momentum_width": _column(rows, 1), "participation_ratio": _column(rows, 2)}}


READ = {"scan": _read_scan, "phases": _read_phases, "solve": _read_solve,
        "ramp": _read_ramp, "evolve": _read_evolve, "gaa-me": _read_gaa,
        "alpha-star": _read_alpha_star, "bragg-schedule": _read_bragg,
        "interaction-sweep": _read_sweep}


def record(cmd, out):
    """Run ARGV[cmd] into the directory `out` and return what it wrote, with
    the work it did: the eigen-solves it ran (the scan's cells, alpha-star's
    states at Delta_c and the CLI's own), their summed `iterations` and how
    many ended uncertified or unconverged, and the right-hand-side calls and
    steps summed over its `dynamics.evolve` trajectories."""
    work = dict.fromkeys(("solves", "iterations", "uncertified", "unconverged",
                          "rhs_calls", "steps"), 0)

    def counted_solve(solve):
        def count(*args, **kwargs):
            sol = solve(*args, **kwargs)
            work["solves"] += 1
            work["iterations"] += sol.iterations
            work["uncertified"] += not sol.certified
            work["unconverged"] += not sol.converged
            return sol
        return count

    def counted_evolve(*args, **kwargs):
        traj = evolve(*args, **kwargs)
        work["rhs_calls"] += traj.rhs_calls
        work["steps"] += traj.steps
        return traj

    solvers = phasescan.solve_state, gaa.solve_state, cli.solve_state
    phasescan.solve_state, gaa.solve_state, cli.solve_state = map(counted_solve,
                                                                  solvers)
    evolve, dynamics.evolve = dynamics.evolve, counted_evolve
    try:
        code = cli.main(ARGV[cmd] + ["--out", str(out)])
    finally:
        phasescan.solve_state, gaa.solve_state, cli.solve_state = solvers
        dynamics.evolve = evolve
    if code != 0:
        raise RuntimeError(f"nlaa {' '.join(ARGV[cmd])} exited with {code}")
    return {"argv": ARGV[cmd], **READ[cmd](Path(out)), **work}


def _leaves(value, path):
    """(path, value) of every scalar in a JSON value, the path '/'-joined."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}/{i}")
    else:
        yield path, value


def moved(cmd, golden):
    """`path: old → new` of each value of `golden` (the new oracle of `cmd`)
    that differs from the pinned tests/golden/<cmd>.json."""
    old, new = ({path: json.dumps(v) for path, v in _leaves(rec, f"{cmd}.json")
                 if path != f"{cmd}.json/nlaa_version"}
                for rec in (json.loads((HERE / f"{cmd}.json").read_text()), golden))
    return [f"{path}: {old.get(path, 'absent')} → {new.get(path, 'absent')}"
            for path in {**new, **old} if old.get(path) != new.get(path)]


def main(args):
    diff = "--diff" in args
    for cmd in [a for a in args if a != "--diff"] or ARGV:
        with tempfile.TemporaryDirectory() as out:
            golden = {"nlaa_version": nlaa.__version__, **record(cmd, out)}
        if diff:
            lines = moved(cmd, json.loads(json.dumps(golden)))  # as the file reads back
            for line in lines:
                print(line)
            print(f"{cmd}.json: {len(lines)} value(s) would move", file=sys.stderr)
        else:
            path = HERE / f"{cmd}.json"
            path.write_text(json.dumps(golden, indent=1) + "\n")
            print(f"wrote {path} from nlaa {nlaa.__version__}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
