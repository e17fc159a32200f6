"""Write tests/golden/fit.json, the pinned oracle of the transition fit.

For each benchmark seed it synthesizes the data of the `ramp_fit` workload
(`nlaa fit --synthesize --u-over-j 0.3 --bootstrap 200 --seed S`, every
other option at its CLI default), fits it and bootstraps it, and records:

- the data itself, so the oracle does not depend on the ramp integrator;
- the base fit's A, B, gamma, Delta_c, rss and n_points;
- the bootstrap's stderr, failure count and every resample's Delta_c;
- the work (`work()`): the right-hand-side calls and computed steps of
  DOP853 over the ramps that synthesize the data, and the fit kernel's
  (`fitting.least_squares`) calls and row evaluations in the bootstrap of
  the recorded data, base fit included.

Floats are stored by JSON's shortest round-trip repr, so they read back
bitwise. Run it with the nlaa whose values are to be pinned on the path:

    PYTHONPATH=<checkout>/src python3 tests/golden/make_fit.py [--work]

With --work it re-pins only each case's work, from its pinned data, and
leaves every other value as it is.
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import nlaa
import nlaa.dynamics as dynamics
import nlaa.fitting as fitting
from nlaa.cli import COMMANDS
from nlaa.fitting import bootstrap_delta_c, fit_transition, synthesize_measurement

SEEDS = (7, 8, 1801, 12345)
U_OVER_J = 0.3
N_RESAMPLES = 200
OUT = Path(__file__).resolve().parent / "fit.json"


def ramp_fit_data(seed):
    """The (delta, r) rows `fit --synthesize --u-over-j 0.3 --seed seed` fits."""
    d = COMMANDS["fit"][2]
    deltas = np.linspace(d["delta_min"], d["delta_max"], d["n_points"])
    return synthesize_measurement(U_OVER_J, deltas, L=d["L"], kind=d["kind"],
                                  noise_sigma=d["noise_sigma"], floor=d["floor"],
                                  seed=seed, phi=d["phi"], dt=d["dt"])


@contextmanager
def _counted(module, name, count):
    """module.name replaced, while inside, by a wrapper that passes each
    result to count()."""
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        out = inner(*args, **kwargs)
        count(out)
        return out

    setattr(module, name, counted)
    try:
        yield
    finally:
        setattr(module, name, inner)


def work(seed, data):
    """The work behind the case of `seed` that holds `data`: rhs_calls and
    steps summed over the `dynamics.evolve` trajectories of
    ramp_fit_data(seed), and the `fitting.least_squares` calls and their
    row evaluations (nfev) in bootstrap_delta_c of `data`."""
    out = dict.fromkeys(("rhs_calls", "steps", "lsq_calls", "row_evaluations"), 0)

    def ramps(traj):
        out["rhs_calls"] += traj.rhs_calls
        out["steps"] += traj.steps

    def kernel(sol):
        out["lsq_calls"] += 1
        out["row_evaluations"] += sol.nfev

    with _counted(dynamics, "evolve", ramps):
        ramp_fit_data(seed)
    with _counted(fitting, "least_squares", kernel):
        bootstrap_delta_c(data, n_resamples=N_RESAMPLES, seed=seed)
    return out


def record(seed):
    data = ramp_fit_data(seed)
    fit = fit_transition(data)
    boot = bootstrap_delta_c(data, n_resamples=N_RESAMPLES, seed=seed)
    return {
        "seed": seed,
        "data": data.tolist(),
        "fit": {"A": fit.A, "B": fit.B, "gamma": fit.gamma,
                "delta_c": fit.delta_c, "rss": fit.rss,
                "n_points": fit.n_points},
        "bootstrap": {"n_resamples": N_RESAMPLES, "stderr": boot.stderr,
                      "n_failures": boot.n_failures,
                      "samples": boot.samples.tolist()},
        "work": work(seed, data),
    }


def main(args):
    if "--work" in args:
        golden = json.loads(OUT.read_text())
        for case in golden["cases"]:
            case["work"] = work(case["seed"], np.array(case["data"]))
    else:
        golden = {"nlaa_version": nlaa.__version__, "u_over_j": U_OVER_J,
                  "cases": [record(seed) for seed in SEEDS]}
    OUT.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {OUT} from nlaa {nlaa.__version__}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
