"""Write tests/golden/fit.json, the pinned oracle of the transition fit.

For each benchmark seed it synthesizes the data of the `ramp_fit` workload
(`nlaa fit --synthesize --u-over-j 0.3 --bootstrap 200 --seed S`, every
other option at its CLI default), fits it and bootstraps it, and records:

- the data itself, so the oracle does not depend on the ramp integrator;
- the base fit's A, B, gamma, Delta_c, rss and n_points;
- the bootstrap's stderr, failure count and every resample's Delta_c.

Floats are stored by JSON's shortest round-trip repr, so they read back
bitwise. Run it with the nlaa whose values are to be pinned on the path:

    PYTHONPATH=<checkout>/src python3 tests/golden/make_fit.py
"""

import json
import sys
from pathlib import Path

import numpy as np

import nlaa
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
    }


def main():
    golden = {"nlaa_version": nlaa.__version__, "u_over_j": U_OVER_J,
              "cases": [record(seed) for seed in SEEDS]}
    OUT.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {OUT} from nlaa {nlaa.__version__}", file=sys.stderr)


if __name__ == "__main__":
    main()
