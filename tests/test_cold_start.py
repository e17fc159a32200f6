"""Each subcommand loads only the scipy subpackages it runs.

`import nlaa.cli` and every subcommand need numpy and two of scipy's
compiled modules alone: LAPACK (scipy/linalg/_flapack) and DOP853
(scipy/integrate/_dop), which nlaa loads from their files without the
scipy.linalg and scipy.integrate packages. scipy.linalg costs about 0.2 s
of import on its own; scipy.integrate, with scipy.linalg, scipy.special and
scipy.optimize behind it, about 0.45 s and 40 MB. So no subcommand, the
propagating ones (evolve, ramp, interaction-sweep, fit --synthesize, a
ramped scan) included, may leave any of HEAVY in sys.modules. Each case runs
one tiny command in its own fresh interpreter and reports which heavy
modules it left there. The checks are on module sets, not times, so they do
not depend on the machine. The interpreters of all cases run at once, a few
at a time. One more interpreter runs scan, evolve, scan and evolve again
with the two packages imported in between, and checks that nothing it
writes or computes changes and that both packages still work.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.linalg", "scipy.integrate", "scipy.optimize", "scipy.special",
         "concurrent.futures.process")

CHILD = """
import json, sys
import nlaa.cli
try:
    rc = nlaa.cli.main(json.loads(sys.argv[1]))
except SystemExit as exc:
    rc = exc.code
print(json.dumps({"rc": rc, "loaded": [m for m in json.loads(sys.argv[2])
                                       if m in sys.modules]}))
"""

SCAN = ["scan", "--L", "13", "--delta-min", "0.5", "--delta-max", "1.5",
        "--delta-step", "0.5", "--u-min", "0", "--u-max", "0.5", "--u-step", "0.5"]
LEAN = {
    "scan": (SCAN, 0),
    "phases": (["phases", "--L", "13", "--u-min", "0.25", "--u-max", "0.25",
                "--delta-max", "4.0", "--delta-step", "0.5"], 0),
    "alpha-star": (["alpha-star", "--u-values", "0.25", "--delta-max", "0.5",
                    "--L", "13"], 3),
    "gaa-me": (["gaa-me", "--L", "55"], 0),
    "solve": (["solve", "--L", "13"], 0),
    "bragg-schedule": (["bragg-schedule"], 0),
    "bad-flag": (["scan", "--no-such-flag"], 2),
}
FIT = ["fit", "--data", "../meas.csv"]
EVOLVE = ["evolve", "--L", "13", "--t-final", "0.1"]
PROPAGATING = {
    "evolve": EVOLVE,
    "scan-ramped": [*SCAN, "--preparation", "ramped"],
    "ramp": ["ramp", "--L", "13", "--dt", "0.01"],
    "interaction-sweep": ["interaction-sweep", "--L", "13", "--t-final", "0.1",
                          "--u-min", "0", "--u-max", "0.2"],
    "fit-synthesize": ["fit", "--synthesize", "--L", "13", "--n-points", "8",
                       "--dt", "0.01"],
}


def _run(name, argv, root):
    """(exit code, heavy modules loaded) of `argv` run in a fresh interpreter
    with its own working directory and --out under `root`."""
    cwd = root / name
    cwd.mkdir()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([*argv, "--out", "out"]),
         json.dumps(HEAVY)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    return got["rc"], set(got["loaded"])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    root = tmp_path_factory.mktemp("cold_start")
    root.joinpath("meas.csv").write_text("delta_over_j,r\n" + "".join(
        f"{d},{0.6 * d ** -1.2 + 0.05 if d < 1.8 else 0.05}\n"
        for d in (0.2 + 0.1 * k for k in range(30))))
    cases = {**{name: argv for name, (argv, _) in LEAN.items()},
             "fit": FIT, **PROPAGATING}
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        runs = {name: pool.submit(_run, name, argv, root)
                for name, argv in cases.items()}
        return {name: run.result() for name, run in runs.items()}


@pytest.mark.parametrize("name", LEAN)
def test_subcommands_without_dynamics_or_fits_load_no_heavy_module(loaded, name):
    assert loaded[name] == (LEAN[name][1], set())


def test_fit_on_data_loads_no_heavy_module(loaded):
    assert loaded["fit"] == (0, set())


@pytest.mark.parametrize("name", PROPAGATING)
def test_propagating_subcommands_load_no_heavy_module(loaded, name):
    # DOP853 comes from scipy/integrate/_dop's file, not from scipy.integrate
    assert loaded[name] == (0, set())


SCAN_EVOLVE_SCAN = """
import json, sys
from pathlib import Path
import numpy as np
import nlaa.cli
from nlaa import ModelParams, transport_experiment
scan, evolve, heavy = (json.loads(arg) for arg in sys.argv[1:4])

def bits():
    traj = transport_experiment(ModelParams(L=13, Delta=1.0, U=0.8), 1.0)
    return [x.tobytes().hex() for x in (traj.times, traj.r, traj.d, traj.energy,
                                        traj.norm_drift, traj.final_state().amplitudes)]

def same(a, b):
    return {p.name: p.read_bytes() == Path(b, p.name).read_bytes()
            for p in Path(a).iterdir() if p.name != "manifest.json"}

rc = [nlaa.cli.main([*scan, "--out", "scan1"]),
      nlaa.cli.main([*evolve, "--out", "evolve1"])]
lean, before = [m for m in heavy if m in sys.modules], bits()
import scipy.integrate
import scipy.linalg
from scipy.linalg.lapack import dgtsv
*_, x, info = dgtsv(np.ones(3), np.full(4, 4.0), np.ones(3), np.ones(4))
t = np.diag(np.full(4, 4.0)) + np.eye(4, k=1) + np.eye(4, k=-1)
ode = scipy.integrate.ode(lambda t, y: -y).set_integrator("dop853", rtol=1e-10,
                                                          atol=1e-10)
ode.set_initial_value([1.0], 0.0)
decay = ode.integrate(1.0)[0]
rc += [nlaa.cli.main([*evolve, "--out", "evolve2"]),
       nlaa.cli.main([*scan, "--out", "scan2"])]
print(json.dumps({
    "rc": rc, "lean": lean, "bits": before == bits(),
    "scan": same("scan1", "scan2"), "evolve": same("evolve1", "evolve2"),
    "dgtsv": [int(info), float(np.max(np.abs(x - np.linalg.solve(t, np.ones(4)))))],
    "ode": [ode.successful(), abs(decay - np.exp(-1.0))],
    "bound": [hasattr(scipy.linalg, "_flapack"), hasattr(scipy.integrate, "_dop")]}))
"""


def test_scan_after_evolve_in_one_interpreter_is_unchanged(tmp_path):
    """serial_path's order and more: a scan and an evolve load LAPACK and
    DOP853 from their files and leave every HEAVY module unloaded; then
    scipy.integrate and scipy.linalg are imported, and an evolve and a scan
    must write the same bytes as before, and a trajectory computed in the
    interpreter must be bitwise the one before. scipy.linalg.lapack and
    scipy.integrate.ode's dop853 keep working, and each package has its
    compiled module as an attribute as after a plain import."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCAN_EVOLVE_SCAN, json.dumps(SCAN),
         json.dumps(EVOLVE), json.dumps(HEAVY)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["rc"] == [0, 0, 0, 0]
    assert got["lean"] == []
    assert got["bits"]
    assert len(got["scan"]) == 6 and all(got["scan"].values()), got["scan"]
    assert len(got["evolve"]) == 2 and all(got["evolve"].values()), got["evolve"]
    info, err = got["dgtsv"]
    assert info == 0 and err < 1e-15
    ok, err = got["ode"]
    assert ok and err < 1e-9
    assert got["bound"] == [True, True]
